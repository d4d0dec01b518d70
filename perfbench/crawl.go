package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/fedcrawl"
	"github.com/webdep/webdep/internal/fedtransport"
	"github.com/webdep/webdep/internal/liveworld"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/resilience"
	"github.com/webdep/webdep/internal/resolver"
	"github.com/webdep/webdep/internal/tlsscan"
	"github.com/webdep/webdep/internal/worldgen"
)

// mergesPerCrawl is how many times each crawl's journals are merged again.
const mergesPerCrawl = 5

// crawlState is the crawl workload after set-up: a world served over real
// DNS and TLS, and the signed-transport vantages that crawl it.
type crawlState struct {
	w        *worldgen.World
	ep       *liveworld.Endpoints
	vantages []*fedtransport.VantageServer
	workers  []string
	urls     map[string]string
	keys     map[string][]byte
	reg      *obs.Registry
	serve    time.Duration // liveworld.Serve
	// Each vantage is reached through a proxy that counts the artifact
	// bytes its answers carry.
	proxies   []*http.Server
	transport *http.Transport
	artifacts atomic.Int64
}

func (s *crawlState) close() {
	for _, p := range s.proxies {
		p.Close()
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	for _, v := range s.vantages {
		v.Close()
	}
	if s.ep != nil {
		s.ep.Close()
	}
}

// runCrawl is a federated live crawl: a fedcrawl coordinator sends shards
// through a fedtransport client to in-process vantages, which crawl a
// liveworld-served world and return signed journal artifacts. One crawl
// is one operation; the merge of its journals is the second. No faults
// are injected.
func runCrawl(b *bench) error {
	var s *crawlState
	cleanup, err := b.setup(func(rep int) (func(), error) {
		var err error
		s, err = b.crawlSetup(rep)
		return s.close, err
	})
	if err != nil {
		return err
	}
	defer cleanup()

	var ops, merges, dispatches []float64
	var sites, attempted, lost, records int64
	var last *fedcrawl.Result
	var lastStats fedcrawl.Stats
	var lastDir string
	var refusals, artifacts int64
	heap := startHeapSampler()
	start := time.Now()
	for n := 0; n < max(1, b.size.Crawls) || time.Since(start).Seconds() < b.seconds; n++ {
		dir := filepath.Join(b.work, fmt.Sprintf("crawl-%d", n))
		before := s.reg.Counter("checkpoint.records_written").Value()
		sent := s.artifacts.Load()
		res, st, took, ds, refused, err := b.crawlOnce(s, dir)
		if err != nil {
			heap.Stop()
			return err
		}
		artifacts = s.artifacts.Load() - sent
		ops = append(ops, ms(took))
		dispatches = append(dispatches, ds...)
		records += s.reg.Counter("checkpoint.records_written").Value() - before
		refusals += refused
		sites += int64(res.Corpus.TotalSites())
		for _, cov := range res.Corpus.CoverageByCountry {
			for _, f := range []dataset.FieldCoverage{cov.Host, cov.NS, cov.CA, cov.Language} {
				attempted += int64(f.Attempted())
			}
			lost += int64(cov.Lost())
		}
		// A merge takes tens of milliseconds; timing several per crawl
		// gives its median enough samples to be steady.
		for i := 0; i < mergesPerCrawl; i++ {
			mt, err := b.tr.Time("fedcrawl.merge", 0, func(int) error {
				_, err := fedcrawl.Merge(dir, "", nil, obs.NewRegistry())
				return err
			})
			if err != nil {
				heap.Stop()
				return err
			}
			merges = append(merges, ms(mt))
		}
		if lastDir != "" {
			os.RemoveAll(lastDir)
		}
		last, lastStats, lastDir = res, st, dir
	}
	b.e2e["peak_heap_mb"] = heap.Stop()
	b.add("peak_heap_mb", "MB", b.e2e["peak_heap_mb"], 1)
	b.latency("crawl.run", append([]float64(nil), ops...))
	b.e2e["aux_p50_ms"] = quantile(merges, 0.5)
	b.add("fedcrawl.merge_ms", "ms", b.e2e["aux_p50_ms"], len(merges))
	var total float64
	for _, v := range ops {
		total += v
	}
	b.e2e["work_per_s"] = float64(sites) / (total / 1e3)
	b.add("crawl_sites_per_s", "1/s", b.e2e["work_per_s"], len(ops))
	b.attempted, b.failed = attempted, lost
	b.add("failed_frac", "ratio", float64(lost)/float64(attempted), int(attempted))

	if b.tr.on {
		tot := b.tr.Totals()
		b.layer["liveworld.serve_s"] = s.serve.Seconds()
		b.layer["fedtransport.dispatch_ms"] = quantile(dispatches, 0.5)
		journal, err := dirBytes(lastDir)
		if err != nil {
			return err
		}
		b.layer["checkpoint.journal_mb"] = float64(journal) / (1 << 20)
		b.layer["fedtransport.artifact_mb"] = float64(artifacts) / (1 << 20)
		b.layer["fedtransport.refusals"] = float64(refusals)
		b.layer["resilience.retries"] = float64(s.reg.Counter("resilience.retries").Value())
		b.layer["fedcrawl.waves"] = float64(lastStats.Waves)
		b.layer["fedcrawl.dispatches"] = float64(lastStats.Dispatches)
		b.layer["fedcrawl.redispatches"] = float64(lastStats.Redispatches)
		if records > 0 {
			b.layer["fedcrawl.useful_ratio"] = float64(sites) / float64(records)
		}
		b.layer["fedcrawl.merge_s"] = b.e2e["aux_p50_ms"] / 1e3
		b.layer["crawl.failed_frac"] = float64(lost) / float64(attempted)
		if st := tot["crawl.run"]; st != nil {
			b.layer["crawl.run.self_s"] = st.Self.Seconds() / float64(st.Count)
		}
		lookup, scan, err := b.probeLayers(s, last.Corpus)
		if err != nil {
			return err
		}
		b.layer["resolver.lookup_us"], b.layer["tlsscan.scan_us"] = lookup, scan
	}
	return b.checkCrawl(s, last.Corpus)
}

// crawlSetup builds the world, serves it and starts the vantages.
func (b *bench) crawlSetup(rep int) (*crawlState, error) {
	s := &crawlState{reg: obs.NewRegistry(), urls: map[string]string{}, keys: map[string][]byte{}, transport: &http.Transport{}}
	var err error
	s.w, err = worldgen.Build(worldgen.Config{Seed: b.seed, SitesPerCountry: b.size.Crawl.Sites, Countries: b.size.Crawl.Countries})
	if err != nil {
		return s, err
	}
	if s.serve, err = b.tr.Time("liveworld.serve", 0, func(int) error {
		s.ep, err = liveworld.Serve(s.w)
		return err
	}); err != nil {
		return s, err
	}
	for i := 0; i < b.size.Workers; i++ {
		name := fmt.Sprintf("w%d", i)
		key := []byte(fmt.Sprintf("perfbench-key-%d-%d", b.seed, i))
		dir := filepath.Join(b.work, fmt.Sprintf("vantage-%d-%d", rep, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return s, err
		}
		v, err := fedtransport.ServeVantage("127.0.0.1:0", fedtransport.VantageConfig{
			Key: key, NewLive: s.newLive, Dir: dir, Obs: s.reg,
		})
		if err != nil {
			return s, err
		}
		s.vantages = append(s.vantages, v)
		addr, err := s.proxy(v.Addr)
		if err != nil {
			return s, err
		}
		s.workers = append(s.workers, name)
		s.urls[name], s.keys[name] = "http://"+addr, key
	}
	return s, nil
}

// proxy starts a reverse proxy to the vantage at addr that counts the
// bytes of every artifact the vantage answers with, and returns the
// proxy's address.
func (s *crawlState) proxy(addr string) (string, error) {
	rp := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: addr})
	rp.Transport = s.transport
	rp.ModifyResponse = func(resp *http.Response) error {
		if resp.StatusCode == http.StatusOK {
			resp.Body = &countingBody{ReadCloser: resp.Body, n: &s.artifacts}
		}
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: rp}
	s.proxies = append(s.proxies, srv)
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

// countingBody adds the bytes read through it to n.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// newLive is each vantage's crawl pipeline: one site at a time, so the
// two vantages together keep two probes in flight.
func (s *crawlState) newLive() *pipeline.Live {
	pol := resilience.NewPolicy()
	pol.Obs = s.reg
	return &pipeline.Live{
		Pipeline:       pipeline.FromWorld(s.w),
		DNS:            resolver.NewClient(s.ep.DNSAddr),
		Scanner:        tlsscan.New(s.w.Owners),
		TLSAddr:        s.ep.TLSAddr,
		Workers:        1,
		DetectLanguage: true,
		Resilience:     pol,
		Obs:            s.reg,
	}
}

// crawlOnce runs one federated crawl into the journal directory dir. It
// returns the result, the coordinator's accounting, the crawl's wall
// time, each dispatch's milliseconds and the artifacts refused.
func (b *bench) crawlOnce(s *crawlState, dir string) (*fedcrawl.Result, fedcrawl.Stats, time.Duration, []float64, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fedcrawl.Stats{}, 0, nil, 0, err
	}
	client, err := fedtransport.NewClient(fedtransport.ClientConfig{
		Workers: s.workers, URL: s.urls, Key: s.keys, Dir: dir,
		Epoch: s.w.Config.Epoch, Countries: s.w.Config.Countries, Obs: s.reg,
	})
	if err != nil {
		return nil, fedcrawl.Stats{}, 0, nil, 0, err
	}
	defer client.Close()
	root := b.tr.Start("crawl.run", 0, 0)
	var mu sync.Mutex
	var dispatches []float64
	dispatch := client.Dispatcher()
	lane := map[string]int{}
	for i, name := range s.workers {
		lane[name] = i + 1
	}
	cfg := fedcrawl.Config{
		Epoch:     s.w.Config.Epoch,
		Countries: s.w.Config.Countries,
		DomainsOf: func(cc string) []string { return s.w.Truth.Get(cc).Domains() },
		Workers:   len(s.workers),
		Dir:       dir,
		Obs:       s.reg,
		Dispatch: func(ctx context.Context, worker string, gen int, jobs []pipeline.SiteJob) error {
			id := b.tr.Start("fedtransport.dispatch", root, lane[worker])
			start := time.Now()
			err := dispatch(ctx, worker, gen, jobs)
			d := ms(time.Since(start))
			b.tr.End(id)
			mu.Lock()
			dispatches = append(dispatches, d)
			mu.Unlock()
			return err
		},
	}
	start := time.Now()
	coord, err := fedcrawl.New(cfg)
	if err != nil {
		b.tr.End(root)
		return nil, fedcrawl.Stats{}, 0, nil, 0, err
	}
	res, err := coord.Run(context.Background())
	took := time.Since(start)
	b.tr.End(root)
	if err != nil {
		return nil, fedcrawl.Stats{}, 0, nil, 0, err
	}
	r := client.Stats().Refusals
	return res, coord.Stats(), took, dispatches, r.Forged + r.Truncated + r.Replayed + r.Foreign + r.Corrupt, nil
}

// probeLayers times the resolver and the TLS scanner alone, against the
// same endpoints, on a seeded sample of the crawl's sites. It returns the
// medians in microseconds.
func (b *bench) probeLayers(s *crawlState, c *dataset.Corpus) (lookup, scan float64, err error) {
	var domains []string
	for _, cc := range c.Countries() {
		domains = append(domains, c.Get(cc).Domains()...)
	}
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(domains), func(i, j int) { domains[i], domains[j] = domains[j], domains[i] })
	if len(domains) > b.size.Probes {
		domains = domains[:b.size.Probes]
	}
	dns := resolver.NewClient(s.ep.DNSAddr)
	scanner := tlsscan.New(s.w.Owners)
	var lookups, scans []float64
	for _, d := range domains {
		start := time.Now()
		if _, err := dns.LookupA(d); err != nil {
			return 0, 0, fmt.Errorf("resolving %s: %w", d, err)
		}
		lookups = append(lookups, float64(time.Since(start).Nanoseconds())/1e3)
		start = time.Now()
		if _, err := scanner.Scan(s.ep.TLSAddr, d); err != nil {
			return 0, 0, fmt.Errorf("scanning %s: %w", d, err)
		}
		scans = append(scans, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return quantile(lookups, 0.5), quantile(scans, 0.5), nil
}

// checkCrawl checks every merged site's providers against the world's
// ground truth and digests the merged corpus.
func (b *bench) checkCrawl(s *crawlState, c *dataset.Corpus) error {
	if b.corrupt {
		list := c.Get(c.Countries()[0])
		list.Sites[len(list.Sites)-1].DNSProvider = "corrupted-provider"
	}
	var mismatch error
	for _, cc := range s.w.Config.Countries {
		truth, got := s.w.Truth.Get(cc), c.Get(cc)
		if got == nil || len(got.Sites) != len(truth.Sites) {
			mismatch = fmt.Errorf("%s: merged corpus does not hold the %d truth sites", cc, len(truth.Sites))
			break
		}
		for i := range truth.Sites {
			t, g := &truth.Sites[i], &got.Sites[i]
			if g.Domain != t.Domain || g.HostProvider != t.HostProvider || g.DNSProvider != t.DNSProvider ||
				g.CAOwner != t.CAOwner || g.TLD != t.TLD {
				mismatch = fmt.Errorf("%s %s: crawled providers (%q, %q, %q, %q), truth (%q, %q, %q, %q)",
					cc, t.Domain, g.HostProvider, g.DNSProvider, g.CAOwner, g.TLD,
					t.HostProvider, t.DNSProvider, t.CAOwner, t.TLD)
				break
			}
		}
		if mismatch != nil {
			break
		}
	}
	b.check("crawl.providers_equal_truth", mismatch)
	scores := map[string]map[string]float64{}
	for _, layer := range countries.Layers {
		scores[layer.String()] = c.Scores(layer)
	}
	b.parts = map[string]string{"sites": hashJSON(c.Lists), "scores": hashJSON(scores)}
	b.digest = hashJSON(c.Lists, scores)
	return nil
}
