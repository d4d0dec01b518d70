package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/webdepd"
	"github.com/webdep/webdep/internal/worldgen"
)

// serveEndpoints are the daemon's query endpoints, in metric order.
var serveEndpoints = []string{"scores", "rankcurve", "coverage", "classes", "spof", "whatif", "epoch"}

// lateLimit is how late the load generator may send a request, past the
// later of its due time and the moment its connection came free, at the
// 99th percentile (p90 in runs of fewer than 1000 requests, so that the
// figure rests on ten of them). Timer wake-ups on a loaded two-core
// machine are about a millisecond late at p99; a run whose generator fell
// further behind measured the generator, not the daemon, and is marked
// invalid.
const lateLimit = 5.0 // ms

// serveKey is one distinct request of the mix.
type serveKey struct {
	endpoint int // index into serveEndpoints
	path     string
	req      []byte
}

// serveState is the serve workload after set-up: a daemon over a
// generation root, the measured worlds that generations are published
// from, and the mix.
type serveState struct {
	dir    string
	root   string
	stage  string
	epochs []string // epoch label of each staged world
	d      *webdepd.Daemon
	reg    *obs.Registry
	keys   []serveKey
	// mix holds, per endpoint, the indices of its keys: a request picks an
	// endpoint with equal odds, then one of its keys with equal odds.
	mix [][]int
	// swapped counts the reloads answered so far; a request sent after n
	// of them is served by generation n or, racing a swap, n+1.
	swapped atomic.Int64
}

// runServe drives a webdepd daemon open-loop at a fixed rate over
// keep-alive loopback connections, while a new store generation is
// published and swapped in with POST /reload at a fixed interval, and then
// closed-loop for a short burst that gives the rate the daemon sustains.
// One request is one operation; open-loop requests are timed from when
// they were due.
func runServe(b *bench) error {
	reloads := max(0, int(math.Ceil(b.seconds/b.size.ReloadEvery.Seconds()))-1)
	var s *serveState
	cleanup, err := b.setup(func(rep int) (func(), error) {
		var err error
		s, err = b.serveSetup(rep)
		if s == nil {
			return nil, err
		}
		return func() {
			if s.d != nil {
				s.d.Close()
			}
			os.RemoveAll(s.dir)
		}, err
	})
	if err != nil {
		return err
	}
	defer cleanup()

	heap := startHeapSampler()
	run, err := b.serveLoad(s, reloads)
	if err != nil {
		heap.Stop()
		return err
	}
	// The daemon's counters as the open loop left them, before the probe
	// and the burst add their hits.
	requests := s.reg.Counter("webdepd.requests").Value()
	hits := s.reg.Counter("webdepd.hits").Value()
	coalesced := s.reg.Counter("webdepd.coalesced").Value()
	final, err := b.finalProbe(s)
	if err != nil {
		heap.Stop()
		return err
	}
	burst, err := b.serveBurst(s)
	b.e2e["peak_heap_mb"] = heap.Stop()
	if err != nil {
		return err
	}
	b.add("peak_heap_mb", "MB", b.e2e["peak_heap_mb"], 1)

	lat := make([]float64, len(run.recs))
	late := make([]float64, len(run.recs))
	var ok int64
	perEndpoint := make([][]float64, len(serveEndpoints))
	for i, r := range run.recs {
		lat[i], late[i] = r.lat, r.late
		if r.ok {
			ok++
		}
		ep := s.keys[r.key].endpoint
		perEndpoint[ep] = append(perEndpoint[ep], r.lat)
	}
	b.attempted = int64(len(run.recs)) + burst.sent
	b.failed = int64(len(run.recs)) - ok + burst.failed
	b.add("serve.query_p50_ms", "ms", quantile(lat, 0.5), len(lat))
	b.add("query_p99_ms", "ms", quantile(lat, 0.99), len(lat))
	// The gated p50 and p90 are medians over one-second windows of each
	// window's quantile, so a second of neighbour load on a shared machine
	// does not move them.
	var windows [][]float64
	for _, r := range run.recs {
		w := int(r.due / 1e3)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], r.lat)
	}
	var p50s, p90s []float64
	for _, w := range windows {
		if len(w) >= 100 {
			p50s, p90s = append(p50s, quantile(w, 0.5)), append(p90s, quantile(w, 0.9))
		}
	}
	if len(p50s) > 0 {
		b.e2e["op_p50_ms"], b.e2e["op_tail_ms"] = quantile(p50s, 0.5), quantile(p90s, 0.5)
	} else {
		b.e2e["op_p50_ms"], b.e2e["op_tail_ms"] = quantile(lat, 0.5), quantile(lat, 0.9)
	}
	b.add("query_p50_ms (median of 1 s windows)", "ms", b.e2e["op_p50_ms"], len(p50s))
	b.add("query_p90_ms (median of 1 s windows)", "ms", b.e2e["op_tail_ms"], len(p90s))
	b.e2e["aux_p50_ms"] = quantile(append([]float64(nil), run.reloads...), 0.5)
	b.add("reload_s", "s", b.e2e["aux_p50_ms"]/1e3, len(run.reloads))
	b.add("serve.open_loop_ok_per_s", "1/s", float64(ok)/run.elapsed.Seconds(), int(ok))
	b.e2e["work_per_s"] = quantile(burst.rates, 0.5)
	b.add("serve.saturated_per_s (median of 250 ms slices)", "1/s", b.e2e["work_per_s"], len(burst.rates))
	failedFrac := float64(b.failed) / float64(b.attempted)
	b.add("failed_frac", "ratio", failedFrac, int(b.attempted))
	lateP99 := quantile(late, 0.99)
	b.add("loadgen.late_p50_ms", "ms", quantile(late, 0.5), len(late))
	b.add("loadgen.late_p99_ms", "ms", lateP99, len(late))
	lateQ := 0.99
	if len(late) < 1000 {
		lateQ = 0.9
	}
	var lateErr error
	if l := quantile(late, lateQ); l > lateLimit {
		lateErr = fmt.Errorf("generator ran %.3fms late at p%g (limit %.1fms): the run is invalid, not slow", l, lateQ*100, lateLimit)
	}
	b.check("serve.generator_on_schedule", lateErr)

	if b.tr.on {
		for i, name := range serveEndpoints {
			b.layer["webdepd."+name+".p50_ms"] = quantile(perEndpoint[i], 0.5)
		}
		cold := run.cold(s)
		for _, name := range []string{"classes", "spof", "whatif"} {
			b.layer["webdepd.cold."+name+"_ms"] = quantile(cold[name], 0.5)
		}
		if requests > 0 {
			b.layer["webdepd.hit_ratio"] = float64(hits) / float64(requests)
		}
		b.layer["webdepd.coalesced"] = float64(coalesced)
		b.layer["loadgen.sent"] = float64(len(run.recs))
		b.layer["loadgen.late_p99_ms"] = lateP99
		b.layer["serve.query_p99_ms"] = quantile(lat, 0.99)
		b.layer["serve.failed_frac"] = failedFrac
		load, snap, err := s.incomingCost(reloads)
		if err != nil {
			return err
		}
		b.layer["corpusstore.load_s"], b.layer["dataset.snapshot_s"] = load, snap
	}
	return b.checkServe(s, run, final)
}

// serveSetup measures ServeWorlds worlds into staged stores, publishes the
// first as generation 0, starts the daemon over it and builds the mix.
func (b *bench) serveSetup(rep int) (*serveState, error) {
	s := &serveState{dir: filepath.Join(b.work, fmt.Sprintf("serve-%d", rep)), reg: obs.NewRegistry()}
	s.root, s.stage = filepath.Join(s.dir, "root"), filepath.Join(s.dir, "stage")
	if err := os.MkdirAll(s.root, 0o755); err != nil {
		return s, err
	}
	providers := map[string]int{} // in how many worlds each provider appears
	var ccs []string
	for g := 0; g < b.size.ServeWorlds; g++ {
		// The same path as the store workload's set-up: a shell world
		// measured straight into a store.
		w, err := worldgen.BuildShell(worldgen.Config{
			Seed: b.seed*1000 + int64(g), SitesPerCountry: b.size.Serve.Sites,
			Countries: b.size.Serve.Countries, Epoch: fmt.Sprintf("2024-%02d", g+1),
		})
		if err != nil {
			return s, err
		}
		dir := filepath.Join(s.stage, strconv.Itoa(g))
		opts := &corpusstore.Options{Workers: b.size.Workers, Obs: obs.NewRegistry()}
		wr, err := corpusstore.Create(dir, w.Config.Epoch, opts)
		if err != nil {
			return s, err
		}
		p := pipeline.FromWorld(w)
		p.Workers = b.size.Workers
		if err := p.MeasureWorldToStore(w, wr); err != nil {
			return s, err
		}
		if err := wr.Close(); err != nil {
			return s, err
		}
		st, err := corpusstore.Open(dir, opts)
		if err != nil {
			return s, err
		}
		graph, err := depgraph.FromStore(st, &depgraph.Options{Workers: b.size.Workers, Obs: opts.Obs})
		if err != nil {
			return s, err
		}
		for _, name := range graph.Providers() {
			providers[name]++
		}
		s.epochs = append(s.epochs, st.Epoch())
		ccs = st.Countries()
	}
	if err := s.publish(0); err != nil {
		return s, err
	}
	var common []string
	for name, n := range providers {
		if n == b.size.ServeWorlds {
			common = append(common, name)
		}
	}
	sort.Strings(common)
	s.buildMix(b.seed, common, ccs)
	d, err := webdepd.Start("127.0.0.1:0", webdepd.Config{StoreRoot: s.root, Workers: b.size.Workers, Obs: s.reg})
	if err != nil {
		return s, err
	}
	s.d = d
	return s, nil
}

func genName(g int) string { return fmt.Sprintf("gen-%03d", g) }

// world is the staged world generation n is published from: the worlds
// take turns, so every reload brings in a store the daemon is not serving.
func (s *serveState) world(n int) int { return n % len(s.epochs) }

// publish hard-links a staged world's store into the root as generation
// n, under a ".tmp" name the daemon ignores until the rename completes it.
// The daemon's next reload finds it as the newest complete generation.
func (s *serveState) publish(n int) error {
	src := filepath.Join(s.stage, strconv.Itoa(s.world(n)))
	dst := filepath.Join(s.root, genName(n))
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst+".tmp", rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst+".tmp", rel))
	})
	if err != nil {
		return err
	}
	return os.Rename(dst+".tmp", dst)
}

// buildMix lists the distinct requests of each endpoint. Every endpoint
// gets an equal share of the traffic, spread evenly over its keys: scores
// for all layers, each layer and each layer and country; a rank curve for
// each layer and country; coverage; the CA classes; three SPOF rankings;
// what-if for up to 200 providers present in every generation; and the
// epoch.
func (s *serveState) buildMix(seed int64, providers []string, ccs []string) {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(providers), func(i, j int) { providers[i], providers[j] = providers[j], providers[i] })
	if len(providers) > 200 {
		providers = providers[:200]
	}
	layers := []string{"hosting", "dns", "ca", "tld"}
	paths := [][]string{
		append(append([]string{"/api/scores"}, prefixed("/api/scores?layer=", layers)...), crossed("/api/scores", layers, ccs)...),
		crossed("/api/rankcurve", layers, ccs),
		{"/api/coverage"},
		{"/api/classes?layer=ca"},
		{"/api/spof?n=5", "/api/spof?n=10", "/api/spof?n=20"},
		prefixed("/api/whatif?provider=", escaped(providers)),
		{"/api/epoch"},
	}
	s.mix = make([][]int, len(serveEndpoints))
	for ep, list := range paths {
		for _, path := range list {
			s.mix[ep] = append(s.mix[ep], len(s.keys))
			s.keys = append(s.keys, serveKey{endpoint: ep, path: path,
				req: []byte("GET " + path + " HTTP/1.1\r\nHost: webdepd\r\n\r\n")})
		}
	}
}

// draw picks one request of the mix.
func (s *serveState) draw(rng *rand.Rand) int {
	keys := s.mix[rng.Intn(len(s.mix))]
	return keys[rng.Intn(len(keys))]
}

func prefixed(prefix string, vals []string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = prefix + v
	}
	return out
}

func crossed(path string, layers, ccs []string) []string {
	var out []string
	for _, l := range layers {
		for _, cc := range ccs {
			out = append(out, path+"?layer="+l+"&country="+cc)
		}
	}
	return out
}

func escaped(vals []string) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = url.QueryEscape(v)
	}
	return out
}

// serveRec is one request as the load generator saw it.
type serveRec struct {
	key  int
	gen  int     // generation that served the body; -1 if none
	due  float64 // ms after the window opened
	lat  float64 // ms from due to the last response byte
	late float64 // ms the generator sent after it could have
	ok   bool
	body []byte // kept for scores and what-if bodies, first per key and generation
}

// serveRun is the load window's outcome.
type serveRun struct {
	recs    []serveRec
	reloads []float64 // ms from POST /reload to its 200
	elapsed time.Duration
}

// serveLoad runs the open-loop window and, every ReloadEvery, publishes
// the next generation and swaps it in.
func (b *bench) serveLoad(s *serveState, reloads int) (*serveRun, error) {
	total := int(b.size.ServeRate * b.seconds)
	interval := float64(time.Second) / b.size.ServeRate
	t0 := time.Now().Add(20 * time.Millisecond)
	conns := b.size.Conns
	perConn := make([][]serveRec, conns)
	errs := make([]error, conns+1)
	run := &serveRun{}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perConn[c], errs[c] = b.serveConn(s, c, t0, interval, total)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: time.Minute}
		defer client.CloseIdleConnections()
		for k := 1; k <= reloads; k++ {
			time.Sleep(time.Until(t0.Add(time.Duration(k) * b.size.ReloadEvery)))
			if err := s.publish(k); err != nil {
				errs[conns] = err
				return
			}
			id := b.tr.Start("webdepd.reload", 0, conns)
			start := time.Now()
			resp, err := client.Post("http://"+s.d.Addr+"/reload", "text/plain", nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("reload answered %d", resp.StatusCode)
				}
			}
			run.reloads = append(run.reloads, ms(time.Since(start)))
			b.tr.End(id)
			s.swapped.Add(1)
			if err != nil {
				errs[conns] = fmt.Errorf("reload %d: %w", k, err)
				return
			}
		}
	}()
	wg.Wait()
	run.elapsed = time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if len(run.reloads) == 0 {
		// No reload fits in a window this short: time one now, so aux
		// always has a sample.
		start := time.Now()
		if _, err := s.d.Reload(); err != nil {
			return nil, err
		}
		run.reloads = append(run.reloads, ms(time.Since(start)))
	}
	for _, recs := range perConn {
		run.recs = append(run.recs, recs...)
	}
	sort.Slice(run.recs, func(i, j int) bool { return run.recs[i].due < run.recs[j].due })
	return run, nil
}

// serveConn sends every conns-th request of the schedule over one
// keep-alive connection, each at its due time or as soon as the
// connection is free. A request that fails or is answered with anything
// but 200 counts as failed; a broken connection is redialled.
func (b *bench) serveConn(s *serveState, c int, t0 time.Time, interval float64, total int) ([]serveRec, error) {
	rng := rand.New(rand.NewSource(b.seed*7919 + int64(c)))
	worldOf := map[string]int{}
	for w, e := range s.epochs {
		worldOf[e] = w
	}
	seen := map[[2]int]bool{}
	recs := make([]serveRec, 0, total/b.size.Conns+1)
	var conn net.Conn
	var br *bufio.Reader
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	free := t0
	for i := c; i < total; i += b.size.Conns {
		key := s.draw(rng)
		due := t0.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		rec := serveRec{key: key, gen: -1, due: ms(due.Sub(t0)), late: ms(sent.Sub(ready))}
		swapped := int(s.swapped.Load())
		id := b.tr.Start("webdepd."+serveEndpoints[s.keys[key].endpoint], 0, c)
		if conn == nil {
			var err error
			if conn, err = net.Dial("tcp", s.d.Addr); err != nil {
				return nil, err
			}
			br = bufio.NewReaderSize(conn, 64<<10)
		}
		body, status, err := roundTrip(conn, br, s.keys[key].req)
		free = time.Now()
		b.tr.End(id)
		rec.lat = ms(free.Sub(due))
		if err != nil {
			conn.Close()
			conn = nil
		}
		rec.ok = err == nil && status == http.StatusOK
		if !rec.ok {
			// A failed request misses every latency limit.
			rec.lat = b.seconds * 1e3
		} else if w, ok := worldOf[bodyEpoch(body)]; ok {
			rec.gen = swapped
			if w != s.world(swapped) {
				rec.gen = swapped + 1
			}
			k := [2]int{key, rec.gen}
			if ep := serveEndpoints[s.keys[key].endpoint]; !seen[k] && (ep == "scores" || ep == "whatif") {
				seen[k] = true
				rec.body = body
			}
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// roundTrip writes one pre-built request and reads its response.
func roundTrip(conn net.Conn, br *bufio.Reader, req []byte) ([]byte, int, error) {
	if _, err := conn.Write(req); err != nil {
		return nil, 0, err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, err
}

// bodyEpoch reads the epoch label every response body starts with.
func bodyEpoch(body []byte) string {
	rest, ok := bytes.CutPrefix(body, []byte(`{"epoch":"`))
	if !ok {
		return ""
	}
	if end := bytes.IndexByte(rest, '"'); end >= 0 {
		return string(rest[:end])
	}
	return ""
}

// cold returns, per endpoint, the latency of the first request for each
// key in each generation: the request that paid for the render.
func (r *serveRun) cold(s *serveState) map[string][]float64 {
	out := map[string][]float64{}
	seen := map[[2]int]bool{}
	for _, rec := range r.recs {
		k := [2]int{rec.key, rec.gen}
		if rec.gen >= 0 && !seen[k] {
			seen[k] = true
			ep := serveEndpoints[s.keys[rec.key].endpoint]
			out[ep] = append(out[ep], rec.lat)
		}
	}
	return out
}

// incomingCost times what a reload does to each incoming generation,
// outside the load window: materialising the store and building the
// scoring-index snapshot. It returns the medians in seconds.
func (s *serveState) incomingCost(reloads int) (load, snap float64, err error) {
	var loads, snaps []float64
	for g := 1; g <= reloads; g++ {
		start := time.Now()
		st, err := corpusstore.Open(filepath.Join(s.root, genName(g)), &corpusstore.Options{Obs: obs.NewRegistry()})
		if err != nil {
			return 0, 0, err
		}
		c, err := st.Load()
		if err != nil {
			return 0, 0, err
		}
		loads = append(loads, time.Since(start).Seconds())
		start = time.Now()
		_ = c.SnapshotKey()
		snaps = append(snaps, time.Since(start).Seconds())
	}
	if len(loads) == 0 {
		return 0, 0, nil
	}
	return quantile(loads, 0.5), quantile(snaps, 0.5), nil
}

// finalProbe asks for every key once on the final generation, after the
// load window; its bodies make the run's digest, and its scores and
// what-if bodies are checked with the ones served under load.
func (b *bench) finalProbe(s *serveState) ([]serveRec, error) {
	final := make([]serveRec, 0, len(s.keys))
	conn, err := net.Dial("tcp", s.d.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	last := int(s.swapped.Load())
	var digestBodies []string
	for k, key := range s.keys {
		body, status, err := roundTrip(conn, br, key.req)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("final probe %s: status %d, %v", key.path, status, err)
		}
		digestBodies = append(digestBodies, string(body))
		if ep := serveEndpoints[key.endpoint]; ep == "scores" || ep == "whatif" {
			final = append(final, serveRec{key: k, gen: last, body: body})
		}
	}
	b.digest = hashJSON(digestBodies)
	return final, nil
}

// burstSlice is the span of the saturation burst each throughput sample
// covers.
const burstSlice = 250 * time.Millisecond

// serveBurst is the saturation burst's outcome: the requests answered per
// second in each slice, and how many were sent and failed.
type serveBurst struct {
	rates        []float64
	sent, failed int64
}

// serveBurst drives the daemon closed-loop over the same connections for
// Burst, on the final generation with every key rendered: each connection
// sends its next request of the mix as soon as the last is answered, so
// the rate is what the daemon sustains on the hit path, not the schedule.
func (b *bench) serveBurst(s *serveState) (*serveBurst, error) {
	n := max(1, int(b.size.Burst/burstSlice))
	conns := b.size.Conns
	counts := make([][]int64, conns)
	sent, failed := make([]int64, conns), make([]int64, conns)
	errs := make([]error, conns)
	start := time.Now()
	end := start.Add(time.Duration(n) * burstSlice)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*104729 + int64(c)))
			counts[c] = make([]int64, n)
			var conn net.Conn
			var br *bufio.Reader
			defer func() {
				if conn != nil {
					conn.Close()
				}
			}()
			for time.Now().Before(end) {
				if conn == nil {
					var err error
					if conn, err = net.Dial("tcp", s.d.Addr); err != nil {
						errs[c] = err
						return
					}
					br = bufio.NewReaderSize(conn, 64<<10)
				}
				_, status, err := roundTrip(conn, br, s.keys[s.draw(rng)].req)
				done := time.Since(start)
				sent[c]++
				if err != nil {
					conn.Close()
					conn = nil
				}
				if err != nil || status != http.StatusOK {
					failed[c]++
					continue
				}
				if i := int(done / burstSlice); i < n {
					counts[c][i]++
				}
			}
		}()
	}
	wg.Wait()
	out := &serveBurst{}
	for c := 0; c < conns; c++ {
		if errs[c] != nil {
			return nil, errs[c]
		}
		out.sent += sent[c]
		out.failed += failed[c]
	}
	for i := 0; i < n; i++ {
		var total int64
		for c := 0; c < conns; c++ {
			total += counts[c][i]
		}
		out.rates = append(out.rates, float64(total)/burstSlice.Seconds())
	}
	return out, nil
}

// checkServe checks served bodies against direct computation on the
// generation that served them: scores bodies must decode to
// Corpus.Scores and what-if bodies to Graph.Simulate. It checks the first
// body of each key and generation seen under load, and every key's body
// from the final probe.
func (b *bench) checkServe(s *serveState, run *serveRun, final []serveRec) error {
	// Generations published from the same staged world hold the same
	// corpus, so each world is loaded once.
	byWorld := map[int][]serveRec{}
	for _, rec := range append(run.recs, final...) {
		if rec.body != nil {
			byWorld[s.world(rec.gen)] = append(byWorld[s.world(rec.gen)], rec)
		}
	}
	var mismatch error
	checked := 0
	for w, recs := range byWorld {
		st, err := corpusstore.Open(filepath.Join(s.stage, strconv.Itoa(w)), &corpusstore.Options{Workers: b.size.Workers, Obs: obs.NewRegistry()})
		if err != nil {
			return err
		}
		c, err := st.Load()
		if err != nil {
			return err
		}
		t := &worldTruth{c: c, g: depgraph.FromCorpus(c), scores: map[countries.Layer]map[string]float64{}, impacts: map[string]*depgraph.Impact{}}
		// A body byte-identical to one already checked for the same key
		// and world decodes to the same values.
		done := map[int][]byte{}
		for _, rec := range recs {
			if mismatch == nil && !bytes.Equal(done[rec.key], rec.body) {
				mismatch = b.checkBody(t, s.keys[rec.key], rec.body, checked == 0)
				done[rec.key] = rec.body
			}
			checked++
		}
	}
	if mismatch == nil && checked == 0 {
		mismatch = fmt.Errorf("no scores or what-if bodies were served")
	}
	b.check("serve.bodies_match_generation", mismatch)
	return nil
}

// worldTruth is one staged world's corpus and graph, with each layer's
// scores and each provider's impact computed once for all the bodies
// checked against them.
type worldTruth struct {
	c       *dataset.Corpus
	g       *depgraph.Graph
	scores  map[countries.Layer]map[string]float64
	impacts map[string]*depgraph.Impact
}

func (t *worldTruth) layerScores(layer countries.Layer) map[string]float64 {
	if t.scores[layer] == nil {
		t.scores[layer] = t.c.Scores(layer)
	}
	return t.scores[layer]
}

func (t *worldTruth) impact(provider string) (*depgraph.Impact, error) {
	if t.impacts[provider] == nil {
		imp, err := t.g.Simulate(provider)
		if err != nil {
			return nil, err
		}
		t.impacts[provider] = imp
	}
	return t.impacts[provider], nil
}

// checkBody decodes one scores or what-if body and compares its values
// with the corpus's. With damage set and the benchmark's corrupt seam on,
// it perturbs the decoded value first.
func (b *bench) checkBody(t *worldTruth, key serveKey, body []byte, damage bool) error {
	_, rawQuery, _ := strings.Cut(key.path, "?")
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return err
	}
	damage = damage && b.corrupt
	switch serveEndpoints[key.endpoint] {
	case "whatif":
		var resp webdepd.WhatIfResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if damage {
			resp.Impact.Provider += "-corrupted"
		}
		want, err := t.impact(q.Get("provider"))
		if err != nil {
			return err
		}
		if err := sameJSON(resp.Impact, want); err != nil {
			return fmt.Errorf("%s: %w", key.path, err)
		}
		return nil
	case "scores":
		got := map[string]map[string]float64{}
		switch {
		case q.Get("layer") == "":
			var resp webdepd.AllScoresResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			for layer, ls := range resp.Layers {
				got[layer] = ls.Scores
			}
		case q.Get("country") == "":
			var resp webdepd.LayerScoresResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			got[resp.Layer] = resp.Scores
		default:
			var resp webdepd.CountryScoreResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			got[resp.Layer] = map[string]float64{resp.Country: resp.Score}
		}
		for _, layer := range countries.Layers {
			scores, ok := got[layer.String()]
			if !ok {
				continue
			}
			want := t.layerScores(layer)
			for cc, v := range scores {
				if damage {
					v += 1e-9
					damage = false
				}
				if want[cc] != v {
					return fmt.Errorf("%s: %s scored %v, corpus says %v", key.path, cc, v, want[cc])
				}
			}
		}
		if len(got) == 0 {
			return fmt.Errorf("%s: body carries no scores", key.path)
		}
	}
	return nil
}
