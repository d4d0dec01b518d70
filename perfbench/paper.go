package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"github.com/webdep/webdep/internal/analysis"
	"github.com/webdep/webdep/internal/checkpoint"
	"github.com/webdep/webdep/internal/classify"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/report"
	"github.com/webdep/webdep/internal/worldgen"
)

// runPaper is the reproduction users run: from a seed to the fast-run
// artifacts (world, measurement, scores, SPOFs, CSVs), then on to the
// whole evaluation (classes, the analysis battery, a second epoch and the
// longitudinal comparison). One reproduction is one operation; the run
// repeats it until the time is up, at least once, and times FastRuns fast
// runs per reproduction. Its set-up builds the
// full world's infrastructure (providers, routing, geolocation, CA
// registry) without any toplist, which loads the code and the country
// tables; the reproduction builds it again.
func runPaper(b *bench) error {
	cfg := worldgen.Config{Seed: b.seed, SitesPerCountry: b.size.Paper.Sites, Countries: b.size.Paper.Countries}
	cleanup, err := b.setup(func(rep int) (func(), error) {
		_, err := worldgen.BuildShell(cfg)
		return func() {}, err
	})
	if err != nil {
		return err
	}
	defer cleanup()

	var ops, fast []float64
	var last *paperOutput
	heap := startHeapSampler()
	start := time.Now()
	for len(ops) == 0 || time.Since(start).Seconds() < b.seconds {
		// A fast run alone is short enough to move with a few seconds of
		// neighbour load; extra untraced fast runs give its median more
		// samples.
		for i := 1; i < b.size.FastRuns; i++ {
			po := &paperOutput{out: filepath.Join(b.work, "fast")}
			t0 := time.Now()
			if _, err := b.fastRun(untraced, 0, cfg, po); err != nil {
				heap.Stop()
				return err
			}
			fast = append(fast, ms(time.Since(t0)))
			os.RemoveAll(po.out)
		}
		out := filepath.Join(b.work, fmt.Sprintf("out-%d", len(ops)))
		t0 := time.Now()
		po, err := b.reproduce(cfg, out)
		if err != nil {
			heap.Stop()
			return err
		}
		ops = append(ops, ms(time.Since(t0)))
		fast = append(fast, po.fastRun.Seconds()*1e3)
		if last != nil {
			os.RemoveAll(last.out)
		}
		last = po
	}
	b.e2e["peak_heap_mb"] = heap.Stop()
	b.add("peak_heap_mb", "MB", b.e2e["peak_heap_mb"], 1)
	b.latency("paper.reproduction", append([]float64(nil), ops...))
	b.e2e["aux_p50_ms"] = quantile(fast, 0.5)
	b.add("paper.fast_run_s", "s", b.e2e["aux_p50_ms"]/1e3, len(fast))
	b.add("paper.paper_s", "s", b.e2e["op_p50_ms"]/1e3, len(ops))
	sites := float64(2 * last.corpus.TotalSites())
	b.e2e["work_per_s"] = sites / (b.e2e["op_p50_ms"] / 1e3)
	b.add("paper.sites_per_s", "1/s", b.e2e["work_per_s"], len(ops))
	b.attempted, b.failed = int64(len(ops)), 0

	if b.tr.on {
		tot := b.tr.Totals()
		for _, name := range []string{"worldgen.build", "worldgen.next_epoch", "pipeline.measure", "dataset.index",
			"classify.hosting", "classify.dns", "classify.ca", "analysis.suite", "depgraph.build",
			"depgraph.spof", "report.export"} {
			b.layer[name+"_s"] = perOp(tot, name, len(ops))
		}
		if st := tot["paper.fast_run"]; st != nil {
			b.layer["paper.fast_run.self_s"] = st.Self.Seconds() / float64(st.Count)
		}
		b.layer["worldgen.alloc_mb"] = last.worldgenAlloc
		stats := last.graph.Stats()
		b.layer["depgraph.nodes"] = float64(stats.Nodes)
		b.layer["depgraph.edges"] = float64(stats.SiteEdges + stats.ProviderEdges)
	}
	return b.checkPaper(last)
}

// untraced records no spans, for calls outside the traced operations.
var untraced = newTracer(false)

// perOp is a span's total seconds per operation.
func perOp(tot map[string]*spanTotals, name string, ops int) float64 {
	if st := tot[name]; st != nil {
		return st.Total.Seconds() / float64(ops)
	}
	return 0
}

// paperOutput is what one reproduction produced.
type paperOutput struct {
	out           string
	corpus        *dataset.Corpus
	graph         *depgraph.Graph
	spofs         []depgraph.SPOF
	impact        *depgraph.Impact
	classes       map[countries.Layer]*classify.Result
	battery       []any
	longitudinal  *analysis.LongitudinalResult
	fastRun       time.Duration
	worldgenAlloc float64
}

// reproduce runs one whole reproduction into the directory out.
func (b *bench) reproduce(cfg worldgen.Config, out string) (*paperOutput, error) {
	tr := b.tr
	po := &paperOutput{out: out, classes: map[countries.Layer]*classify.Result{}}
	root := tr.Start("paper.reproduction", 0, 0)
	defer tr.End(root)

	var w *worldgen.World
	var err error
	po.fastRun, err = tr.Time("paper.fast_run", root, func(fr int) error {
		w, err = b.fastRun(tr, fr, cfg, po)
		return err
	})
	if err != nil {
		return nil, err
	}

	for _, layer := range []countries.Layer{countries.Hosting, countries.DNS, countries.CA} {
		if _, err := tr.Time("classify."+layer.String(), root, func(int) error {
			po.classes[layer], err = classify.Layer(po.corpus, layer, classify.DefaultOptions())
			return err
		}); err != nil {
			return nil, err
		}
	}
	if _, err := tr.Time("analysis.suite", root, func(int) error {
		po.battery, err = analysisSuite(po.corpus)
		return err
	}); err != nil {
		return nil, err
	}
	var next *worldgen.World
	if _, err := tr.Time("worldgen.next_epoch", root, func(int) error {
		next, err = worldgen.BuildNextEpoch(w, "2025-05")
		return err
	}); err != nil {
		return nil, err
	}
	var corpus2 *dataset.Corpus
	if _, err := tr.Time("pipeline.measure", root, func(int) error {
		p := pipeline.FromWorld(w)
		p.Workers = b.size.Workers
		corpus2, err = p.MeasureWorld(next)
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := tr.Time("analysis.longitudinal", root, func(int) error {
		po.longitudinal, err = analysis.Longitudinal(po.corpus, corpus2)
		return err
	}); err != nil {
		return nil, err
	}
	_, err = tr.Time("report.export", root, func(int) error {
		return exportCorpus(out, corpus2, func(f io.Writer) { report.Longitudinal(f, po.longitudinal) })
	})
	return po, err
}

// analysisSuite is the analysis battery behind the paper's tables and
// figures, as BenchmarkExperimentsSuite runs it against a cold index.
func analysisSuite(corpus *dataset.Corpus) ([]any, error) {
	var out []any
	for _, layer := range countries.Layers {
		hist, global := analysis.ScoreHistogram(corpus, layer, 13)
		out = append(out,
			analysis.SortedScores(corpus, layer),
			analysis.SortedInsularity(corpus, layer),
			analysis.InsularityCDF(corpus, layer),
			hist, global,
			analysis.BySubregion(corpus.Scores(layer)))
	}
	out = append(out,
		corpus.UsageCurves(countries.Hosting),
		analysis.ContinentDependence(corpus, analysis.ByProviderHQ),
		analysis.ContinentDependence(corpus, analysis.ByIPGeolocation),
		analysis.ContinentDependence(corpus, analysis.ByNSGeolocation),
		analysis.CaseStudies(corpus),
		analysis.TLDBreakdowns(corpus))
	tld, err := analysis.StudyTLD(corpus)
	if err != nil {
		return nil, err
	}
	return append(out, tld, analysis.SummarizeLayers(corpus)), nil
}

// exportCorpus writes one CSV per country under dir/<epoch>, as the CLI's
// fast run does, plus a text report rendered by extra.
func exportCorpus(dir string, corpus *dataset.Corpus, extra func(io.Writer)) error {
	outDir := filepath.Join(dir, corpus.Epoch)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, cc := range corpus.Countries() {
		list := corpus.Get(cc)
		if err := checkpoint.WriteFileAtomic(filepath.Join(outDir, cc+".csv"), func(w io.Writer) error {
			return dataset.WriteCSV(w, list)
		}); err != nil {
			return err
		}
	}
	return checkpoint.WriteFileAtomic(filepath.Join(outDir, "report.txt"), func(w io.Writer) error {
		extra(w)
		return nil
	})
}

// checkPaper checks the last reproduction: the cached scores equal a
// row-scan recompute, and Simulate equals the brute-force AuditSimulate
// for the top SPOF. It also digests the outputs.
func (b *bench) checkPaper(po *paperOutput) error {
	if b.corrupt {
		// Moving every site onto one provider changes the score of any
		// list that had more than one.
		list := po.corpus.Get(po.corpus.Countries()[0])
		for i := range list.Sites {
			list.Sites[i].HostProvider = "corrupted-provider"
		}
	}
	b.check("paper.scores_equal_row_scan", scoresMatchRowScan(po.corpus))
	audit, err := po.graph.AuditSimulate(po.corpus, po.spofs[0].Provider)
	if err == nil {
		err = sameJSON(po.impact, audit)
	}
	b.check("paper.simulate_equals_audit", err)

	digest, err := dirDigest(po.out)
	if err != nil {
		return err
	}
	classCounts := map[string]map[classify.Class]int{}
	for layer, res := range po.classes {
		classCounts[layer.String()] = res.Counts()
	}
	// The parts say which output moved when two digests differ.
	b.parts = map[string]string{
		"csv":          digest[:16],
		"spof":         hashJSON(po.spofs, po.impact),
		"classes":      hashJSON(classCounts),
		"battery":      hashJSON(po.battery),
		"longitudinal": hashJSON(po.longitudinal),
	}
	b.digest = hashJSON(digest, po.spofs, po.impact, classCounts, po.battery, po.longitudinal)
	return nil
}

// scoresMatchRowScan recomputes every country's score per layer from its
// site rows and compares it with the corpus's cached scoring index.
func scoresMatchRowScan(c *dataset.Corpus) error {
	for _, layer := range countries.Layers {
		cached := c.Scores(layer)
		for _, cc := range c.Countries() {
			if got, want := cached[cc], c.Get(cc).Distribution(layer).Score(); got != want {
				return fmt.Errorf("%s %v: cached score %v, row scan %v", cc, layer, got, want)
			}
		}
	}
	return nil
}

// sameJSON reports whether two values encode to equal JSON documents.
func sameJSON(got, want any) error {
	var g, w any
	for _, p := range []struct {
		v   any
		dst *any
	}{{got, &g}, {want, &w}} {
		data, err := json.Marshal(p.v)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, p.dst); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("values differ")
	}
	return nil
}

// dirDigest hashes every file under dir, in path order.
func dirDigest(dir string) (string, error) {
	var paths []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, path := range paths {
		rel, _ := filepath.Rel(dir, path)
		fmt.Fprintf(h, "%s\n", rel)
		f, err := os.Open(path)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fastRun is the fast run: from the seed to the measured corpus, its
// scores, the dependency graph's SPOFs and the CSVs exported into po.out,
// recorded into po. It returns the world for the rest of the reproduction.
func (b *bench) fastRun(tr *tracer, parent int, cfg worldgen.Config, po *paperOutput) (*worldgen.World, error) {
	var w *worldgen.World
	var err error
	if _, err := tr.Time("worldgen.build", parent, func(int) error {
		a := allocMB()
		w, err = worldgen.Build(cfg)
		po.worldgenAlloc = allocMB() - a
		return err
	}); err != nil {
		return nil, err
	}
	if _, err := tr.Time("pipeline.measure", parent, func(int) error {
		p := pipeline.FromWorld(w)
		p.Workers = b.size.Workers
		po.corpus, err = p.MeasureWorld(w)
		return err
	}); err != nil {
		return nil, err
	}
	po.corpus.Workers = b.size.Workers
	tr.Time("dataset.index", parent, func(int) error { _ = po.corpus.ScoreSet(); return nil })
	tr.Time("depgraph.build", parent, func(int) error { po.graph = depgraph.FromCorpus(po.corpus); return nil })
	if _, err := tr.Time("depgraph.spof", parent, func(int) error {
		po.spofs = po.graph.TopSPOFs(10)
		if len(po.spofs) == 0 {
			return fmt.Errorf("no single points of failure ranked")
		}
		po.impact, err = po.graph.Simulate(po.spofs[0].Provider)
		return err
	}); err != nil {
		return nil, err
	}
	_, err = tr.Time("report.export", parent, func(int) error {
		return exportCorpus(po.out, po.corpus, func(f io.Writer) {
			report.SPOFTable(f, "single points of failure (top 10)", po.spofs)
			report.ImpactTable(f, "what-if: "+po.spofs[0].Provider+" fails", po.impact)
		})
	})
	return w, err
}
