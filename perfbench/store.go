package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/webdep/webdep/internal/corpusstore"
	"github.com/webdep/webdep/internal/countries"
	"github.com/webdep/webdep/internal/dataset"
	"github.com/webdep/webdep/internal/depgraph"
	"github.com/webdep/webdep/internal/obs"
	"github.com/webdep/webdep/internal/pipeline"
	"github.com/webdep/webdep/internal/worldgen"
)

// runStore is `webdep -from-store -spof` repeated: set-up measures a
// shell world straight into an on-disk corpus store; each timed round
// opens the store, streams its scores, streams the dependency graph out of
// it and ranks the SPOFs. No world is generated in the timed part.
func runStore(b *bench) error {
	cfg := worldgen.Config{Seed: b.seed, SitesPerCountry: b.size.Store.Sites, Countries: b.size.Store.Countries}
	var dir string
	var shell, ingest time.Duration
	cleanup, err := b.setup(func(rep int) (func(), error) {
		dir = filepath.Join(b.work, fmt.Sprintf("store-%d", rep))
		remove := func() { os.RemoveAll(dir) }
		var w *worldgen.World
		var err error
		if shell, err = b.tr.Time("worldgen.shell", 0, func(int) error {
			w, err = worldgen.BuildShell(cfg)
			return err
		}); err != nil {
			return remove, err
		}
		ingest, err = b.tr.Time("pipeline.ingest", 0, func(int) error {
			wr, err := corpusstore.Create(dir, w.Config.Epoch, &corpusstore.Options{Workers: b.size.Workers, Obs: obs.NewRegistry()})
			if err != nil {
				return err
			}
			p := pipeline.FromWorld(w)
			p.Workers = b.size.Workers
			if err := p.MeasureWorldToStore(w, wr); err != nil {
				return err
			}
			return wr.Close()
		})
		return remove, err
	})
	if err != nil {
		return err
	}
	defer cleanup()
	storeBytes, err := dirBytes(dir)
	if err != nil {
		return err
	}

	var rounds, scoreTable, open, score, graph, spof, scoreAlloc, graphAlloc []float64
	var last *storeRound
	heap := startHeapSampler()
	start := time.Now()
	for len(rounds) < max(1, b.size.StoreRounds) || time.Since(start).Seconds() < b.seconds {
		r, err := b.storeRound(dir)
		if err != nil {
			heap.Stop()
			return err
		}
		rounds = append(rounds, ms(r.open+r.score+r.graph+r.spof))
		scoreTable = append(scoreTable, ms(r.open+r.score))
		open, score = append(open, ms(r.open)), append(score, ms(r.score))
		graph, spof = append(graph, ms(r.graph)), append(spof, ms(r.spof))
		scoreAlloc, graphAlloc = append(scoreAlloc, r.scoreAlloc), append(graphAlloc, r.graphAlloc)
		last = r
	}
	b.e2e["peak_heap_mb"] = heap.Stop()
	b.add("peak_heap_mb", "MB", b.e2e["peak_heap_mb"], 1)
	b.latency("store.round", append([]float64(nil), rounds...))
	b.add("store_query_ms", "ms", b.e2e["op_p50_ms"], len(rounds))
	b.e2e["aux_p50_ms"] = quantile(scoreTable, 0.5)
	b.add("store.score_table_ms", "ms", b.e2e["aux_p50_ms"], len(scoreTable))
	b.e2e["work_per_s"] = float64(last.rows) / (b.e2e["op_p50_ms"] / 1e3)
	b.add("store.rows_per_s", "1/s", b.e2e["work_per_s"], len(rounds))
	b.attempted, b.failed = int64(len(rounds)), 0

	if b.tr.on {
		b.layer["worldgen.shell_s"] = shell.Seconds()
		b.layer["pipeline.ingest_s"] = ingest.Seconds()
		b.layer["corpusstore.bytes"] = float64(storeBytes)
		b.layer["corpusstore.open_ms"] = quantile(open, 0.5)
		b.layer["corpusstore.score_ms"] = quantile(score, 0.5)
		b.layer["corpusstore.score_alloc_mb"] = quantile(scoreAlloc, 0.5)
		b.layer["corpusstore.rows_per_s"] = float64(last.rows) / (b.layer["corpusstore.score_ms"] / 1e3)
		b.layer["depgraph.from_store_ms"] = quantile(graph, 0.5)
		b.layer["depgraph.from_store_alloc_mb"] = quantile(graphAlloc, 0.5)
		b.layer["depgraph.spof_ms"] = quantile(spof, 0.5)
		if st := b.tr.Totals()["store.round"]; st != nil {
			b.layer["store.round.self_ms"] = st.Self.Seconds() * 1e3 / float64(st.Count)
		}
	}
	return b.checkStore(cfg, last)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// storeRound is one round's outputs and the time each step took.
type storeRound struct {
	rows                     int64
	scores                   *dataset.ScoreSet
	spofs                    []depgraph.SPOF
	impact                   *depgraph.Impact
	open, score, graph, spof time.Duration
	scoreAlloc, graphAlloc   float64
}

// storeRound opens the store and answers the score table and the SPOF
// ranking from it, streaming every shard.
func (b *bench) storeRound(dir string) (*storeRound, error) {
	tr := b.tr
	r := &storeRound{}
	root := tr.Start("store.round", 0, 0)
	defer tr.End(root)
	opts := &corpusstore.Options{Workers: b.size.Workers, Obs: obs.NewRegistry()}
	var st *corpusstore.Store
	var err error
	if r.open, err = tr.Time("corpusstore.open", root, func(int) error {
		st, err = corpusstore.Open(dir, opts)
		return err
	}); err != nil {
		return nil, err
	}
	r.rows = st.TotalSites()
	if r.score, err = tr.Time("corpusstore.score", root, func(int) error {
		a := allocMB()
		r.scores, err = st.Score()
		r.scoreAlloc = allocMB() - a
		return err
	}); err != nil {
		return nil, err
	}
	var g *depgraph.Graph
	if r.graph, err = tr.Time("depgraph.from_store", root, func(int) error {
		a := allocMB()
		g, err = depgraph.FromStore(st, &depgraph.Options{Workers: b.size.Workers, Obs: opts.Obs})
		r.graphAlloc = allocMB() - a
		return err
	}); err != nil {
		return nil, err
	}
	r.spof, err = tr.Time("depgraph.spof", root, func(int) error {
		r.spofs = g.TopSPOFs(10)
		if len(r.spofs) == 0 {
			return fmt.Errorf("no single points of failure ranked")
		}
		r.impact, err = g.Simulate(r.spofs[0].Provider)
		return err
	})
	return r, err
}

// checkStore checks that the store's streamed scores equal the in-memory
// scoring index of the same seed's world, measured without the store.
func (b *bench) checkStore(cfg worldgen.Config, r *storeRound) error {
	w, err := worldgen.Build(cfg)
	if err != nil {
		return err
	}
	p := pipeline.FromWorld(w)
	p.Workers = b.size.Workers
	mem, err := p.MeasureWorld(w)
	if err != nil {
		return err
	}
	want := mem.ScoreSet()
	got := map[countries.Layer]map[string]float64{}
	for _, layer := range countries.Layers {
		got[layer] = r.scores.Scores(layer)
	}
	if b.corrupt {
		for cc := range got[countries.Hosting] {
			got[countries.Hosting][cc] += 1e-9
			break
		}
	}
	var mismatch error
	for _, layer := range countries.Layers {
		ref := want.Scores(layer)
		if len(ref) != len(got[layer]) {
			mismatch = fmt.Errorf("%v: store scores %d countries, memory %d", layer, len(got[layer]), len(ref))
			break
		}
		for cc, v := range ref {
			if got[layer][cc] != v {
				mismatch = fmt.Errorf("%s %v: store score %v, in-memory %v", cc, layer, got[layer][cc], v)
				break
			}
		}
	}
	b.check("store.score_equals_in_memory", mismatch)
	b.digest = hashJSON(got, r.spofs, r.impact)
	return nil
}
