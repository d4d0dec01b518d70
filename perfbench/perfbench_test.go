package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// toySizes runs every workload in seconds.
var toySizes = sizes{
	SetupReps:   2,
	Workers:     2,
	Conns:       2,
	Paper:       scale{Countries: []string{"TH", "CZ", "US"}, Sites: 80},
	FastRuns:    2,
	Store:       scale{Countries: []string{"TH", "CZ", "US"}, Sites: 80},
	Serve:       scale{Countries: []string{"TH", "CZ", "US"}, Sites: 60},
	ServeWorlds: 2,
	ServeRate:   400,
	ReloadEvery: 300 * time.Millisecond,
	Burst:       500 * time.Millisecond,
	Crawl:       scale{Countries: []string{"TH", "CZ"}, Sites: 15},
	StoreRounds: 2,
	Crawls:      2,
	Probes:      5,
}

const toySeconds = 1

// mayReadZero are the per-layer metrics that count events a fault-free
// run need not have.
var mayReadZero = map[string]bool{
	"webdepd.coalesced":     true,
	"serve.failed_frac":     true,
	"fedtransport.refusals": true,
	"resilience.retries":    true,
	"fedcrawl.redispatches": true,
	"crawl.failed_frac":     true,
}

// passed reports whether a run's checks passed. Under the race detector
// the serve generator cannot keep its schedule, so that one check is
// allowed to fail there: the run measured the instrumentation.
func passed(res *result, out string) bool {
	if res.Correct {
		return true
	}
	if !raceEnabled {
		return false
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# check ") && strings.Contains(line, "FAILED") &&
			!strings.HasPrefix(line, "# check serve.generator_on_schedule ") {
			return false
		}
	}
	return true
}

// runToy runs one workload at toy size through the same path as the
// command, and decodes the result line.
func runToy(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	root := t.TempDir()
	var out bytes.Buffer
	res, err := execute(workload, 3, toySeconds, toySizes, root, trace, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	return &back, out.String()
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced and
// requires every end-to-end and every per-layer metric, correct outputs,
// positive end-to-end values, and equal digests with tracing on and off.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, out := runToy(t, name, false)
			if !passed(res, out) || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}

			traced, out := runToy(t, name, true)
			if !passed(traced, out) {
				t.Fatalf("traced run failed its checks\n%s", out)
			}
			for _, m := range perLayer {
				v, ok := traced.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("per-layer %s missing or in the wrong unit: %+v", m.Name, v)
				}
				if m.Workload == name && !mayReadZero[m.Name] && v.Value <= 0 {
					t.Errorf("per-layer %s = %v on its own workload, want it measured", m.Name, v.Value)
				}
			}
			var untraced, tracedDigest string
			for _, line := range strings.Split(out, "\n") {
				if rest, ok := strings.CutPrefix(line, "# digest untraced "); ok {
					untraced, tracedDigest, _ = strings.Cut(rest, " traced ")
				}
			}
			if untraced == "" || untraced != tracedDigest {
				t.Errorf("digests differ with tracing on and off: %q vs %q", untraced, tracedDigest)
			}
		})
	}
}

// TestBenchmarkSpecMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics the command reports.
func TestBenchmarkSpecMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not run by the command", w.Name)
		}
	}
	var e2e, layer []metric
	for _, m := range endToEnd {
		e2e = append(e2e, metric{m.Name, m.Unit})
	}
	for _, m := range perLayer {
		layer = append(layer, metric{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the command reports %v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layer) {
		t.Errorf("BENCHMARK.json per_layer = %v, the command reports %v", spec.PerLayer, layer)
	}
}

// TestCorruptedOutputFailsItsCheck damages each workload's output before
// its checks run, and requires the run to come out incorrect.
func TestCorruptedOutputFailsItsCheck(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			b := newBench(name, 3, toySeconds, toySizes, t.TempDir(), false)
			b.corrupt = true
			if err := workloads[name](b); err != nil {
				t.Fatal(err)
			}
			if b.correct() {
				t.Fatalf("a corrupted %s output passed every check: %+v", name, b.checks)
			}
		})
	}
}

// TestMixSharesEndpointsEqually checks the serve mix's rule: each
// endpoint gets an equal share of the requests, spread evenly over its
// keys.
func TestMixSharesEndpointsEqually(t *testing.T) {
	s := &serveState{}
	s.buildMix(1, []string{"Amazon", "Cloudflare", "Google"}, []string{"TH", "CZ"})
	perEndpoint := make([]int, len(serveEndpoints))
	perKey := make([]int, len(s.keys))
	rng := rand.New(rand.NewSource(1))
	const draws = 140000
	for i := 0; i < draws; i++ {
		k := s.draw(rng)
		perEndpoint[s.keys[k].endpoint]++
		perKey[k]++
	}
	for ep, n := range perEndpoint {
		if want := draws / len(serveEndpoints); math.Abs(float64(n-want)) > 0.05*float64(want) {
			t.Errorf("%s drew %d requests, want about %d", serveEndpoints[ep], n, want)
		}
		keys := s.mix[ep]
		for _, k := range keys {
			if want := draws / len(serveEndpoints) / len(keys); math.Abs(float64(perKey[k]-want)) > 0.15*float64(want) {
				t.Errorf("%s drew %d requests, want about %d", s.keys[k].path, perKey[k], want)
			}
		}
	}
}
