// Command perfbench is webdep's benchmark. It drives one workload per run
// by calling each layer's public functions, times those calls from
// outside, checks that the outputs are correct, and prints every metric
// by name. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// workload runs twice, untraced and then traced, and the metrics are the
// per-layer ones plus the tracing overhead. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// endToEnd names the metrics every workload reports with tracing off. Each
// is defined on every workload; README.md gives the per-workload meaning.
var endToEnd = []struct{ Name, Unit string }{
	{"setup_s", "s"},
	{"peak_heap_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"aux_p50_ms", "ms"},
	{"work_per_s", "1/s"},
}

// layerMetric is one per-layer metric: the workload that exercises it and
// the end-to-end metric it should move.
type layerMetric struct {
	Name, Unit, Workload, Moves string
}

// perLayer lists every per-layer metric. A traced run reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []layerMetric{
	{"worldgen.build_s", "s", "paper", "op_p50_ms aux_p50_ms"},
	{"worldgen.next_epoch_s", "s", "paper", "op_p50_ms"},
	{"worldgen.alloc_mb", "MB", "paper", "op_p50_ms aux_p50_ms"},
	{"pipeline.measure_s", "s", "paper", "aux_p50_ms"},
	{"dataset.index_s", "s", "paper", "aux_p50_ms"},
	{"classify.hosting_s", "s", "paper", "op_p50_ms"},
	{"classify.dns_s", "s", "paper", "op_p50_ms"},
	{"classify.ca_s", "s", "paper", "op_p50_ms"},
	{"analysis.suite_s", "s", "paper", "op_p50_ms"},
	{"depgraph.build_s", "s", "paper", "aux_p50_ms"},
	{"depgraph.spof_s", "s", "paper", "aux_p50_ms"},
	{"report.export_s", "s", "paper", "aux_p50_ms"},
	{"depgraph.nodes", "count", "paper", "op_p50_ms"},
	{"depgraph.edges", "count", "paper", "op_p50_ms"},
	{"paper.fast_run.self_s", "s", "paper", "aux_p50_ms"},

	{"worldgen.shell_s", "s", "store", "setup_s"},
	{"pipeline.ingest_s", "s", "store", "setup_s"},
	{"corpusstore.bytes", "count", "store", "setup_s"},
	{"corpusstore.open_ms", "ms", "store", "op_p50_ms aux_p50_ms"},
	{"corpusstore.score_ms", "ms", "store", "op_p50_ms aux_p50_ms"},
	{"corpusstore.score_alloc_mb", "MB", "store", "op_p50_ms peak_heap_mb"},
	{"corpusstore.rows_per_s", "1/s", "store", "work_per_s"},
	{"depgraph.from_store_ms", "ms", "store", "op_p50_ms"},
	{"depgraph.from_store_alloc_mb", "MB", "store", "op_p50_ms peak_heap_mb"},
	{"depgraph.spof_ms", "ms", "store", "op_p50_ms"},
	{"store.round.self_ms", "ms", "store", "op_p50_ms"},

	{"webdepd.hit_ratio", "ratio", "serve", "op_p50_ms"},
	{"webdepd.coalesced", "count", "serve", "op_p50_ms"},
	{"webdepd.scores.p50_ms", "ms", "serve", "op_p50_ms"},
	{"webdepd.rankcurve.p50_ms", "ms", "serve", "op_p50_ms"},
	{"webdepd.coverage.p50_ms", "ms", "serve", "op_p50_ms"},
	{"webdepd.classes.p50_ms", "ms", "serve", "op_p50_ms"},
	{"webdepd.spof.p50_ms", "ms", "serve", "op_p50_ms"},
	{"webdepd.whatif.p50_ms", "ms", "serve", "op_p50_ms"},
	{"webdepd.epoch.p50_ms", "ms", "serve", "op_p50_ms"},
	{"webdepd.cold.classes_ms", "ms", "serve", "op_tail_ms"},
	{"webdepd.cold.spof_ms", "ms", "serve", "op_tail_ms"},
	{"webdepd.cold.whatif_ms", "ms", "serve", "op_tail_ms"},
	{"corpusstore.load_s", "s", "serve", "aux_p50_ms"},
	{"dataset.snapshot_s", "s", "serve", "aux_p50_ms"},
	{"loadgen.sent", "count", "serve", "op_p50_ms"},
	{"loadgen.late_p99_ms", "ms", "serve", "op_tail_ms"},
	{"serve.query_p99_ms", "ms", "serve", "op_tail_ms"},
	{"serve.failed_frac", "ratio", "serve", "work_per_s"},

	{"liveworld.serve_s", "s", "crawl", "setup_s"},
	{"fedtransport.dispatch_ms", "ms", "crawl", "work_per_s op_p50_ms"},
	{"fedtransport.artifact_mb", "MB", "crawl", "work_per_s"},
	{"fedtransport.refusals", "count", "crawl", "work_per_s"},
	{"resilience.retries", "count", "crawl", "work_per_s"},
	{"fedcrawl.waves", "count", "crawl", "op_p50_ms"},
	{"fedcrawl.dispatches", "count", "crawl", "op_p50_ms"},
	{"fedcrawl.redispatches", "count", "crawl", "op_p50_ms"},
	{"fedcrawl.useful_ratio", "ratio", "crawl", "work_per_s"},
	{"fedcrawl.merge_s", "s", "crawl", "aux_p50_ms"},
	{"checkpoint.journal_mb", "MB", "crawl", "work_per_s"},
	{"resolver.lookup_us", "us", "crawl", "work_per_s"},
	{"tlsscan.scan_us", "us", "crawl", "work_per_s"},
	{"crawl.failed_frac", "ratio", "crawl", "work_per_s"},
	{"crawl.run.self_s", "s", "crawl", "op_p50_ms"},

	{"trace.overhead_pct", "%", "all", "every end-to-end metric"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"paper": runPaper,
	"store": runStore,
	"serve": runServe,
	"crawl": runCrawl,
}

// bench is one run of one workload: its inputs, its scratch directory and
// everything it measured.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	size     sizes
	work     string // scratch directory, removed when the run ends
	tr       *tracer
	// corrupt damages the workload's output before the correctness checks
	// run; the self-tests use it to prove each check can fail.
	corrupt bool

	table     []row              // every metric by name, for people
	e2e       map[string]float64 // end-to-end metrics
	layer     map[string]float64 // per-layer metrics (traced runs)
	checks    []check
	attempted int64
	failed    int64
	digest    string
	parts     map[string]string // digests of the output's parts, where given
}

// row is one line of the printed metric table.
type row struct {
	Name  string
	Value float64
	Unit  string
	N     int
}

// check is one correctness check's outcome.
type check struct {
	Name string
	Err  error
}

func newBench(workload string, seed int64, seconds float64, size sizes, work string, trace bool) *bench {
	return &bench{
		workload: workload, seed: seed, seconds: seconds, size: size, work: work,
		tr: newTracer(trace), e2e: map[string]float64{}, layer: map[string]float64{},
	}
}

// add records a metric for the printed table.
func (b *bench) add(name, unit string, v float64, n int) {
	b.table = append(b.table, row{name, v, unit, n})
}

// check records a correctness check; a non-nil error fails the run.
func (b *bench) check(name string, err error) {
	b.checks = append(b.checks, check{name, err})
}

// correct reports whether every check passed.
func (b *bench) correct() bool {
	for _, c := range b.checks {
		if c.Err != nil {
			return false
		}
	}
	return len(b.checks) > 0
}

// setupBudget is how long a cheap set-up keeps repeating past SetupReps,
// so that its median rests on enough samples to be steady.
const setupBudget = 3 * time.Second

// setup runs build at least SetupReps times, and a cheap one until it has
// taken setupBudget in all (at most 25 times), so set-up time is a median
// rather than one sample. It keeps the state of the last repetition:
// every earlier one is torn down with the cleanup it returned. It records
// setup_s.
func (b *bench) setup(build func(rep int) (cleanup func(), err error)) (func(), error) {
	var times []float64
	var cleanup func()
	var spent time.Duration
	for rep := 0; rep < b.size.SetupReps || (spent < setupBudget && rep < 25); rep++ {
		if cleanup != nil {
			cleanup()
		}
		start := time.Now()
		c, err := build(rep)
		spent += time.Since(start)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			if c != nil {
				c()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		cleanup = c
	}
	b.e2e["setup_s"] = quantile(times, 0.5)
	b.add("setup_s", "s", b.e2e["setup_s"], len(times))
	return cleanup, nil
}

// latency fills op_p50_ms from raw operation latencies. Fewer than forty
// operations fit in one run of the paper, store and crawl workloads, too
// few to resolve a tail, so their op_tail_ms is the same median; the serve
// workload sets its own tail.
func (b *bench) latency(name string, ms []float64) {
	b.e2e["op_p50_ms"] = quantile(ms, 0.5)
	b.e2e["op_tail_ms"] = b.e2e["op_p50_ms"]
	b.add(name+".p50_ms", "ms", b.e2e["op_p50_ms"], len(ms))
}

// hashJSON folds values into the run's output digest.
func hashJSON(vals ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			fmt.Fprintf(h, "unencodable: %v", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runOnce runs one workload in its own scratch directory.
func runOnce(workload string, seed int64, seconds float64, size sizes, root string, trace bool) (*bench, error) {
	run, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := newBench(workload, seed, seconds, size, work, trace)
	if err := run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	for _, m := range endToEnd {
		if v, ok := b.e2e[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured (%v)", workload, m.Name, v)
		}
	}
	for name, v := range b.layer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: per-layer metric %s was not measured (%v)", workload, name, v)
		}
	}
	return b, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs the workload as the command line asks and assembles the
// result. With trace on, the workload runs untraced first and traced
// second; the difference of the two is the tracing overhead.
func execute(workload string, seed int64, seconds float64, size sizes, root string, trace bool, out io.Writer) (*result, error) {
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# env %s\n", stamp(workload, seed, seconds, size))
	b, err := runOnce(workload, seed, seconds, size, root, false)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: b.correct(), Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	if !trace {
		printRun(out, b)
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{b.e2e[m.Name], m.Unit}
		}
		return res, nil
	}
	t, err := runOnce(workload, seed, seconds, size, root, true)
	if err != nil {
		return nil, err
	}
	printRun(out, t)
	fmt.Fprintf(out, "# digest untraced %s traced %s\n", b.digest, t.digest)
	for name, part := range t.parts {
		if b.parts[name] != part {
			fmt.Fprintf(out, "# digest-part %s differs between the untraced and traced runs\n", name)
		}
	}
	t.layer["trace.overhead_pct"] = (t.e2e["op_p50_ms"]/b.e2e["op_p50_ms"] - 1) * 100
	for _, m := range perLayer {
		if m.Workload == workload || m.Workload == "all" {
			fmt.Fprintf(out, "# layer %-30s %16.6g %-6s moves %s\n", m.Name, t.layer[m.Name], m.Unit, m.Moves)
		}
	}
	totals := t.tr.Totals()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := totals[name]
		fmt.Fprintf(out, "# span %-28s n=%-6d total=%10.4fs self=%10.4fs\n", name, st.Count, st.Total.Seconds(), st.Self.Seconds())
	}
	path := filepath.Join(root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := t.tr.WriteChrome(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# trace written to %s\n", path)
	res = &result{Correct: b.correct() && t.correct(), Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{t.layer[m.Name], m.Unit}
	}
	return res, nil
}

// printRun prints the run's metric table, checks and digest.
func printRun(out io.Writer, b *bench) {
	sorted := append([]row(nil), b.table...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	fmt.Fprintf(out, "# %-34s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, r := range sorted {
		fmt.Fprintf(out, "# %-34s %16.6g %-6s %d\n", r.Name, r.Value, r.Unit, r.N)
	}
	for _, c := range b.checks {
		status := "ok"
		if c.Err != nil {
			status = "FAILED: " + c.Err.Error()
		}
		fmt.Fprintf(out, "# check %-40s %s\n", c.Name, status)
	}
	fmt.Fprintf(out, "# digest %s (attempted %d, failed %d)\n", b.digest, b.attempted, b.failed)
	names := make([]string, 0, len(b.parts))
	for name := range b.parts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "# digest-part %s %s\n", name, b.parts[name])
	}
}

// stamp describes the machine, toolchain, code and inputs of a run.
func stamp(workload string, seed int64, seconds float64, size sizes) string {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	data, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "seconds": seconds, "sizes": size.of(workload),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "cpu": cpuModel(),
		"go": runtime.Version(), "commit": commit,
	})
	return string(data)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func main() {
	workload := flag.String("workload", "", "workload to run: paper, store, serve or crawl")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the timed part runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := execute(*workload, *seed, *seconds, fullSizes, root, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
