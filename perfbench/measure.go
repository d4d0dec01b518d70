package main

import (
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// This file holds the benchmark's measuring instruments. Every timing is
// kept as raw samples and every quantile is taken from those samples, so a
// reported percentile is always a value that was actually observed.

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least a q share of the samples at or below it. It never falls
// outside [min, max]. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// heapSampler records the highest live heap after GC while it runs. The
// runtime publishes the live heap as of the last completed mark, so
// polling it every few milliseconds and keeping the maximum sees every
// GC's result without forcing extra collections.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.peak = readMetric("/gc/heap/live:bytes")
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := readMetric("/gc/heap/live:bytes"); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	if v := readMetric("/gc/heap/live:bytes"); v > h.peak {
		h.peak = v
	}
	return float64(h.peak) / (1 << 20)
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// allocMB returns the bytes the process has allocated so far, in MB;
// differences around a call give that call's allocation volume.
func allocMB() float64 { return float64(readMetric("/gc/heap/allocs:bytes")) / (1 << 20) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the id of the enclosing span, or 0 at the root.
type span struct {
	ID, Parent int
	Name       string
	Lane       int
	Start, End time.Duration
}

// tracer keeps spans in memory while tracing is on. When it is off, Start
// and End only read the clock, so the untraced run pays no recording
// cost. Spans are written out once, at the end, as Chrome trace events.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// Start opens a span and returns its id (0 when tracing is off).
func (t *tracer) Start(name string, parent, lane int) int {
	if !t.on {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Lane: lane, Start: now})
	return len(t.spans)
}

// End closes the span with the given id.
func (t *tracer) End(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Time runs fn inside a span and returns its wall time, traced or not.
func (t *tracer) Time(name string, parent int, fn func(id int) error) (time.Duration, error) {
	start := time.Now()
	id := t.Start(name, parent, 0)
	err := fn(id)
	t.End(id)
	return time.Since(start), err
}

// spanTotals is one span name's aggregate: how many spans, their summed
// duration, and their summed self time.
type spanTotals struct {
	Count       int
	Total, Self time.Duration
}

// Totals aggregates the spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; children that
// overlap one another (concurrent dispatches) are counted once.
func (t *tracer) Totals() map[string]*spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*spanTotals{}
	for _, s := range t.spans {
		agg := out[s.Name]
		if agg == nil {
			agg = &spanTotals{}
			out[s.Name] = agg
		}
		d := s.End - s.Start
		agg.Count++
		agg.Total += d
		agg.Self += d - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns how much of [from, to] the union of the spans covers.
func covered(spans []span, from, to time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum time.Duration
	cur := from
	for _, s := range spans {
		lo, hi := max(s.Start, cur), min(s.End, to)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// WriteChrome writes the spans as Chrome trace-event JSON, which
// chrome://tracing and Perfetto open directly.
func (t *tracer) WriteChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
