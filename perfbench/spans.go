package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	mom "repro"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced child's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced runs call it.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write saves the spans of a traced run with the host record under
// .bench_build/spans.
func (t *tracer) write(o options) error {
	dir := filepath.Join(workDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc, err := json.Marshal(map[string]any{"host": hostRecord(o), "spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), doc, 0o644)
}

// counterSnap is the state of the process counters a traced pass reads
// before and after itself.
type counterSnap struct {
	wall  time.Time
	cpu   time.Duration // user + system time of the whole process
	stats mom.TraceStats
	rt    []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// snapCounters reads the counters at a pass boundary. The runtime
// refreshes its CPU-class estimates only when a collection ends, so each
// snapshot forces one first: the window runs from a collection just
// before the pass to one just after it, which charges the pass with
// collecting its own garbage.
func snapCounters() counterSnap {
	runtime.GC()
	s := counterSnap{wall: time.Now(), stats: mom.ReadTraceStats()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.rt = make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s.rt[i].Name = name
	}
	metrics.Read(s.rt)
	return s
}

// since reduces two snapshots around one pass to the pass's counters.
func (s counterSnap) since(b counterSnap) map[string]float64 {
	wall := s.wall.Sub(b.wall).Seconds()
	f := func(i int) float64 {
		if s.rt[i].Value.Kind() == metrics.KindUint64 {
			return float64(s.rt[i].Value.Uint64() - b.rt[i].Value.Uint64())
		}
		return s.rt[i].Value.Float64() - b.rt[i].Value.Float64()
	}
	out := map[string]float64{
		"mom.captures":              float64(s.stats.Captures - b.stats.Captures),
		"mom.replays":               float64(s.stats.Replays - b.stats.Replays),
		"mom.live_runs":             float64(s.stats.LiveRuns - b.stats.LiveRuns),
		"mom.disk_hits":             float64(s.stats.DiskHits - b.stats.DiskHits),
		"mom.disk_writes":           float64(s.stats.DiskWrites - b.stats.DiskWrites),
		"par.cpu_util":              (s.cpu - b.cpu).Seconds() / (wall * float64(runtime.GOMAXPROCS(0))),
		"runtime.alloc_mb_per_pass": f(0) / 1e6,
		"runtime.gc_cpu_frac":       0,
	}
	if total := f(2); total > 0 {
		out["runtime.gc_cpu_frac"] = f(1) / total
	}
	return out
}
