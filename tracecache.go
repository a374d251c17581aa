package mom

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

// The process-wide trace cache implements the capture-once / replay-many
// methodology of the paper (ATOM instruments the binary once, the trace
// feeds Jinks for every machine configuration). A dynamic trace depends
// only on (workload, ISA, scale) — never on issue width, cache mode or
// memory latency — so the experiment drivers capture each workload once and
// replay the recording across every machine configuration in parallel.
//
// The cache is an optimisation, never a correctness dependency: when a
// capture fails or the cache is full, callers fall back to the live
// interleaved emulate-and-time path, which produces identical results
// (TestTraceReplayEquivalence enforces this).

// TraceCacheBytes bounds the total memory the trace cache may hold.
// Captures that would push the cache past the bound are discarded and the
// affected runs use live emulation instead. It is read when an entry is
// first populated; set it before running experiments.
var TraceCacheBytes int64 = 1 << 30

// TraceStats reports the accumulated activity of the trace layer.
type TraceStats struct {
	Captures     int64         // traces recorded AND retained in the cache
	CaptureTime  time.Duration // wall-clock spent capturing retained traces
	Discarded    int64         // captures abandoned because the byte budget ran out
	Replays      int64         // timing runs fed from a recorded trace (streamed included)
	ReplayTime   time.Duration // wall-clock spent in trace-fed timing runs
	LiveRuns     int64         // timing runs that fell back to live emulation
	LiveBudget   int64         // ...of which: no trace within the RAM byte budget (transient)
	LiveFault    int64         // ...of which: capture failed permanently (build/emulation fault)
	CachedTraces int64         // traces currently held
	CachedBytes  int64         // bytes currently held

	// The disk artifact layer (zero when no artifact store is installed).
	DiskHits      int64 // traces materialised from a local disk artifact
	DiskMisses    int64 // artifact lookups that found nothing usable locally
	DiskWrites    int64 // traces persisted to the local artifact store
	PeerFetches   int64 // traces fetched from a peer's artifact store
	StreamReplays int64 // replays streamed straight from disk (RAM budget full)
}

var traceStats struct {
	captures, captureNS, discarded, replays, replayNS            atomic.Int64
	liveRuns, liveBudget, liveFault                              atomic.Int64
	diskHits, diskMisses, diskWrites, peerFetches, streamReplays atomic.Int64
}

// ReadTraceStats returns a snapshot of the trace-layer counters.
func ReadTraceStats() TraceStats {
	traceCache.mu.Lock()
	var held int64
	for _, e := range traceCache.entries {
		if e.state == capDone {
			held++
		}
	}
	bytes := traceCache.bytes
	traceCache.mu.Unlock()
	return TraceStats{
		Captures:      traceStats.captures.Load(),
		CaptureTime:   time.Duration(traceStats.captureNS.Load()),
		Discarded:     traceStats.discarded.Load(),
		Replays:       traceStats.replays.Load(),
		ReplayTime:    time.Duration(traceStats.replayNS.Load()),
		LiveRuns:      traceStats.liveRuns.Load(),
		LiveBudget:    traceStats.liveBudget.Load(),
		LiveFault:     traceStats.liveFault.Load(),
		CachedTraces:  held,
		CachedBytes:   bytes,
		DiskHits:      traceStats.diskHits.Load(),
		DiskMisses:    traceStats.diskMisses.Load(),
		DiskWrites:    traceStats.diskWrites.Load(),
		PeerFetches:   traceStats.peerFetches.Load(),
		StreamReplays: traceStats.streamReplays.Load(),
	}
}

// liveCause explains why a timing run fell back to live emulation, so
// operators can tell congestion (budget; transient, tunable) from faults
// (permanent) in momsim -v and the /metrics live-runs labels.
type liveCause int8

const (
	liveNone   liveCause = iota
	liveBudget           // no trace within the RAM byte budget right now
	liveFault            // capture failed permanently (build or emulation fault)
)

// countLiveRun records one live-fallback timing run with its cause.
func countLiveRun(cause liveCause) {
	traceStats.liveRuns.Add(1)
	if cause == liveFault {
		traceStats.liveFault.Add(1)
	} else {
		traceStats.liveBudget.Add(1)
	}
}

type traceKey struct {
	app   bool
	name  string
	isa   ISA
	scale Scale
}

// Capture lifecycle of one cache slot. A budget discard returns the slot
// to capEmpty so a later request retries once memory frees; workload
// faults and traces that cannot fit even an otherwise-empty cache are
// capFailed permanently.
const (
	capEmpty int8 = iota // no capture attempted, or the last one was discarded
	capRunning
	capDone
	capFailed
)

type traceEntry struct {
	state int8
	tr    *trace.Trace  // set iff state == capDone
	waitc chan struct{} // closed when the running attempt settles
}

var traceCache = struct {
	mu       sync.Mutex
	entries  map[traceKey]*traceEntry
	bytes    int64 // committed bytes of retained traces
	reserved int64 // in-flight capture reservations (see captureTrace)
}{entries: map[traceKey]*traceEntry{}}

// cachedTrace returns the recorded trace for a workload, filling the slot
// on first use. It returns nil when no trace can be materialised within the
// cache budget (or the workload faults); callers then use the live path.
func cachedTrace(key traceKey) *trace.Trace {
	tr, _ := cachedTraceCause(key)
	return tr
}

// cachedTraceCause is cachedTrace plus the reason a nil came back, so
// fallback paths can try a disk-streamed replay (budget) or count the right
// live-run cause (fault). An empty slot fills from the artifact layer —
// local disk, then the peer fetcher — before falling back to a fresh
// capture, which is written through to disk. A fill discarded for budget
// leaves the slot empty, so a later request retries once memory frees; only
// faults and traces larger than the whole budget fail permanently.
func cachedTraceCause(key traceKey) (*trace.Trace, liveCause) {
	traceCache.mu.Lock()
	e, ok := traceCache.entries[key]
	if !ok {
		e = &traceEntry{}
		traceCache.entries[key] = e
	}
	for {
		switch e.state {
		case capDone:
			tr := e.tr
			traceCache.mu.Unlock()
			return tr, liveNone
		case capFailed:
			traceCache.mu.Unlock()
			return nil, liveFault
		case capRunning:
			w := e.waitc
			traceCache.mu.Unlock()
			<-w
			traceCache.mu.Lock()
			if e.state == capEmpty {
				// The attempt we waited on was discarded for budget. Run
				// live now rather than piling on immediate retries; the
				// next request finds capEmpty and tries again.
				traceCache.mu.Unlock()
				return nil, liveBudget
			}
		case capEmpty:
			e.state = capRunning
			e.waitc = make(chan struct{})
			traceCache.mu.Unlock()
			tr, permanent := acquireTrace(key)
			traceCache.mu.Lock()
			switch {
			case tr != nil:
				e.state, e.tr = capDone, tr
			case permanent:
				e.state = capFailed
			default:
				e.state = capEmpty
			}
			close(e.waitc)
			traceCache.mu.Unlock()
			if tr != nil {
				return tr, liveNone
			}
			if permanent {
				return nil, liveFault
			}
			return nil, liveBudget
		}
	}
}

// acquireTrace fills one empty cache slot: the artifact layer first, then a
// fresh capture, written through to disk on success. A budget-refused
// artifact decode reports neither a trace nor permanence — the slot stays
// retryable and replay streams the artifact from disk in the meantime.
func acquireTrace(key traceKey) (tr *trace.Trace, permanent bool) {
	tr, budgetRefused := loadArtifact(key)
	if tr != nil {
		return tr, false
	}
	if budgetRefused {
		return nil, false
	}
	tr, permanent = captureTrace(key)
	if tr != nil {
		storeArtifact(key, tr)
	}
	return tr, permanent
}

// captureTrace records one workload, drawing memory from the shared cache
// budget in quantum-sized reservations (trace.CaptureGranted) so the sum
// of committed and in-flight capture bytes never exceeds TraceCacheBytes —
// concurrent captures of different keys cannot overshoot the bound the way
// a read-budget-then-capture race could. It reports permanent=true when no
// later attempt can succeed: a build or emulation fault, or a grant that
// would not fit even with every competing reservation released.
func captureTrace(key traceKey) (tr *trace.Trace, permanent bool) {
	p, err := key.program()
	if err != nil {
		return nil, true
	}
	m := emu.New(p)
	var mine int64
	canNeverFit := false
	reserve := func(n int64) bool {
		traceCache.mu.Lock()
		defer traceCache.mu.Unlock()
		if traceCache.bytes+traceCache.reserved+n > TraceCacheBytes {
			// Would the grant fit if every other in-flight capture
			// released its reservation? Committed traces are never
			// evicted, so if not, no later attempt can succeed either.
			canNeverFit = traceCache.bytes+mine+n > TraceCacheBytes
			return false
		}
		traceCache.reserved += n
		mine += n
		return true
	}
	t0 := time.Now()
	tr, granted, err := trace.CaptureGranted(m, maxDynInsts, reserve)
	traceCache.mu.Lock()
	traceCache.reserved -= granted
	if err == nil {
		traceCache.bytes += tr.Bytes()
	}
	traceCache.mu.Unlock()
	if err != nil {
		if errors.Is(err, trace.ErrTooLarge) {
			traceStats.discarded.Add(1)
			return nil, canNeverFit
		}
		return nil, true
	}
	traceStats.captures.Add(1)
	traceStats.captureNS.Add(int64(time.Since(t0)))
	return tr, false
}

// run is the one way a workload is timed: every entry point — RunKernel,
// RunApp, the experiment drivers, the hotspot and pipeline-export runs and
// the resource ablations — comes through here. It simulates cfg over model,
// sampled when sp is enabled and with o (when non-nil) attached to the
// pipeline, taking its source in a fixed order:
//
//  1. the recorded trace from the RAM cache;
//  2. a stream of the disk artifact, when the RAM budget refuses the trace;
//  3. live emulation of key.program().
//
// Each run that gets to time its source counts exactly once: Replays and
// ReplayTime (and StreamReplays for a stream), or LiveRuns with its cause;
// an aborted stream counts nothing. A stream that turns out to be
// corrupt part-way through drops the artifact — the decoder verifies every
// frame before the timing model sees its records, so the run was short,
// never wrong — and the run starts over live on a reset memory model. An
// observed run returns the error instead: its observer has already seen
// part of the stream. The next call runs live.
func run(key traceKey, cfg cpu.Config, model mem.Model, sp SampleSpec, o obs.Observer) (cpu.Result, error) {
	sim := cpu.New(cfg, model)
	sim.Obs = o
	timed := func(src trace.Source) (cpu.Result, error) {
		res, err := sim.RunSampled(src, maxDynInsts, sp.cpu())
		if err != nil {
			err = fmt.Errorf("mom: %s on %s/%d-way: %w", key.name, key.isa, cfg.Width, err)
		}
		return res, err
	}
	tr, cause := cachedTraceCause(key)
	if tr != nil {
		t0 := time.Now()
		res, err := timed(tr.Reader())
		countReplay(t0, false)
		return res, err
	}
	if cause == liveBudget {
		if src, closer, ok := openArtifactStream(key); ok {
			t0 := time.Now()
			res, err := timed(src)
			closer.Close()
			if src.Err() == nil {
				countReplay(t0, true)
				return res, err
			}
			invalidateArtifact(key)
			if o != nil {
				return cpu.Result{}, err
			}
			model.Reset()
		}
	}
	p, err := key.program()
	if err != nil {
		return cpu.Result{}, err
	}
	countLiveRun(cause)
	return timed(trace.NewLive(emu.New(p)))
}

// countReplay records one trace-fed timing run started at t0.
func countReplay(t0 time.Time, streamed bool) {
	traceStats.replays.Add(1)
	traceStats.replayNS.Add(int64(time.Since(t0)))
	if streamed {
		traceStats.streamReplays.Add(1)
	}
}

// runWorkload checks a run on a named machine — issue width, memory model,
// sample spec — and times it through run.
func runWorkload(key traceKey, width int, m MemModel, sp SampleSpec, o obs.Observer) (Result, error) {
	if err := m.CheckWidth(width); err != nil {
		return Result{}, err
	}
	if err := sp.Validate(); err != nil {
		return Result{}, err
	}
	res, err := run(key, cpu.NewConfig(width, key.isa.ext()), m.build(width), sp, o)
	if err != nil {
		return Result{}, err
	}
	return fromCPU(key.name, key.isa, width, m.Name(), res), nil
}

// CaptureWorkloadTrace returns the recorded trace of one workload through
// the process trace cache — RAM first, then the artifact store (and peer
// fetcher, when installed), then a fresh capture written through to disk —
// so tools like momtrace observe the same fill path and TraceStats the
// experiment drivers do. It returns nil when the trace cannot be
// materialised within TraceCacheBytes or the workload cannot be traced.
func CaptureWorkloadTrace(app bool, name string, i ISA, sc Scale) *trace.Trace {
	return cachedTrace(traceKey{app: app, name: name, isa: i, scale: sc})
}

// warmTraces captures the traces for a workload×ISA job list in parallel
// before the replay fan-out, so no replay worker blocks behind a capture
// another configuration also needs. Capture failures are not errors here —
// the affected runs simply fall back to live emulation.
func warmTraces(ctx context.Context, app bool, names []string, isas []ISA, sc Scale) {
	type wk struct {
		name string
		isa  ISA
	}
	var jobs []wk
	for _, n := range names {
		for _, i := range isas {
			jobs = append(jobs, wk{n, i})
		}
	}
	_ = par.For(ctx, len(jobs), func(idx int) error {
		cachedTrace(traceKey{app: app, name: jobs[idx].name, isa: jobs[idx].isa, scale: sc})
		return nil
	})
}
