package mom

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// installArtifactDir opens a trace artifact store over dir and installs it
// process-wide for the duration of the test, restoring the previous store
// (and fetcher) afterwards.
func installArtifactDir(t testing.TB, dir string) *store.Store {
	t.Helper()
	prev := TraceArtifacts()
	prevF := traceFetcher.Load()
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	SetTraceArtifacts(s)
	t.Cleanup(func() {
		SetTraceArtifacts(prev)
		traceFetcher.Store(prevF)
	})
	return s
}

// artifactPath locates the on-disk file of one workload's artifact.
func artifactPath(t *testing.T, dir string, key traceKey) string {
	t.Helper()
	akey := key.artifactKey()
	p := filepath.Join(dir, akey[:2], akey)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("artifact for %v not on disk: %v", key, err)
	}
	return p
}

// TestArtifactWriteThroughAndWarmReload: a fresh capture is written through
// to the artifact store, and after the RAM slot is dropped (a process
// restart, as far as the trace cache can tell) the same workload fills from
// disk with zero recaptures.
func TestArtifactWriteThroughAndWarmReload(t *testing.T) {
	dir := t.TempDir()
	st := installArtifactDir(t, dir)
	key := traceKey{name: "addblock", isa: Alpha, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	base := ReadTraceStats()

	// Cold: the store misses, the capture runs and writes through.
	tr := cachedTrace(key)
	if tr == nil {
		t.Fatal("cold fill returned no trace")
	}
	st1 := ReadTraceStats()
	if c := st1.Captures - base.Captures; c != 1 {
		t.Fatalf("cold fill ran %d captures, want 1", c)
	}
	if d := st1.DiskMisses - base.DiskMisses; d != 1 {
		t.Fatalf("cold fill counted %d disk misses, want 1", d)
	}
	if w := st1.DiskWrites - base.DiskWrites; w != 1 {
		t.Fatalf("cold fill wrote %d artifacts, want 1", w)
	}
	if !st.Has(key.artifactKey()) {
		t.Fatal("capture did not persist an artifact")
	}

	// Warm: drop the RAM slot; the artifact fills it without a capture.
	resetTraceEntry(t, key)
	tr2 := cachedTrace(key)
	if tr2 == nil {
		t.Fatal("warm fill returned no trace")
	}
	st2 := ReadTraceStats()
	if c := st2.Captures - st1.Captures; c != 0 {
		t.Fatalf("warm fill ran %d captures, want 0", c)
	}
	if h := st2.DiskHits - st1.DiskHits; h != 1 {
		t.Fatalf("warm fill counted %d disk hits, want 1", h)
	}
	if tr.Records() != tr2.Records() || tr.Bytes() != tr2.Bytes() {
		t.Fatalf("disk-filled trace shape %d/%d differs from capture %d/%d",
			tr2.Records(), tr2.Bytes(), tr.Records(), tr.Records())
	}
}

// TestArtifactReplayEquivalenceReopenedStore: replaying from an artifact
// store that was closed and reopened (a real restart: fresh Store instance
// over the same directory) is bit-identical to the fresh-capture replay,
// app x ISA.
func TestArtifactReplayEquivalenceReopenedStore(t *testing.T) {
	apps := AppNames()
	if len(apps) == 0 {
		t.Skip("no applications registered")
	}
	app := apps[0]
	dir := t.TempDir()
	for _, i := range []ISA{Alpha, MOM} {
		key := traceKey{app: true, name: app, isa: i, scale: ScaleTest}
		installArtifactDir(t, dir)
		resetTraceEntry(t, key)
		fresh, err := RunApp(app, i, 4, PerfectMemory(1), ScaleTest, SampleSpec{})
		if err != nil {
			t.Fatalf("%s/%s fresh run: %v", app, i, err)
		}
		capBase := ReadTraceStats()

		// Reopen the directory as a brand-new store and drop the RAM slot.
		installArtifactDir(t, dir)
		resetTraceEntry(t, key)
		warm, err := RunApp(app, i, 4, PerfectMemory(1), ScaleTest, SampleSpec{})
		if err != nil {
			t.Fatalf("%s/%s warm run: %v", app, i, err)
		}
		st := ReadTraceStats()
		if c := st.Captures - capBase.Captures; c != 0 {
			t.Fatalf("%s/%s: warm run recaptured (%d captures)", app, i, c)
		}
		if h := st.DiskHits - capBase.DiskHits; h != 1 {
			t.Fatalf("%s/%s: warm run counted %d disk hits, want 1", app, i, h)
		}
		if !reflect.DeepEqual(fresh, warm) {
			t.Errorf("%s/%s: disk replay diverged from fresh capture:\nfresh %+v\nwarm  %+v",
				app, i, fresh, warm)
		}
		resetTraceEntry(t, key)
	}
}

// TestArtifactCorruptionRecaptures: a damaged artifact payload reads as a
// miss — the trace is recaptured and the bad file replaced, never decoded
// into a wrong trace.
func TestArtifactCorruptionRecaptures(t *testing.T) {
	dir := t.TempDir()
	st := installArtifactDir(t, dir)
	key := traceKey{name: "idct", isa: MOM, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	if cachedTrace(key) == nil {
		t.Fatal("cold fill returned no trace")
	}
	p := artifactPath(t, dir, key)
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff // damage the payload, not the store header
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	resetTraceEntry(t, key)
	base := ReadTraceStats()
	if cachedTrace(key) == nil {
		t.Fatal("fill after corruption returned no trace")
	}
	stats := ReadTraceStats()
	if c := stats.Captures - base.Captures; c != 1 {
		t.Fatalf("corrupt artifact recaptured %d times, want 1", c)
	}
	if h := stats.DiskHits - base.DiskHits; h != 0 {
		t.Fatalf("corrupt artifact counted as %d disk hits", h)
	}
	if !st.Has(key.artifactKey()) {
		t.Fatal("recapture did not rewrite the artifact")
	}

	// The rewritten artifact must be wholesome again.
	resetTraceEntry(t, key)
	if cachedTrace(key) == nil {
		t.Fatal("fill from rewritten artifact failed")
	}
	if c := ReadTraceStats().Captures - stats.Captures; c != 0 {
		t.Fatalf("rewritten artifact recaptured (%d captures)", c)
	}
}

// TestArtifactFingerprintMismatchRecaptures: an artifact whose bytes encode
// a different program (here: planted under the wrong content address) fails
// fingerprint verification and reads as a miss, never as the wrong trace.
func TestArtifactFingerprintMismatchRecaptures(t *testing.T) {
	dir := t.TempDir()
	st := installArtifactDir(t, dir)
	donor := traceKey{name: "addblock", isa: Alpha, scale: ScaleTest}
	victim := traceKey{name: "idct", isa: Alpha, scale: ScaleTest}
	resetTraceEntry(t, donor)
	defer resetTraceEntry(t, donor)
	tr := cachedTrace(donor)
	if tr == nil {
		t.Fatal("donor capture failed")
	}
	if err := st.PutFrom(victim.artifactKey(), tr.EncodedSize(), tr); err != nil {
		t.Fatal(err)
	}

	resetTraceEntry(t, victim)
	defer resetTraceEntry(t, victim)
	base := ReadTraceStats()
	got := cachedTrace(victim)
	if got == nil {
		t.Fatal("victim fill returned no trace")
	}
	stats := ReadTraceStats()
	if c := stats.Captures - base.Captures; c != 1 {
		t.Fatalf("mismatched artifact recaptured %d times, want 1", c)
	}
	if h := stats.DiskHits - base.DiskHits; h != 0 {
		t.Fatalf("mismatched artifact counted as %d disk hits", h)
	}
	if got.Records() == tr.Records() && got.Bytes() == tr.Bytes() {
		t.Fatal("victim fill appears to have adopted the donor trace")
	}
}

// TestArtifactKeySeparation: the content address separates workload kind,
// name, ISA, scale and format version — no two distinct workloads share an
// artifact.
func TestArtifactKeySeparation(t *testing.T) {
	keys := map[string]string{
		"kernel": TraceArtifactKey(false, "idct", Alpha, ScaleTest),
		"app":    TraceArtifactKey(true, "idct", Alpha, ScaleTest),
		"name":   TraceArtifactKey(false, "addblock", Alpha, ScaleTest),
		"isa":    TraceArtifactKey(false, "idct", MOM, ScaleTest),
		"scale":  TraceArtifactKey(false, "idct", Alpha, ScaleBench),
	}
	seen := map[string]string{}
	for dim, k := range keys {
		if len(k) != 64 {
			t.Fatalf("%s key %q is not a content address", dim, k)
		}
		if prev, ok := seen[k]; ok {
			t.Fatalf("keys for %s and %s collide", dim, prev)
		}
		seen[k] = dim
	}
}

// TestArtifactConcurrentFill: many goroutines requesting a disk-resident
// trace through an empty RAM slot perform exactly one artifact decode —
// the slot's single-flight covers the disk path like it covers captures.
func TestArtifactConcurrentFill(t *testing.T) {
	dir := t.TempDir()
	installArtifactDir(t, dir)
	key := traceKey{name: "rgb2ycc", isa: MOM, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	if cachedTrace(key) == nil {
		t.Fatal("cold fill returned no trace")
	}
	resetTraceEntry(t, key)
	base := ReadTraceStats()

	const n = 16
	got := make([]*trace.Trace, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = cachedTrace(key)
		}(w)
	}
	wg.Wait()
	for w := 1; w < n; w++ {
		if got[w] != got[0] {
			t.Fatalf("goroutine %d got a different trace instance", w)
		}
	}
	if got[0] == nil {
		t.Fatal("concurrent fill returned no trace")
	}
	stats := ReadTraceStats()
	if c := stats.Captures - base.Captures; c != 0 {
		t.Fatalf("concurrent disk fill ran %d captures", c)
	}
	if h := stats.DiskHits - base.DiskHits; h != 1 {
		t.Fatalf("concurrent disk fill decoded the artifact %d times, want 1", h)
	}
}

// TestArtifactPeerFetcher: when the local artifact store misses, the
// installed fetcher is consulted and a fetched artifact is decoded,
// verified and written through to the local store.
func TestArtifactPeerFetcher(t *testing.T) {
	dir := t.TempDir()
	st := installArtifactDir(t, dir)
	key := traceKey{name: "h2v2upsample", isa: MOM, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	tr := cachedTrace(key)
	if tr == nil {
		t.Fatal("donor capture failed")
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	// Simulate a restart with an empty local store but a peer that has the
	// artifact: the fetcher serves the encoded bytes.
	st.Invalidate(key.artifactKey())
	resetTraceEntry(t, key)
	var asked []string
	SetTraceFetcher(func(k string) (io.ReadCloser, bool) {
		asked = append(asked, k)
		if k != key.artifactKey() {
			return nil, false
		}
		return io.NopCloser(bytes.NewReader(blob)), true
	})
	defer SetTraceFetcher(nil)
	base := ReadTraceStats()

	got := cachedTrace(key)
	if got == nil {
		t.Fatal("fetcher-backed fill returned no trace")
	}
	stats := ReadTraceStats()
	if c := stats.Captures - base.Captures; c != 0 {
		t.Fatalf("fetcher-backed fill ran %d captures, want 0", c)
	}
	if p := stats.PeerFetches - base.PeerFetches; p != 1 {
		t.Fatalf("fill counted %d peer fetches, want 1", p)
	}
	if len(asked) != 1 || asked[0] != key.artifactKey() {
		t.Fatalf("fetcher asked for %v, want exactly the artifact key", asked)
	}
	if got.Records() != tr.Records() || got.Bytes() != tr.Bytes() {
		t.Fatal("fetched trace shape differs from the donor")
	}
	// Write-through: the next restart finds the artifact locally.
	if !st.Has(key.artifactKey()) {
		t.Fatal("fetched artifact was not persisted locally")
	}
	resetTraceEntry(t, key)
	if cachedTrace(key) == nil {
		t.Fatal("fill from the written-through artifact failed")
	}
	if h := ReadTraceStats().DiskHits - stats.DiskHits; h != 1 {
		t.Fatalf("written-through artifact counted %d disk hits, want 1", h)
	}
}

// TestArtifactStreamReplay: a disk artifact that does not fit the RAM
// budget is replayed by streaming straight from the file, bit-identical to
// the materialised replay, with no live fallback.
func TestArtifactStreamReplay(t *testing.T) {
	dir := t.TempDir()
	installArtifactDir(t, dir)
	key := traceKey{name: "motion1", isa: MOM, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	want, err := RunKernel(key.name, key.isa, 4, PerfectMemory(1), ScaleTest, SampleSpec{})
	if err != nil {
		t.Fatalf("warm-up run: %v", err)
	}

	// Starve the RAM budget so the artifact cannot materialise.
	resetTraceEntry(t, key)
	old := TraceCacheBytes
	defer func() { TraceCacheBytes = old }()
	traceCache.mu.Lock()
	TraceCacheBytes = traceCache.bytes + 1
	traceCache.mu.Unlock()
	base := ReadTraceStats()

	got, err := RunKernel(key.name, key.isa, 4, PerfectMemory(1), ScaleTest, SampleSpec{})
	if err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	stats := ReadTraceStats()
	if s := stats.StreamReplays - base.StreamReplays; s != 1 {
		t.Fatalf("run used %d stream replays, want 1", s)
	}
	if l := stats.LiveRuns - base.LiveRuns; l != 0 {
		t.Fatalf("run fell back live %d times, want 0", l)
	}
	if c := stats.Captures - base.Captures; c != 0 {
		t.Fatalf("run recaptured (%d captures)", c)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("streamed replay diverged from materialised replay:\nwant %+v\ngot  %+v", want, got)
	}

	// The RAM slot must still be retryable: restore the budget and the
	// artifact materialises without a recapture.
	traceCache.mu.Lock()
	TraceCacheBytes = old
	traceCache.mu.Unlock()
	if cachedTrace(key) == nil {
		t.Fatal("slot did not recover after the budget freed")
	}
	if c := ReadTraceStats().Captures - stats.Captures; c != 0 {
		t.Fatalf("recovery recaptured (%d captures)", c)
	}
}

// starveTraceBudget shrinks TraceCacheBytes to one byte above what the RAM
// cache already holds, so no further trace — captured or decoded — fits,
// and restores the old budget when the test ends.
func starveTraceBudget(t *testing.T) {
	t.Helper()
	old := TraceCacheBytes
	traceCache.mu.Lock()
	TraceCacheBytes = traceCache.bytes + 1
	traceCache.mu.Unlock()
	t.Cleanup(func() {
		traceCache.mu.Lock()
		TraceCacheBytes = old
		traceCache.mu.Unlock()
	})
}

// TestEntryPointsStream: with the RAM budget starved and the artifacts on
// disk, every timed entry point streams — each of its runs adds one
// StreamReplay and one Replay, none runs live — and returns exactly what it
// returned when replaying from RAM.
func TestEntryPointsStream(t *testing.T) {
	ctx := context.Background()
	kern := traceKey{name: "idct", isa: MOM, scale: ScaleTest}
	app := traceKey{app: true, name: "gsmencode", isa: MOM, scale: ScaleTest}
	var fig7 []traceKey // MOM keys repeat, one per MOM configuration
	for _, a := range AppNames() {
		for _, cfg := range Figure7Configs {
			fig7 = append(fig7, traceKey{app: true, name: a, isa: cfg.ISA, scale: ScaleTest})
		}
	}
	for _, tc := range []struct {
		name string
		keys []traceKey
		runs int64
		call func() (any, error)
	}{
		{"RunKernel", []traceKey{kern}, 1, func() (any, error) {
			return RunKernel(kern.name, kern.isa, 4, PerfectMemory(1), ScaleTest, SampleSpec{})
		}},
		{"RunApp", []traceKey{app}, 1, func() (any, error) {
			return RunApp(app.name, app.isa, 4, DetailedMemory(MultiAddress), ScaleTest, DefaultSampleSpec)
		}},
		{"KernelHotspots", []traceKey{kern}, 1, func() (any, error) {
			return KernelHotspots(kern.name, kern.isa, 4, PerfectMemory(1), ScaleTest)
		}},
		{"ExportKernelPipeline", []traceKey{kern}, 1, func() (any, error) {
			var konata bytes.Buffer
			exp, err := ExportKernelPipeline(kern.name, kern.isa, 4, PerfectMemory(1), ScaleTest,
				PipelineOptions{Count: 500, Konata: &konata})
			return []any{exp, konata.String()}, err
		}},
		{"RegisterSweep", []traceKey{kern}, 5, func() (any, error) {
			return RegisterSweep(ctx, ScaleTest, kern.name)
		}},
		{"MemorySweep", []traceKey{app}, 6, func() (any, error) {
			return MemorySweep(ctx, ScaleTest, app.name)
		}},
		{"Figure7Sampled", fig7, 50, func() (any, error) {
			return Figure7Sampled(ctx, ScaleTest, DefaultSampleSpec)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			installArtifactDir(t, t.TempDir())
			for _, k := range tc.keys {
				resetTraceEntry(t, k)
				defer resetTraceEntry(t, k)
			}
			// Cold: capture, write the artifacts through, replay from RAM.
			want, err := tc.call()
			if err != nil {
				t.Fatalf("RAM replay: %v", err)
			}
			for _, k := range tc.keys {
				resetTraceEntry(t, k)
			}
			starveTraceBudget(t)
			base := ReadTraceStats()
			got, err := tc.call()
			if err != nil {
				t.Fatalf("streamed: %v", err)
			}
			st := ReadTraceStats()
			if s := st.StreamReplays - base.StreamReplays; s != tc.runs {
				t.Errorf("%d stream replays, want %d", s, tc.runs)
			}
			if r := st.Replays - base.Replays; r != tc.runs {
				t.Errorf("%d replays, want %d", r, tc.runs)
			}
			if l := st.LiveRuns - base.LiveRuns; l != 0 {
				t.Errorf("%d live runs, want 0", l)
			}
			if c := st.Captures - base.Captures; c != 0 {
				t.Errorf("%d captures, want 0", c)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("streamed result diverged from RAM replay:\nwant %+v\ngot  %+v", want, got)
			}
		})
	}
}

// TestArtifactStreamCorruptMidway: an artifact whose header verifies but
// whose last frame is damaged is dropped from the store the first time a
// stream reaches the damage, whoever the caller. An unobserved run starts
// over live and returns the RAM replay's result; an observed run — its
// observer has already seen part of the stream — may only fail or return
// that same result, and the next call must return it.
func TestArtifactStreamCorruptMidway(t *testing.T) {
	key := traceKey{app: true, name: "gsmencode", isa: MOM, scale: ScaleTest}
	m := PerfectMemory(1)
	for _, tc := range []struct {
		name     string
		observed bool
		call     func() (any, error)
	}{
		{"RunApp", false, func() (any, error) { return RunApp(key.name, key.isa, 4, m, ScaleTest, SampleSpec{}) }},
		{"AppHotspots", true, func() (any, error) { return AppHotspots(key.name, key.isa, 4, m, ScaleTest) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := installArtifactDir(t, dir)
			resetTraceEntry(t, key)
			defer resetTraceEntry(t, key)
			want, err := tc.call()
			if err != nil {
				t.Fatalf("RAM replay: %v", err)
			}
			p := artifactPath(t, dir, key)
			blob, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(blob)-1] ^= 0xff // the last frame's payload
			if err := os.WriteFile(p, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			resetTraceEntry(t, key)
			starveTraceBudget(t)

			base := ReadTraceStats()
			got, err := tc.call()
			if st.Has(key.artifactKey()) {
				t.Fatal("the corrupt artifact is still in the store")
			}
			switch {
			case err != nil && !tc.observed:
				t.Fatalf("unobserved run over a corrupt stream failed: %v", err)
			case err != nil && !errors.Is(err, trace.ErrFormat):
				t.Fatalf("observed run failed with %v, want the artifact's ErrFormat", err)
			case err == nil && !reflect.DeepEqual(want, got):
				t.Fatalf("run over a corrupt stream diverged from RAM replay:\nwant %+v\ngot  %+v", want, got)
			}
			if err != nil {
				got, err = tc.call()
				if err != nil {
					t.Fatalf("call after the corrupt artifact was dropped: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("call after the drop diverged from RAM replay:\nwant %+v\ngot  %+v", want, got)
				}
			}
			stats := ReadTraceStats()
			if s := stats.StreamReplays - base.StreamReplays; s != 0 {
				t.Errorf("the failed stream counted as %d stream replays", s)
			}
			if l := stats.LiveRuns - base.LiveRuns; l != 1 {
				t.Errorf("%d live runs, want 1", l)
			}
		})
	}
}

// TestLiveCauseSplit: the live-fallback counter attributes budget-starved
// runs to LiveBudget and permanently failed captures to LiveFault.
func TestLiveCauseSplit(t *testing.T) {
	// Fault: poison the slot the way a build/emulation fault would.
	key := traceKey{name: "compensation", isa: Alpha, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	traceCache.mu.Lock()
	traceCache.entries[key] = &traceEntry{state: capFailed}
	traceCache.mu.Unlock()
	base := ReadTraceStats()
	if _, err := RunKernel(key.name, key.isa, 2, PerfectMemory(1), ScaleTest, SampleSpec{}); err != nil {
		t.Fatalf("live run over a failed slot: %v", err)
	}
	st := ReadTraceStats()
	if f := st.LiveFault - base.LiveFault; f != 1 {
		t.Fatalf("fault fallback counted %d LiveFault, want 1", f)
	}
	if b := st.LiveBudget - base.LiveBudget; b != 0 {
		t.Fatalf("fault fallback counted %d LiveBudget, want 0", b)
	}
	if l := st.LiveRuns - base.LiveRuns; l != 1 {
		t.Fatalf("fault fallback counted %d LiveRuns, want 1", l)
	}

	// Budget: a competing reservation holds the whole budget and there is
	// no artifact store, so the discarded capture falls back live.
	key2 := traceKey{name: "compensation", isa: MMX, scale: ScaleTest}
	resetTraceEntry(t, key2)
	defer resetTraceEntry(t, key2)
	traceCache.mu.Lock()
	hold := TraceCacheBytes - traceCache.bytes
	traceCache.reserved += hold
	traceCache.mu.Unlock()
	defer func() {
		traceCache.mu.Lock()
		traceCache.reserved -= hold
		traceCache.mu.Unlock()
	}()
	base = ReadTraceStats()
	if _, err := RunKernel(key2.name, key2.isa, 2, PerfectMemory(1), ScaleTest, SampleSpec{}); err != nil {
		t.Fatalf("live run under budget contention: %v", err)
	}
	st = ReadTraceStats()
	if b := st.LiveBudget - base.LiveBudget; b != 1 {
		t.Fatalf("budget fallback counted %d LiveBudget, want 1", b)
	}
	if f := st.LiveFault - base.LiveFault; f != 0 {
		t.Fatalf("budget fallback counted %d LiveFault, want 0", f)
	}
}
