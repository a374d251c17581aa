package mom

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/trace"
)

// equivConfigs are the machine configurations the equivalence tests cover:
// a narrow and a wide machine under the idealised memory, and both widths
// the detailed hierarchy supports (Table 3 only defines 4- and 8-way ports).
var equivConfigs = []struct {
	width int
	model MemModel
}{
	{1, PerfectMemory(1)},
	{8, PerfectMemory(1)},
	{4, DetailedMemory(MultiAddress)},
	{8, DetailedMemory(MultiAddress)},
}

// liveResult times a workload on the live interleaved emulate-and-time
// path, outside the trace cache: the reference the replay side of the
// equivalence tests is checked against.
func liveResult(key traceKey, width int, m MemModel) (Result, error) {
	p, err := key.program()
	if err != nil {
		return Result{}, err
	}
	sim := cpu.New(cpu.NewConfig(width, key.isa.ext()), m.build(width))
	res, err := sim.Run(trace.NewLive(emu.New(p)), maxDynInsts)
	if err != nil {
		return Result{}, err
	}
	return fromCPU(key.name, key.isa, width, m.Name(), res), nil
}

// TestTraceReplayEquivalence is the contract of the capture/replay engine:
// timing a workload from its recorded trace must produce a Result
// field-for-field identical to the live interleaved emulate-and-time path,
// for every kernel on every ISA, at a narrow and a wide machine, under both
// the idealised and the detailed memory system.
func TestTraceReplayEquivalence(t *testing.T) {
	for _, k := range KernelNames() {
		for _, i := range AllISAs {
			k, i := k, i
			t.Run(fmt.Sprintf("%s/%s", k, i), func(t *testing.T) {
				t.Parallel()
				for _, c := range equivConfigs {
					key := traceKey{name: k, isa: i, scale: ScaleTest}
					live, err := liveResult(key, c.width, c.model)
					if err != nil {
						t.Fatalf("live %d-way %s: %v", c.width, c.model.Name(), err)
					}
					if cachedTrace(key) == nil {
						t.Fatalf("no trace captured for %s/%s", k, i)
					}
					replay, err := runWorkload(key, c.width, c.model, SampleSpec{}, nil)
					if err != nil {
						t.Fatalf("replay %d-way %s: %v", c.width, c.model.Name(), err)
					}
					if !reflect.DeepEqual(live, replay) {
						t.Errorf("%d-way %s: replay diverges from live\nlive:   %+v\nreplay: %+v",
							c.width, c.model.Name(), live, replay)
					}
					// The cycle-attribution profile must be deterministic
					// too: DeepEqual above covers it, but diverging buckets
					// deserve their own message, and both sides must satisfy
					// the accounting identities.
					if live.Profile != replay.Profile {
						t.Errorf("%d-way %s: profile diverges\nlive:   %+v\nreplay: %+v",
							c.width, c.model.Name(), live.Profile, replay.Profile)
					}
					if err := live.CheckInvariants(); err != nil {
						t.Errorf("live invariants: %v", err)
					}
					if err := replay.CheckInvariants(); err != nil {
						t.Errorf("replay invariants: %v", err)
					}
				}
			})
		}
	}
}

// digestObserver folds every event into a running FNV-1a hash, so two runs
// can be compared event-for-event without retaining millions of events.
type digestObserver struct {
	n   uint64
	sum uint64
}

func (d *digestObserver) Observe(ev *obs.Event) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %v %d %d %d %d %d %d %d %d %d %v",
		ev.Seq, ev.PC, ev.Class, ev.VL, ev.Taken,
		ev.Fetch, ev.Dispatch, ev.Issue, ev.Complete, ev.Commit,
		ev.Committed, ev.Bucket, ev.ExecGap, ev.StoreGap, ev.Mem)
	d.n++
	d.sum = d.sum*31 + h.Sum64()
}

// TestTraceReplayEventEquivalence extends the replay contract to the
// observability layer: the obs.Event stream a timing run publishes must be
// identical whether the run is fed by the live emulator or by the recorded
// trace — every kernel, every ISA, a perfect and a detailed machine. The
// streams are compared through an order-sensitive digest; one configuration
// is additionally compared event-for-event.
func TestTraceReplayEventEquivalence(t *testing.T) {
	runDigest := func(k string, i ISA, width int, m MemModel, src trace.Source) (digestObserver, error) {
		var d digestObserver
		sim := cpu.New(cpu.NewConfig(width, i.ext()), m.build(width))
		sim.Obs = &d
		_, err := sim.Run(src, maxDynInsts)
		return d, err
	}
	liveSource := func(k string, i ISA) trace.Source {
		kk, err := kernels.ByName(k, kernels.Scale(ScaleTest))
		if err != nil {
			t.Fatal(err)
		}
		return trace.NewLive(emu.New(kk.Build(i.ext())))
	}
	for _, k := range KernelNames() {
		for _, i := range AllISAs {
			k, i := k, i
			t.Run(fmt.Sprintf("%s/%s", k, i), func(t *testing.T) {
				t.Parallel()
				tr := cachedTrace(traceKey{name: k, isa: i, scale: ScaleTest})
				if tr == nil {
					t.Fatalf("no trace captured for %s/%s", k, i)
				}
				for _, c := range []struct {
					width int
					model MemModel
				}{{4, PerfectMemory(1)}, {4, DetailedMemory(MultiAddress)}} {
					live, err := runDigest(k, i, c.width, c.model, liveSource(k, i))
					if err != nil {
						t.Fatalf("live %s: %v", c.model.Name(), err)
					}
					replay, err := runDigest(k, i, c.width, c.model, tr.Reader())
					if err != nil {
						t.Fatalf("replay %s: %v", c.model.Name(), err)
					}
					if live != replay {
						t.Errorf("%s: event streams diverge (live %d events digest %x, replay %d events digest %x)",
							c.model.Name(), live.n, live.sum, replay.n, replay.sum)
					}
				}
			})
		}
	}

	// One configuration compared event-for-event, so a digest bug cannot
	// mask a divergence silently.
	tr := cachedTrace(traceKey{name: "idct", isa: MOM, scale: ScaleTest})
	if tr == nil {
		t.Fatal("no trace captured for idct/MOM")
	}
	record := func(src trace.Source) []obs.Event {
		rec := &obs.Recorder{}
		sim := cpu.New(cpu.NewConfig(4, MOM.ext()), DetailedMemory(MultiAddress).build(4))
		sim.Obs = rec
		if _, err := sim.Run(src, maxDynInsts); err != nil {
			t.Fatal(err)
		}
		return rec.Events
	}
	live := record(liveSource("idct", MOM))
	replay := record(tr.Reader())
	if !reflect.DeepEqual(live, replay) {
		for n := range live {
			if n < len(replay) && live[n] != replay[n] {
				t.Fatalf("event %d diverges\nlive:   %+v\nreplay: %+v", n, live[n], replay[n])
			}
		}
		t.Fatalf("event streams differ in length: live %d, replay %d", len(live), len(replay))
	}
}

// TestTraceReplayEquivalenceApps spot-checks the application path: one app
// per ISA, same two widths and memory systems.
func TestTraceReplayEquivalenceApps(t *testing.T) {
	apps := AppNames()
	for n, i := range AllISAs {
		a, i := apps[n%len(apps)], i
		t.Run(fmt.Sprintf("%s/%s", a, i), func(t *testing.T) {
			t.Parallel()
			for _, c := range equivConfigs {
				key := traceKey{app: true, name: a, isa: i, scale: ScaleTest}
				live, err := liveResult(key, c.width, c.model)
				if err != nil {
					t.Fatalf("live %d-way %s: %v", c.width, c.model.Name(), err)
				}
				if cachedTrace(key) == nil {
					t.Fatalf("no trace captured for %s/%s", a, i)
				}
				replay, err := runWorkload(key, c.width, c.model, SampleSpec{}, nil)
				if err != nil {
					t.Fatalf("replay %d-way %s: %v", c.width, c.model.Name(), err)
				}
				if !reflect.DeepEqual(live, replay) {
					t.Errorf("%d-way %s: replay diverges from live\nlive:   %+v\nreplay: %+v",
						c.width, c.model.Name(), live, replay)
				}
				if live.Profile != replay.Profile {
					t.Errorf("%d-way %s: profile diverges\nlive:   %+v\nreplay: %+v",
						c.width, c.model.Name(), live.Profile, replay.Profile)
				}
				if err := live.CheckInvariants(); err != nil {
					t.Errorf("live invariants: %v", err)
				}
			}
		})
	}
}
