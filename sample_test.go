package mom

// Tests for the sampled-simulation mode at the driver level: the accuracy
// bound of the default regime over every application × ISA, the exactness
// of a disabled spec, and the Sampled block's internal accounting.

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// sampledIPCTolerance is the tested accuracy bound of DefaultSampleSpec on
// the test-scale applications: the sampled whole-run IPC estimate must land
// within 10% of the exact run for every app × ISA at 4-way. (Calibrated
// headroom: the worst observed point is ~6%; see EXPERIMENTS.md for the
// full accuracy-vs-speedup table.)
const sampledIPCTolerance = 0.10

// TestSampledAccuracyApps compares the sampled estimate against the full
// detailed run for every application × ISA at 4-way issue over the
// multi-address memory system, and checks the Sampled block's accounting.
func TestSampledAccuracyApps(t *testing.T) {
	sp := DefaultSampleSpec
	for _, app := range AppNames() {
		for _, i := range AllISAs {
			app, i := app, i
			t.Run(fmt.Sprintf("%s/%s", app, i), func(t *testing.T) {
				exact, err := RunApp(app, i, 4, DetailedMemory(MultiAddress), ScaleTest, SampleSpec{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunApp(app, i, 4, DetailedMemory(MultiAddress), ScaleTest, sp)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.CheckInvariants(); err != nil {
					t.Fatalf("sampled result invariants: %v", err)
				}
				s := res.Sampled
				if s == nil {
					t.Fatal("sampled run carries no Sampled block")
				}

				// Accuracy: whole-run IPC estimate vs the exact run.
				exactIPC := exact.IPC()
				estIPC := float64(s.TotalInsts) / float64(s.EstCycles)
				relErr := (estIPC - exactIPC) / exactIPC
				if relErr < 0 {
					relErr = -relErr
				}
				t.Logf("exact IPC %.4f, sampled estimate %.4f (%.1f%% error, %d windows, stderr %.4f)",
					exactIPC, estIPC, 100*relErr, s.Intervals, s.IPCStdErr)
				if relErr > sampledIPCTolerance {
					t.Errorf("sampled IPC %.4f vs exact %.4f: %.1f%% error exceeds %.0f%% bound",
						estIPC, exactIPC, 100*relErr, 100*sampledIPCTolerance)
				}

				// Accounting: the stream is fully partitioned, coverage and
				// stderr are consistent with the window count.
				if s.TotalInsts != exact.Insts {
					t.Errorf("sampled TotalInsts %d, exact run has %d", s.TotalInsts, exact.Insts)
				}
				if got := s.MeasuredInsts + s.WarmupInsts + s.SkippedInsts; got != s.TotalInsts {
					t.Errorf("measured %d + warmup %d + skipped %d = %d, want TotalInsts %d",
						s.MeasuredInsts, s.WarmupInsts, s.SkippedInsts, got, s.TotalInsts)
				}
				if s.Intervals < 2 {
					t.Errorf("only %d measured windows; the stderr needs at least 2", s.Intervals)
				}
				if s.IPCStdErr <= 0 || s.IPCStdErr >= s.IPCMean {
					t.Errorf("stderr %.4f inconsistent with mean %.4f", s.IPCStdErr, s.IPCMean)
				}
				if res.Insts != s.MeasuredInsts {
					t.Errorf("aggregated Insts %d, want measured-window insts %d", res.Insts, s.MeasuredInsts)
				}
				if s.Coverage <= 0 || s.Coverage >= 1 {
					t.Errorf("coverage %.3f outside (0,1)", s.Coverage)
				}
			})
		}
	}
}

// TestSampledDisabledBitIdentical: with sampling compiled in but disabled
// (a spec with no interval, even one carrying a worker count), RunKernel
// and RunApp must reproduce the live exact path's Result verbatim — the
// regression guard for "exact mode stays default and bit-identical".
func TestSampledDisabledBitIdentical(t *testing.T) {
	off := SampleSpec{Parallelism: 3}
	m := DetailedMemory(MultiAddress)
	exactK, err := liveResult(traceKey{name: "idct", isa: MOM, scale: ScaleTest}, 4, m)
	if err != nil {
		t.Fatal(err)
	}
	viaK, err := RunKernel("idct", MOM, 4, m, ScaleTest, off)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exactK, viaK) {
		t.Errorf("disabled-spec kernel run differs from exact:\n%+v\nvs\n%+v", viaK, exactK)
	}

	exactA, err := liveResult(traceKey{app: true, name: "gsmencode", isa: MOM, scale: ScaleTest}, 4, m)
	if err != nil {
		t.Fatal(err)
	}
	viaA, err := RunApp("gsmencode", MOM, 4, m, ScaleTest, off)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exactA, viaA) {
		t.Errorf("disabled-spec app run differs from exact:\n%+v\nvs\n%+v", viaA, exactA)
	}
}

// TestSampledDeterministic: the sampled path replays bit-identically — the
// window re-anchoring offsets are deterministic, so two sampled runs of the
// same workload agree field for field.
func TestSampledDeterministic(t *testing.T) {
	a, err := RunApp("jpegdecode", MOM, 4, DetailedMemory(MultiAddress), ScaleTest, DefaultSampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunApp("jpegdecode", MOM, 4, DetailedMemory(MultiAddress), ScaleTest, DefaultSampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two sampled runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFigure7Sampled: the sampled driver covers every Figure 7 row, each
// carrying the Sampled block with a whole-run cycle estimate, and the
// speed-up ratios stay close to the exact driver's.
func TestFigure7Sampled(t *testing.T) {
	exact, err := Figure7(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Figure7Sampled(context.Background(), ScaleTest, DefaultSampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled) != len(exact) {
		t.Fatalf("sampled driver produced %d rows, exact %d", len(sampled), len(exact))
	}
	byKey := map[string]AppSpeedup{}
	for _, r := range exact {
		byKey[fmt.Sprintf("%s/%s/%d", r.App, r.Config, r.Width)] = r
	}
	for _, r := range sampled {
		if r.Sampled == nil {
			t.Errorf("%s/%s/%d-way: sampled row has no Sampled block", r.App, r.Config, r.Width)
			continue
		}
		e, ok := byKey[fmt.Sprintf("%s/%s/%d", r.App, r.Config, r.Width)]
		if !ok {
			t.Errorf("sampled row %s/%s/%d has no exact counterpart", r.App, r.Config, r.Width)
			continue
		}
		if r.Insts != e.Insts {
			t.Errorf("%s/%s: sampled row reports %d insts, exact %d", r.App, r.Config, r.Insts, e.Insts)
		}
		relErr := (float64(r.Cycles) - float64(e.Cycles)) / float64(e.Cycles)
		if relErr < 0 {
			relErr = -relErr
		}
		// Looser than the 4-way bound: Figure 7 includes 8-way rows, whose
		// 150-instruction windows span fewer cycles and so sample noisier.
		if relErr > 1.5*sampledIPCTolerance {
			t.Errorf("%s/%s/%d-way: estimated %d cycles vs exact %d (%.1f%% error)",
				r.App, r.Config, r.Width, r.Cycles, e.Cycles, 100*relErr)
		}
	}
}
