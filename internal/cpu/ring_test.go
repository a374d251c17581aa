package cpu_test

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// TestRingWrap pins exact and sampled runs on a machine whose ROB (37),
// LSQ (13) and rename in-flight windows are not powers of two and far
// smaller than the run, so every ring wraps many times: a wrong wrap, or a
// ROB position lost between the spans of a sampled window, moves Cycles or
// the profile. With spare rename registers the ROB and LSQ bind; without,
// the rename rings do. The figures were recorded with the modulo-indexed
// rings the compare-wrapped ones replaced.
func TestRingWrap(t *testing.T) {
	cases := []struct {
		kernel          string
		ext             isa.Ext
		spare           int // extra physical registers of every kind
		exactC, smpC    int64
		exactP, sampleP cpu.Profile
	}{
		{"motion1", isa.ExtMMX, 41, 27993, 4033,
			cpu.Profile{Commit: 22461, Frontend: 6, FU: 43, MemWait: 5040, DepLatency: 443},
			cpu.Profile{Commit: 3233, FU: 12, MemWait: 727, DepLatency: 61}},
		{"ltpparameters", isa.ExtMOM, 41, 25278, 3980,
			cpu.Profile{Commit: 5483, Frontend: 6, Mispredict: 673, FU: 2566, MemWait: 1588, StoreCommit: 420, DepLatency: 14542},
			cpu.Profile{Commit: 822, Mispredict: 116, FU: 406, MemWait: 281, StoreCommit: 70, DepLatency: 2285}},
		{"idct", isa.ExtMMX, 0, 24895, 3479,
			cpu.Profile{Commit: 16877, Frontend: 6, RenameROB: 2318, FU: 61, MemWait: 1539, DepLatency: 4094},
			cpu.Profile{Commit: 2402, RenameROB: 326, FU: 10, MemWait: 163, DepLatency: 578}},
		{"motion1", isa.ExtMOM, 0, 32682, 4544,
			cpu.Profile{Commit: 3367, Frontend: 6, RenameROB: 9324, FU: 8832, MemWait: 6313, DepLatency: 4840},
			cpu.Profile{Commit: 509, RenameROB: 1419, FU: 1317, MemWait: 579, DepLatency: 720}},
	}
	for _, c := range cases {
		tr := captureKernel(t, c.kernel, c.ext)
		cfg := cpu.NewConfig(4, c.ext)
		cfg.ROBSize, cfg.LSQSize = 37, 13
		cfg.IntPhys = isa.NumInt + 11 + c.spare
		cfg.FPPhys = isa.NumFP + 7 + c.spare
		cfg.MedPhys = isa.NumMedia + 5 + c.spare
		cfg.MomPhys = isa.NumMom + 3 + c.spare
		cfg.MomAccPhys = isa.NumMomAcc + 3 + c.spare
		mk := func() *cpu.Sim {
			return cpu.New(cfg, mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
		}
		exact, err := mk().Run(tr.Reader(), 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Cycles != c.exactC || exact.Profile != c.exactP {
			t.Errorf("%s/%v spare %d exact: cycles %d profile %+v, want %d %+v",
				c.kernel, c.ext, c.spare, exact.Cycles, exact.Profile, c.exactC, c.exactP)
		}
		smp, err := mk().RunSampled(tr.Reader(), 50_000_000, testSpec)
		if err != nil {
			t.Fatal(err)
		}
		if smp.Cycles != c.smpC || smp.Profile != c.sampleP {
			t.Errorf("%s/%v spare %d sampled: cycles %d profile %+v, want %d %+v",
				c.kernel, c.ext, c.spare, smp.Cycles, smp.Profile, c.smpC, c.sampleP)
		}
	}
}
