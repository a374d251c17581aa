package emu_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

const testMaxSteps = 50_000_000

// stepAll runs m to completion one Step at a time.
func stepAll(m *emu.Machine) []emu.Dyn {
	var out []emu.Dyn
	for {
		d, ok := m.Step()
		if !ok {
			return out
		}
		out = append(out, d)
	}
}

// stepNAll runs m to completion in StepN batches of size n.
func stepNAll(m *emu.Machine, n int) []emu.Dyn {
	var out []emu.Dyn
	buf := make([]emu.Dyn, n)
	for {
		k := m.StepN(buf)
		if k == 0 {
			return out
		}
		out = append(out, buf[:k]...)
	}
}

// sameRun reports the first difference between two runs of one program:
// their record sequences and final Steps, PC and Err.
func sameRun(got []emu.Dyn, gm *emu.Machine, want []emu.Dyn, wm *emu.Machine) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	if gm.Steps != wm.Steps || gm.PC != wm.PC {
		return fmt.Errorf("Steps/PC %d/%d, want %d/%d", gm.Steps, gm.PC, wm.Steps, wm.PC)
	}
	if fmt.Sprint(gm.Err) != fmt.Sprint(wm.Err) {
		return fmt.Errorf("Err %v, want %v", gm.Err, wm.Err)
	}
	return nil
}

// TestStepNMatchesStep: for every kernel and ISA, StepN batches of any size
// produce exactly the record sequence and final state of a Step loop.
func TestStepNMatchesStep(t *testing.T) {
	for _, k := range kernels.All(kernels.ScaleTest) {
		for _, ext := range isa.AllExts {
			p := k.Build(ext)
			wm := emu.New(p)
			want := stepAll(wm)
			if wm.Err != nil {
				t.Fatalf("%s/%s: %v", k.Name, ext, wm.Err)
			}
			for _, n := range []int{1, 7, 256} {
				gm := emu.New(p)
				if err := sameRun(stepNAll(gm, n), gm, want, wm); err != nil {
					t.Errorf("%s/%s batch %d: %v", k.Name, ext, n, err)
				}
			}
		}
	}
}

// faulting builds a program that executes pre instructions and then
// faults: on a load from an unmapped address, or on a divide by zero.
func faulting(pre int, mem bool) *isa.Program {
	b := asm.New("faulting")
	for i := 0; i < pre; i++ {
		b.AddI(isa.R(1), isa.R(1), 1)
	}
	if mem {
		b.MovI(isa.R(2), 1<<40)
		b.Ldq(isa.R(3), isa.R(2), 0)
	} else {
		b.Op(isa.DIVQ, isa.R(3), isa.R(1), isa.R(31))
	}
	b.AddI(isa.R(1), isa.R(1), 1)
	return b.Build()
}

// TestStepNFaultMidBatch: a fault inside a batch returns exactly the
// records before it — in this straight-line program, one per instruction
// ahead of the faulting one — and m.Err reads as it does under Step.
func TestStepNFaultMidBatch(t *testing.T) {
	for _, mem := range []bool{true, false} {
		p := faulting(10, mem)
		wm := emu.New(p)
		want := stepAll(wm)
		if wm.Err == nil {
			t.Fatalf("mem=%v: Step run did not fault", mem)
		}
		pc := wm.PC
		if len(want) != pc || wm.Steps != uint64(pc) {
			t.Fatalf("mem=%v: Step run kept %d records (%d steps), want %d", mem, len(want), wm.Steps, pc)
		}
		prefix := fmt.Sprintf("faulting: pc=%d divide by zero", pc)
		if mem {
			prefix = fmt.Sprintf("faulting: pc=%d %s: ", pc, p.Insts[pc])
		}
		if !strings.HasPrefix(wm.Err.Error(), prefix) {
			t.Errorf("mem=%v: Step error %q, want prefix %q", mem, wm.Err, prefix)
		}
		gm := emu.New(p)
		buf := make([]emu.Dyn, 64)
		if k := gm.StepN(buf); k != pc {
			t.Fatalf("mem=%v: StepN returned %d records, want %d", mem, k, pc)
		}
		if err := sameRun(buf[:pc], gm, want, wm); err != nil {
			t.Errorf("mem=%v: %v", mem, err)
		}
		if k := gm.StepN(buf); k != 0 {
			t.Errorf("mem=%v: StepN after the fault returned %d records", mem, k)
		}
	}
}

// TestRunStepLimit: Run(N) completes a program of N dynamic instructions,
// and Run(N-1) fails without starting step N.
func TestRunStepLimit(t *testing.T) {
	vals := make([]byte, 300)
	p := buildSum(len(vals), vals)
	n, err := emu.New(p).Run(testMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := emu.New(p).Run(n); err != nil || got != n {
		t.Errorf("Run(%d) = %d, %v; want %d, nil", n, got, err, n)
	}
	m := emu.New(p)
	got, err := m.Run(n - 1)
	want := fmt.Sprintf("exceeded %d steps", n-1)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Run(%d) error %v, want %q", n-1, err, want)
	}
	if got != n-1 || m.Steps != n-1 {
		t.Errorf("Run(%d) ran %d steps (machine %d), want %d", n-1, got, m.Steps, n-1)
	}
}
