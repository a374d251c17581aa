// Quickstart: build a tiny MOM program with the assembler API, execute it
// functionally, then time it on a 4-way machine — the minimal end-to-end
// tour of the library (assembler -> emulator -> cycle-level simulator).
package main

import (
	"fmt"
	"log"

	mom "repro"
	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

func main() {
	// A 16x16 byte matrix lives in memory with a row stride of 16. The
	// program doubles every element using a single strided matrix load, one
	// vector packed add, and one strided matrix store — 256 byte-operations
	// in 5 instructions.
	b := asm.New("double-matrix")
	src := make([]byte, 16*16)
	for i := range src {
		src[i] = byte(i % 100)
	}
	b.AllocBytes("m", src, 8)

	base, stride := isa.R(1), isa.R(2)
	b.MovI(base, int64(b.Sym("m")))
	b.MovI(stride, 16)
	b.SetVLI(16)                                           // all 16 matrix rows
	b.MomLd(isa.V(0), base, stride, 0)                     // V0 <- the matrix
	b.Op(isa.PADDB.Vector(), isa.V(0), isa.V(0), isa.V(0)) // each byte doubled
	b.MomSt(isa.V(0), base, stride, 0)                     // store back
	prog := b.Build()

	// Functional execution.
	m := emu.New(prog)
	if _, err := m.Run(1000); err != nil {
		log.Fatal(err)
	}
	got := m.Mem.Bytes(prog.Sym("m"), 4)
	fmt.Printf("first bytes after doubling: %v (was [0 1 2 3])\n", got)

	// Cycle-level timing on the paper's 4-way MOM machine.
	sim := cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewPerfect(1))
	res, err := sim.Run(trace.NewLive(emu.New(prog)), 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("timed: %d instructions in %d cycles (IPC %.2f, %d word-ops)\n",
		res.Insts, res.Cycles, res.IPC(), res.WordOps)

	// The same machinery drives the paper's kernels via the public API.
	r, err := mom.RunKernel("motion1", mom.MOM, 4, mom.PerfectMemory(1), mom.ScaleTest, mom.SampleSpec{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("motion1 on 4-way MOM: %d cycles, IPC %.2f\n", r.Cycles, r.IPC())

	// Every run carries a cycle-attribution profile whose buckets sum
	// exactly to the cycle count — where did the time go?
	if err := r.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cycle profile:")
	for _, b := range r.Profile.Buckets() {
		if b.Cycles > 0 {
			fmt.Printf("  %-10s %6.1f%%\n", b.Name, 100*float64(b.Cycles)/float64(r.Cycles))
		}
	}

	// The observability layer drills the same attribution down to single
	// static instructions: which line of the kernel is the time going to?
	rep, err := mom.KernelHotspots("motion1", mom.MOM, 4, mom.PerfectMemory(1), mom.ScaleTest)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("hottest instructions (per-PC attributed cycles):")
	for _, row := range rep.Rows[:3] {
		fmt.Printf("  pc %4d  %-34s %6.1f%% of cycles (%d runs)\n",
			row.PC, row.Asm, 100*float64(row.Cycles)/float64(rep.Cycles), row.Count)
	}
}
