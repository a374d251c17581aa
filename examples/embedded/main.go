// Embedded-domain argument: the paper concludes MOM is "an ideal candidate
// for embedded systems where high issue rates and out-of-order execution
// are not even an option", because matrix instructions slash fetch
// pressure. This example makes that concrete: a 1-way in-order-budget MOM
// machine against much wider MMX machines, plus the latency-tolerance
// angle that matters when the embedded part has a slow memory.
package main

import (
	"fmt"
	"log"

	mom "repro"
)

func run(k string, i mom.ISA, w int, m mom.MemModel) mom.Result {
	r, err := mom.RunKernel(k, i, w, m, mom.ScaleTest, mom.SampleSpec{})
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	kernels := []string{"motion1", "motion2", "idct", "addblock"}

	fmt.Println("1-way MOM vs wider MMX machines (cycles; perfect cache)")
	fmt.Printf("%-10s %12s %12s %12s %12s\n",
		"kernel", "MOM 1-way", "MMX 1-way", "MMX 2-way", "MMX 4-way")
	for _, k := range kernels {
		m1 := run(k, mom.MOM, 1, mom.PerfectMemory(1)).Cycles
		x1 := run(k, mom.MMX, 1, mom.PerfectMemory(1)).Cycles
		x2 := run(k, mom.MMX, 2, mom.PerfectMemory(1)).Cycles
		x4 := run(k, mom.MMX, 4, mom.PerfectMemory(1)).Cycles
		fmt.Printf("%-10s %12d %12d %12d %12d", k, m1, x1, x2, x4)
		switch {
		case m1 <= x4:
			fmt.Print("   <- 1-way MOM beats 4-way MMX\n")
		case m1 <= x2:
			fmt.Print("   <- 1-way MOM beats 2-way MMX\n")
		default:
			fmt.Print("\n")
		}
	}

	fmt.Println("\nwith a slow (50-cycle) memory, the gap widens:")
	fmt.Printf("%-10s %12s %12s\n", "kernel", "MOM 1-way", "MMX 4-way")
	for _, k := range kernels {
		m1 := run(k, mom.MOM, 1, mom.PerfectMemory(50)).Cycles
		x4 := run(k, mom.MMX, 4, mom.PerfectMemory(50)).Cycles
		marker := ""
		if m1 < x4 {
			marker = "   <- the narrow MOM machine wins outright"
		}
		fmt.Printf("%-10s %12d %12d%s\n", k, m1, x4, marker)
	}

	fmt.Println("\nwhy: instructions fetched per unit of work (motion1)")
	for _, cfg := range []struct {
		i mom.ISA
		w int
	}{{mom.MOM, 1}, {mom.MMX, 1}, {mom.MMX, 4}} {
		r := run("motion1", cfg.i, cfg.w, mom.PerfectMemory(1))
		fmt.Printf("  %-5s %d-way: %8d instructions for %d word-operations\n",
			cfg.i, cfg.w, r.Insts, r.WordOps)
	}
}
