// Video pipeline: run the full mpeg2-decode application (entropy decode,
// dequantisation, IDCT, motion compensation, reconstruction) on the
// detailed memory hierarchy under each cache organisation — a miniature
// Figure 7 for one application, with the memory-system statistics that
// explain the differences.
package main

import (
	"fmt"
	"log"

	mom "repro"
)

func main() {
	fmt.Println("mpeg2 decode on the detailed memory hierarchy")

	type config struct {
		name  string
		isa   mom.ISA
		cache mom.CacheMode
	}
	configs := []config{
		{"Alpha / conventional cache", mom.Alpha, mom.Conventional},
		{"MMX   / conventional cache", mom.MMX, mom.Conventional},
		{"MOM   / multi-address cache", mom.MOM, mom.MultiAddress},
		{"MOM   / vector cache", mom.MOM, mom.VectorCache},
		{"MOM   / collapsing buffer", mom.MOM, mom.CollapsingBuffer},
	}

	for _, w := range []int{4, 8} {
		fmt.Printf("\n%d-way machine\n", w)
		var base int64
		for _, cfg := range configs {
			r, err := mom.RunApp("mpeg2decode", cfg.isa, w, mom.DetailedMemory(cfg.cache), mom.ScaleTest, mom.SampleSpec{})
			if err != nil {
				log.Fatal(err)
			}
			if cfg.isa == mom.Alpha {
				base = r.Cycles
			}
			fmt.Printf("  %-28s %9d cycles  %5.2fx  IPC %.2f\n",
				cfg.name, r.Cycles, float64(base)/float64(r.Cycles), r.IPC())
			if cfg.isa == mom.MOM {
				fmt.Printf("      vector: %d loads / %d stores (%d elements), %d line-pair accesses\n",
					r.Mem.VecLoads, r.Mem.VecStores, r.Mem.VecElems, r.Mem.LineAccesses)
			}
			fmt.Printf("      L1 %d/%d hit/miss, L2 %d/%d, bank conflicts %d\n",
				r.Mem.L1Hits, r.Mem.L1Misses, r.Mem.L2Hits, r.Mem.L2Misses, r.Mem.BankConflicts)
		}
	}
}
