// Motion-estimation showdown: the mpeg2 dist1 kernel (16x16 sum of
// absolute differences over a spiral search) in all four ISA levels across
// machine widths — a miniature Figure 5 focused on the paper's motivating
// example, plus the fetch-pressure numbers behind MOM's advantage.
package main

import (
	"fmt"
	"log"

	mom "repro"
)

func main() {
	fmt.Println("mpeg2 motion estimation (dist1 / motion1 kernel)")
	fmt.Println()
	fmt.Printf("%-6s %10s %10s %10s %10s   %s\n",
		"", "1-way", "2-way", "4-way", "8-way", "(cycles)")

	base := int64(0)
	for _, isaLevel := range mom.AllISAs {
		fmt.Printf("%-6s", isaLevel)
		for _, w := range []int{1, 2, 4, 8} {
			r, err := mom.RunKernel("motion1", isaLevel, w, mom.PerfectMemory(1), mom.ScaleTest, mom.SampleSpec{})
			if err != nil {
				log.Fatal(err)
			}
			if isaLevel == mom.Alpha && w == 1 {
				base = r.Cycles
			}
			fmt.Printf(" %10d", r.Cycles)
		}
		fmt.Println()
	}

	fmt.Println("\nspeed-up vs 1-way Alpha:")
	for _, isaLevel := range mom.AllISAs {
		fmt.Printf("%-6s", isaLevel)
		for _, w := range []int{1, 2, 4, 8} {
			r, err := mom.RunKernel("motion1", isaLevel, w, mom.PerfectMemory(1), mom.ScaleTest, mom.SampleSpec{})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %9.2fx", float64(base)/float64(r.Cycles))
		}
		fmt.Println()
	}

	fmt.Println("\nwhy: one MOM instruction does the work of a whole loop —")
	for _, isaLevel := range mom.AllISAs {
		r, err := mom.RunKernel("motion1", isaLevel, 4, mom.PerfectMemory(1), mom.ScaleTest, mom.SampleSpec{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %9d dynamic instructions, %5.2f word-ops per instruction\n",
			isaLevel, r.Insts, float64(r.WordOps)/float64(r.Insts))
	}

	fmt.Println("\nmemory-latency tolerance (4-way, latency 1 -> 50 cycles):")
	for _, isaLevel := range mom.AllISAs {
		r1, err := mom.RunKernel("motion1", isaLevel, 4, mom.PerfectMemory(1), mom.ScaleTest, mom.SampleSpec{})
		if err != nil {
			log.Fatal(err)
		}
		r50, err := mom.RunKernel("motion1", isaLevel, 4, mom.PerfectMemory(50), mom.ScaleTest, mom.SampleSpec{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s slows down %.2fx\n", isaLevel, float64(r50.Cycles)/float64(r1.Cycles))
	}
}
