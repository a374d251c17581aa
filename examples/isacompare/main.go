// ISA comparison: static and dynamic code properties of the four ISA
// levels on every kernel — instruction-count reduction, operations per
// instruction (fetch pressure) and static program sizes. This is the
// quantitative version of the paper's Figure 3 argument.
package main

import (
	"fmt"
	"log"

	mom "repro"
)

func main() {
	mmx, mdmx, momN := mom.ISACounts()
	fmt.Printf("modelled multimedia instruction counts: MMX %d, MDMX %d, MOM %d\n",
		mmx, mdmx, momN)
	fmt.Println("(the paper's emulation libraries: 67, 88 and 121)")

	fmt.Printf("\n%-14s %-6s %9s %9s %12s %9s\n",
		"kernel", "ISA", "static", "dynamic", "vs Alpha", "ops/inst")
	for _, k := range mom.KernelNames() {
		var alphaDyn uint64
		for _, level := range mom.AllISAs {
			p, err := mom.BuildKernel(k, level, mom.ScaleTest)
			if err != nil {
				log.Fatal(err)
			}
			r, err := mom.RunKernel(k, level, 4, mom.PerfectMemory(1), mom.ScaleTest, mom.SampleSpec{})
			if err != nil {
				log.Fatal(err)
			}
			if level == mom.Alpha {
				alphaDyn = r.Insts
			}
			fmt.Printf("%-14s %-6s %9d %9d %11.1fx %9.2f\n",
				k, level, p.Stats().Total, r.Insts,
				float64(alphaDyn)/float64(r.Insts),
				float64(r.WordOps)/float64(r.Insts))
		}
		fmt.Println()
	}
}
