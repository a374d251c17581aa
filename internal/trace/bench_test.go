package trace

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/emu"
	"repro/internal/isa"
)

// BenchmarkCapture records one bench-scale application trace per
// iteration — functional emulation plus column encoding, the cost a cold
// run pays once per workload — and reports it per recorded instruction.
// Machine construction (the data image copy) is outside the timed region.
func BenchmarkCapture(b *testing.B) {
	a, err := apps.ByName("jpegencode", apps.ScaleBench)
	if err != nil {
		b.Fatal(err)
	}
	p := a.Build(isa.ExtMOM)
	b.ReportAllocs()
	b.ResetTimer()
	var recs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := emu.New(p)
		b.StartTimer()
		tr, err := Capture(m, testMaxSteps, 0)
		if err != nil {
			b.Fatal(err)
		}
		recs += tr.Records()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/rec")
}
