package mom

// Tests for the per-driver resolution of automatic sampled parallelism:
// the resolution rule itself, and that drivers which fan many sampled runs
// out give byte-identical documents at any worker count.

import (
	"bytes"
	"context"
	"testing"
)

// TestSampleFanOut: an automatic spec gets the run's share of the cores,
// at least one; an explicit worker count passes through.
func TestSampleFanOut(t *testing.T) {
	for _, tc := range []struct {
		par, procs, n, want int
	}{
		{0, 2, 50, 1},
		{0, 64, 50, 1},
		{0, 8, 1, 8},
		{0, 8, 3, 2},
		{0, 4, 0, 4},
		{3, 2, 50, 3},
		{3, 64, 1, 3},
		{1, 8, 1, 1},
	} {
		sp := DefaultSampleSpec
		sp.Parallelism = tc.par
		got := sp.fanOut(tc.n, tc.procs)
		if got.Parallelism != tc.want {
			t.Errorf("Parallelism %d, GOMAXPROCS %d, %d runs: resolved to %d, want %d",
				tc.par, tc.procs, tc.n, got.Parallelism, tc.want)
		}
		got.Parallelism = sp.Parallelism
		if got != sp {
			t.Errorf("fanOut changed more than Parallelism: %+v vs %+v", got, sp)
		}
	}
}

// TestSampleFanOutDriverParity: Figure7Sampled and ProfileStudy
// write byte-identical experiment documents whether each run's worker
// count is resolved automatically, serial, or an explicit 3.
func TestSampleFanOutDriverParity(t *testing.T) {
	ctx := context.Background()
	drivers := map[string]func(sp SampleSpec) (any, error){
		"fig7": func(sp SampleSpec) (any, error) { return Figure7Sampled(ctx, ScaleTest, sp) },
		"profile": func(sp SampleSpec) (any, error) {
			return ProfileStudy(ctx, ScaleTest, 4, sp)
		},
	}
	for exp, run := range drivers {
		var docs [][]byte
		for _, workers := range []int{0, 1, 3} {
			sp := DefaultSampleSpec
			sp.Parallelism = workers
			rows, err := run(sp)
			if err != nil {
				t.Fatalf("%s at Parallelism %d: %v", exp, workers, err)
			}
			var buf bytes.Buffer
			if err := WriteExperimentJSON(&buf, exp, rows); err != nil {
				t.Fatal(err)
			}
			docs = append(docs, buf.Bytes())
		}
		for i, workers := range []int{1, 3} {
			if !bytes.Equal(docs[i+1], docs[0]) {
				t.Errorf("%s: Parallelism %d document differs from automatic:\n%s\nvs\n%s",
					exp, workers, docs[i+1], docs[0])
			}
		}
	}
}
