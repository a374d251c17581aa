package mom

// Driver-level tests for parallel sampled simulation: bit-identity of the
// parallel path against the serial loop for every app × ISA × memory
// model, worker-count invariance down to the JSON envelope bytes, and the
// content-address key's independence from the parallelism knob.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestSampledParallelBitIdenticalApps: at DefaultSampleSpec, the parallel
// path (all host cores) must reproduce the serial path's Result verbatim
// for every application × ISA × memory model.
func TestSampledParallelBitIdenticalApps(t *testing.T) {
	for _, app := range AppNames() {
		for _, i := range AllISAs {
			for _, mn := range MemModelNames {
				app, i, mn := app, i, mn
				t.Run(fmt.Sprintf("%s/%s/%s", app, i, mn), func(t *testing.T) {
					t.Parallel()
					m, err := ParseMemModel(mn)
					if err != nil {
						t.Fatal(err)
					}
					serialSpec := DefaultSampleSpec
					serialSpec.Parallelism = 1
					serial, err := RunApp(app, i, 4, m, ScaleTest, serialSpec)
					if err != nil {
						t.Fatal(err)
					}
					par, err := RunApp(app, i, 4, m, ScaleTest, DefaultSampleSpec)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(serial, par) {
						t.Errorf("parallel sampled run differs from serial:\n%+v\nvs\n%+v", par, serial)
					}
				})
			}
		}
	}
}

// TestSampledParallelEnvelopeDeterminism: requests that differ only in the
// worker count must hash to the same content-address key AND produce
// byte-identical stored JSON envelopes — the two halves of the store's
// "identical work computed once" contract.
func TestSampledParallelEnvelopeDeterminism(t *testing.T) {
	base := JobRequest{
		Exp: "app", App: "gsmencode", ISA: "MOM", Mem: "multi",
		SamplePeriod:   DefaultSampleSpec.Period,
		SampleWarmup:   DefaultSampleSpec.Warmup,
		SampleInterval: DefaultSampleSpec.Interval,
	}
	var keys []string
	var docs [][]byte
	for _, workers := range []int{1, 2, 5} {
		req := base
		req.SamplePar = workers
		key, err := req.Key()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		doc, err := RunJobRequest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, append([]byte(nil), doc...))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] != keys[0] {
			t.Errorf("worker count changed the content-address key: %s vs %s", keys[i], keys[0])
		}
		if !bytes.Equal(docs[i], docs[0]) {
			t.Errorf("worker count changed the stored envelope bytes:\n%s\nvs\n%s", docs[i], docs[0])
		}
	}
}

// TestRequestKeyExcludesParallelism: the canonical form itself must not
// carry the knob (key equality could otherwise hold by hash accident), and
// a negative worker count must be rejected for sample-consuming requests.
func TestRequestKeyExcludesParallelism(t *testing.T) {
	req := JobRequest{Exp: "fig7", SamplePeriod: 1501, SampleWarmup: 100, SampleInterval: 150, SamplePar: 7}
	n, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.SamplePar != 0 {
		t.Errorf("normalized request carries sample_par %d, want 0", n.SamplePar)
	}
	plain := req
	plain.SamplePar = 0
	a, err := req.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := plain.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("canonical JSON differs under sample_par:\n%s\nvs\n%s", a, b)
	}
	bad := req
	bad.SamplePar = -1
	if _, err := bad.Normalized(); err == nil {
		t.Error("negative sample_par passed normalization")
	}
}
