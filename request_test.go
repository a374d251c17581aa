package mom

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestRequestNormalization: defaults fill in, irrelevant fields clear, so
// every spelling of the same computation shares one canonical form.
func TestRequestNormalization(t *testing.T) {
	n, err := JobRequest{Exp: "fig5", Width: 8, ISA: "mmx", Mem: "vector", Kernel: "idct"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if want := (JobRequest{Exp: "fig5", Scale: "test"}); n != want {
		t.Fatalf("fig5 normalised to %+v, want %+v", n, want)
	}
	n, err = JobRequest{Exp: "kernel", Kernel: "motion1", ISA: "mom"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want := JobRequest{Exp: "kernel", Scale: "test", Width: 4, ISA: "MOM", Mem: "perfect", Kernel: "motion1"}
	if n != want {
		t.Fatalf("kernel point normalised to %+v, want %+v", n, want)
	}
}

// TestRequestValidation: every invalid shape is rejected with the valid
// vocabulary in the message.
func TestRequestValidation(t *testing.T) {
	for _, tc := range []struct {
		req  JobRequest
		want string // substring of the error
	}{
		{JobRequest{Exp: "nope"}, "valid: fig5"},
		{JobRequest{Exp: "fig5", Scale: "huge"}, "valid: test, bench"},
		{JobRequest{Exp: "latency", Width: 3}, "valid: 1, 2, 4, 8"},
		{JobRequest{Exp: "latency", Width: -4}, "valid: 1, 2, 4, 8"},
		{JobRequest{Exp: "kernel", Kernel: "idct", Width: -1}, "valid: 1, 2, 4, 8"},
		{JobRequest{Exp: "kernel"}, "missing kernel"},
		{JobRequest{Exp: "kernel", Kernel: "nope"}, "unknown kernel"},
		{JobRequest{Exp: "kernel", Kernel: "idct", ISA: "sse"}, "unknown ISA"},
		{JobRequest{Exp: "kernel", Kernel: "idct", Mem: "l3"}, "unknown memory model"},
		// The detailed hierarchy exists for 4- and 8-way machines only.
		{JobRequest{Exp: "kernel", Kernel: "idct", Width: 1, Mem: "conv"}, "valid: 4, 8"},
		{JobRequest{Exp: "app", App: "jpegencode", Width: 2, Mem: "multi"}, "valid: 4, 8"},
		{JobRequest{Exp: "app", App: "jpegencode", Width: 2, Mem: "collapsing"}, "valid: 4, 8"},
		{JobRequest{Exp: "app", App: "nope"}, "unknown app"},
		{JobRequest{Exp: "memsweep"}, "missing app"},
		{JobRequest{Exp: "regsweep", Kernel: "bogus"}, "unknown kernel"},
		// Exact-only experiments reject sampling parameters instead of
		// silently caching an exact run under a sampled-looking request.
		{JobRequest{Exp: "fig5", SamplePeriod: 1501, SampleWarmup: 100, SampleInterval: 150}, "exact-only"},
		{JobRequest{Exp: "fetch", SampleInterval: 150, SamplePeriod: 1501}, "exact-only"},
		{JobRequest{Exp: "latency", SampleInterval: 150, SamplePeriod: 1501}, "exact-only"},
		{JobRequest{Exp: "regsweep", Kernel: "idct", SampleInterval: 150, SamplePeriod: 1501}, "exact-only"},
		{JobRequest{Exp: "memsweep", App: "mpeg2decode", SampleInterval: 150, SamplePeriod: 1501}, "exact-only"},
		// Sampled-capable experiments still validate the spec itself.
		{JobRequest{Exp: "kernel", Kernel: "idct", SampleInterval: 150}, "sample"},
	} {
		_, err := tc.req.Normalized()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one containing %q", tc.req, err, tc.want)
		}
	}
}

// TestNarrowDetailedRunRejected: the library entry points behind momsim
// -kernel/-app return the validator's error for a width the detailed
// hierarchy does not model, instead of panicking while building it.
func TestNarrowDetailedRunRejected(t *testing.T) {
	m := DetailedMemory(MultiAddress)
	_, want := JobRequest{Exp: "app", App: "jpegencode", Width: 2, Mem: "multi"}.Normalized()
	if want == nil {
		t.Fatal("validator accepted a 2-way detailed-memory app job")
	}
	for name, call := range map[string]func() (Result, error){
		"RunKernel":         func() (Result, error) { return RunKernel("idct", MOM, 2, m, ScaleTest, SampleSpec{}) },
		"RunApp":            func() (Result, error) { return RunApp("jpegencode", MOM, 2, m, ScaleTest, SampleSpec{}) },
		"RunKernel sampled": func() (Result, error) { return RunKernel("idct", MOM, 2, m, ScaleTest, DefaultSampleSpec) },
		"RunApp sampled":    func() (Result, error) { return RunApp("jpegencode", MOM, 2, m, ScaleTest, DefaultSampleSpec) },
	} {
		if _, err := call(); err == nil || err.Error() != want.Error() {
			t.Errorf("%s at width 2 on %s: error %v, want %v", name, m.Name(), err, want)
		}
	}
}

// TestRequestKeyStability pins the hash preimage: if this golden moves,
// SchemaVersion must be bumped with it, or a persistent store would serve
// entries computed under the old schema.
func TestRequestKeyStability(t *testing.T) {
	b, err := JobRequest{Exp: "fig5"}.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"schema":2,"exp":"fig5","scale":"test"}`; string(b) != want {
		t.Fatalf("canonical fig5 request:\n got %s\nwant %s", b, want)
	}
	key, err := JobRequest{Exp: "fig5"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if len(key) != 64 || strings.ToLower(key) != key {
		t.Fatalf("key %q is not lowercase hex sha256", key)
	}
	key2, _ := JobRequest{Exp: "fig5", ISA: "MDMX"}.Key()
	if key != key2 {
		t.Fatal("irrelevant field changed a fig5 key")
	}
	other, _ := JobRequest{Exp: "fig7"}.Key()
	if key == other {
		t.Fatal("different experiments share a key")
	}
}

// TestEnvelopeSchemaAndDeterminism: every JSON document carries the
// schema version, and encoding the same rows twice yields identical
// bytes (the property the content-addressed store depends on).
func TestEnvelopeSchemaAndDeterminism(t *testing.T) {
	res, err := RunKernel("idct", MOM, 4, PerfectMemory(1), ScaleTest, SampleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteResultJSON(&a, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteResultJSON(&b, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteResultJSON is not deterministic")
	}
	var doc map[string]any
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["schema"] != float64(SchemaVersion) {
		t.Fatalf("result schema %v, want %d", doc["schema"], SchemaVersion)
	}

	a.Reset()
	if err := WriteExperimentJSON(&a, "table2", Table2()); err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(a.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env["schema"] != float64(SchemaVersion) || env["experiment"] != "table2" {
		t.Fatalf("envelope %v, want schema %d and experiment table2", env, SchemaVersion)
	}
}

// TestRunJobRequestDeterministic: the same request produces byte-identical
// result documents across runs — the store-hit-equals-recompute property.
func TestRunJobRequestDeterministic(t *testing.T) {
	req := JobRequest{Exp: "kernel", Kernel: "rgb2ycc", ISA: "MOM", Width: 4}
	a, err := RunJobRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunJobRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("RunJobRequest not deterministic:\n%s\nvs\n%s", a, b)
	}
	var doc map[string]any
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["workload"] != "rgb2ycc" {
		t.Fatalf("document workload %v, want rgb2ycc", doc["workload"])
	}
}

// TestRunJobRequestCancelled: a dead context aborts a batch driver.
func TestRunJobRequestCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunJobRequest(ctx, JobRequest{Exp: "regsweep", Kernel: "idct"}); err == nil {
		t.Fatal("cancelled regsweep returned no error")
	}
	if _, err := RunJobRequest(ctx, JobRequest{Exp: "kernel", Kernel: "idct"}); err == nil {
		t.Fatal("cancelled kernel point returned no error")
	}
}
