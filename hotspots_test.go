package mom

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestHotspotAttributionIdentity is the exactness contract of the per-PC
// profiler: for every kernel, ISA and issue width, the per-PC attributed
// cycles must sum — bucket by bucket — to the cycle-attribution profile of
// a plain (unobserved) run, which itself sums to Cycles. Attaching the
// observer must not move a single cycle.
func TestHotspotAttributionIdentity(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	for _, k := range KernelNames() {
		for _, i := range AllISAs {
			k, i := k, i
			t.Run(fmt.Sprintf("%s/%s", k, i), func(t *testing.T) {
				t.Parallel()
				for _, w := range widths {
					plain, err := RunKernel(k, i, w, PerfectMemory(1), ScaleTest, SampleSpec{})
					if err != nil {
						t.Fatalf("plain %d-way: %v", w, err)
					}
					rep, err := KernelHotspots(k, i, w, PerfectMemory(1), ScaleTest)
					if err != nil {
						t.Fatalf("observed %d-way: %v", w, err)
					}
					if rep.Cycles != plain.Cycles || rep.Profile != plain.Profile {
						t.Errorf("%d-way: observed run diverges from plain\nplain:    %d cycles %+v\nobserved: %d cycles %+v",
							w, plain.Cycles, plain.Profile, rep.Cycles, rep.Profile)
					}
					if err := rep.CheckInvariants(); err != nil {
						t.Errorf("%d-way: %v", w, err)
					}
				}
			})
		}
	}
}

// TestHotspotAttributionIdentityApps spot-checks the application path under
// the detailed memory hierarchy, where the per-PC rows also carry memory
// events.
func TestHotspotAttributionIdentityApps(t *testing.T) {
	apps := AppNames()
	for n, i := range AllISAs {
		a, i := apps[n%len(apps)], i
		t.Run(fmt.Sprintf("%s/%s", a, i), func(t *testing.T) {
			t.Parallel()
			m := DetailedMemory(MultiAddress)
			plain, err := RunApp(a, i, 4, m, ScaleTest, SampleSpec{})
			if err != nil {
				t.Fatalf("plain: %v", err)
			}
			rep, err := AppHotspots(a, i, 4, m, ScaleTest)
			if err != nil {
				t.Fatalf("observed: %v", err)
			}
			if rep.Cycles != plain.Cycles || rep.Profile != plain.Profile {
				t.Errorf("observed run diverges from plain\nplain:    %d cycles %+v\nobserved: %d cycles %+v",
					plain.Cycles, plain.Profile, rep.Cycles, rep.Profile)
			}
			if err := rep.CheckInvariants(); err != nil {
				t.Error(err)
			}
			// Under the detailed hierarchy some instruction must have missed.
			var l1 uint64
			for _, r := range rep.Rows {
				l1 += r.L1Misses
			}
			if plain.Mem.L1Misses > 0 && l1 == 0 {
				t.Errorf("run had %d L1 misses but no row claims any", plain.Mem.L1Misses)
			}
		})
	}
}

// TestHotspotJSONSchema pins the machine-readable hotspot schema: the
// experiment envelope and the snake_case row fields.
func TestHotspotJSONSchema(t *testing.T) {
	rep, err := KernelHotspots("idct", MOM, 4, PerfectMemory(1), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHotspotsJSON(&buf, []HotspotReport{rep}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Experiment string `json:"experiment"`
		Rows       []struct {
			Workload string           `json:"workload"`
			ISA      string           `json:"isa"`
			Cycles   int64            `json:"cycles"`
			Profile  map[string]int64 `json:"profile"`
			Rows     []map[string]any `json:"rows"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Experiment != "hotspots" || len(doc.Rows) != 1 {
		t.Fatalf("envelope = %q with %d rows", doc.Experiment, len(doc.Rows))
	}
	r := doc.Rows[0]
	if r.Workload != "idct" || r.ISA != "MOM" || r.Cycles != rep.Cycles {
		t.Errorf("report header = %+v", r)
	}
	var sum int64
	for _, v := range r.Profile {
		sum += v
	}
	if sum != r.Cycles {
		t.Errorf("JSON profile sums to %d, want %d", sum, r.Cycles)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no per-PC rows")
	}
	for _, key := range []string{"pc", "asm", "count", "cycles", "profile", "l1_misses", "mshr_stalls"} {
		if _, ok := r.Rows[0][key]; !ok {
			t.Errorf("per-PC row missing %q: %v", key, r.Rows[0])
		}
	}
}

// TestPipelineExportFormats exports a real kernel run through both writers
// and validates the outputs: the Kanata log round-trips through the parser,
// the Chrome trace parses as trace-event JSON, and both sinks recorded the
// requested window.
func TestPipelineExportFormats(t *testing.T) {
	var kanata, chrome bytes.Buffer
	const window = 500
	exp, err := ExportKernelPipeline("motion1", MOM, 4, PerfectMemory(1), ScaleTest,
		PipelineOptions{Start: 100, Count: window, Konata: &kanata, Chrome: &chrome})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Recorded != window {
		t.Errorf("recorded %d instructions, want %d", exp.Recorded, window)
	}
	st, err := obs.ParseKonata(bytes.NewReader(kanata.Bytes()))
	if err != nil {
		t.Fatalf("konata self-check: %v", err)
	}
	if st.Insts != window || st.Retired != window {
		t.Errorf("konata parsed %d insts, %d retired, want %d", st.Insts, st.Retired, window)
	}
	if !strings.Contains(kanata.String(), "vsad") && !strings.Contains(kanata.String(), "ldq") {
		t.Error("konata labels carry no disassembly")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	// One parent slice plus four stage slices per instruction.
	if got, want := len(doc.TraceEvents), window*5; got != want {
		t.Errorf("chrome trace has %d events, want %d", got, want)
	}
	// Exporting must not perturb the timing either.
	plain, err := RunKernel("motion1", MOM, 4, PerfectMemory(1), ScaleTest, SampleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Result.Cycles != plain.Cycles {
		t.Errorf("export run took %d cycles, plain run %d", exp.Result.Cycles, plain.Cycles)
	}
	if _, err := ExportKernelPipeline("motion1", MOM, 4, PerfectMemory(1), ScaleTest, PipelineOptions{}); err == nil {
		t.Error("export without sinks should fail")
	}
}
