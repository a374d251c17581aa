package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestSmoke builds the harness and runs every workload at test scale,
// untraced and traced, checking that each run is correct and reports
// exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the harness")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); strings.Join(got, ",") != strings.Join(sorted(names), ",") {
		t.Fatalf("harness workloads %v, BENCHMARK.json %v", got, names)
	}
	for _, w := range names {
		for _, traced := range []string{"0", "1"} {
			want := spec.EndToEnd
			if traced == "1" {
				want = spec.PerLayer
			}
			t.Run(w+"/trace"+traced, func(t *testing.T) {
				cmd := exec.Command(bin, "-workload", w, "-seed", "7", "-seconds", "1", "-trace", traced, "-scale", "test")
				cmd.Dir = t.TempDir()
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if traced == "1" {
					if v := res.Metrics["mom.live_runs"].Value; v != 0 {
						t.Errorf("mom.live_runs = %v, want 0", v)
					}
					if v := res.Metrics["mom.captures"].Value; w == "fig7-exact-warm" && v != 0 {
						t.Errorf("warm pass captured %v traces, want 0", v)
					}
				}
			})
		}
	}
}

func sorted(s []string) []string {
	s = append([]string(nil), s...)
	sort.Strings(s)
	return s
}
