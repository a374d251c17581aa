// Command perfbench is the repository benchmark. It drives the public API
// the way users do — mom.Figure7 warm from a trace artifact store,
// mom.Figure7Sampled from a cold start, and the job service over loopback
// HTTP — and prints one JSON result line:
//
//	go run . -workload fig7-exact-warm -seed 1 -seconds 38 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run. The process
// spawns copies of itself ("children") for every measured process so each
// pass can start from an empty process-global trace cache; the parent
// only orchestrates, checks outputs and aggregates. See README.md for the
// workloads, the metrics and the layer → end-to-end → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	mom "repro"
)

// workDir holds everything a run writes: per-run scratch directories and
// the span files of traced runs. It is relative to the working directory,
// which is the repository root.
const workDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scale    mom.Scale
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
		seed     = flag.Int64("seed", 1, "seed of the serve-sweep request stream")
		seconds  = flag.Float64("seconds", 38, "measured seconds per run")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		scale    = flag.String("scale", "bench", "workload scale: bench or test")
		child    = flag.String("child", "", "internal: run as a measured child process (fill or pass)")
		dir      = flag.String("dir", "", "internal: child's run directory")
		passes   = flag.Int("passes", 0, "internal: child's maximum timed passes (0: set-up only)")
		passSecs = flag.Float64("pass-seconds", 0, "internal: child stops starting passes after this many seconds")
		record   = flag.Bool("record", false, "record the Figure 7 reference documents into reference/ and exit")
	)
	flag.Parse()
	sc := mom.ScaleBench
	switch *scale {
	case "bench":
	case "test":
		sc = mom.ScaleTest
	default:
		fatalf("unknown -scale %q (want bench or test)", *scale)
	}
	if *record {
		if err := recordReference(); err != nil {
			fatalf("%v", err)
		}
		return
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1, scale: sc}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if _, ok := workloads[o.workload]; !ok {
		fatalf("unknown -workload %q (valid: %v)", o.workload, workloadNames())
	}
	if *child != "" {
		if err := runChild(*child, *dir, *passes, *passSecs, o); err != nil {
			fatalf("child %s: %v", *child, err)
		}
		return
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if _, err := loadReference(sc); err != nil {
		fatalf("%v", err)
	}
	host := hostRecord(o)
	hostLine, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(hostLine))
	res, err := runParent(o)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runParent runs one workload as the orchestrating process: it prepares
// the run directory, spawns the measured children, checks their outputs
// and reduces them to the result line.
func runParent(o options) (*result, error) {
	runDir, err := filepath.Abs(filepath.Join(workDir, "runs", o.workload+"-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	b := &parent{opts: o, dir: runDir}
	if b.self, err = os.Executable(); err != nil {
		return nil, err
	}
	w := workloads[o.workload]
	if o.traced {
		return b.traced(w)
	}
	return w.measure(b)
}
