package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	mom "repro"
)

// setupProbes is how many times a run sets up a long-lived child
// (fig7-exact-warm) to take the median set-up time; per-pass workloads
// set up once per pass.
const setupProbes = 5

// minPasses is the fewest passes a run makes on a per-process workload,
// however short -seconds is.
const minPasses = 3

// workload describes one benchmark workload. Children run setup, signal
// readiness (the end of set-up time) and then run passes; the parent
// decides how many children and passes make up a run.
type workload struct {
	// perProcess workloads start every pass in a fresh child process, so
	// each pass sees an empty process-global trace cache.
	perProcess bool
	// prepare runs in the parent before the first child (off the clock).
	prepare func(b *parent) error
	// setup runs in the child before the ready signal.
	setup func(c *child) error
	// pass runs one timed op in the child.
	pass func(c *child) (passReport, error)
}

var workloads = map[string]*workload{
	"fig7-exact-warm": {
		prepare: fillArtifacts,
		setup:   warmSetup,
		pass:    exactPass,
	},
	"fig7-sampled-cold": {
		perProcess: true,
		setup:      coldSetup,
		pass:       sampledPass,
	},
	"serve-sweep": {
		perProcess: true,
		setup:      serveSetup,
		pass:       servePass,
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// passReport is what a child reports about one timed op.
type passReport struct {
	Seconds float64 `json:"seconds"`
	// Insts is the simulated dynamic instructions the op covered.
	Insts  uint64 `json:"insts"`
	Digest string `json:"digest,omitempty"` // fig7 result document
	Err    string `json:"err,omitempty"`
	// Jobs are the serve-sweep jobs of the op (empty for fig7).
	Jobs []jobSample `json:"jobs,omitempty"`
	// Layer counters of a traced pass.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// childReport is the last line a child prints.
type childReport struct {
	Passes []passReport `json:"passes"`
	// Layers are the per-layer metrics of a traced child.
	Layers map[string]float64 `json:"layers,omitempty"`
	// ProbeJobs are the jobs of a traced child's serve probe.
	ProbeJobs []jobSample `json:"probe_jobs,omitempty"`
	// Mismatches counts layer-composition results that differ from the
	// Figure 7 reference rows (traced children only).
	Checked    int `json:"checked,omitempty"`
	Mismatches int `json:"mismatches,omitempty"`
}

// childRun is one finished child as the parent saw it.
type childRun struct {
	setup  time.Duration // process start to the ready signal
	rssMB  float64
	report childReport
}

type parent struct {
	opts options
	dir  string
	self string
	seq  int
}

// newDir returns a fresh, not yet existing directory under the run dir.
func (b *parent) newDir(name string) string {
	b.seq++
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, b.seq))
}

// spawn runs one child to completion. Set-up time is measured here, from
// just before the process starts to the moment its ready line arrives.
func (b *parent) spawn(mode, dir string, passes int, passSecs float64, traced bool) (childRun, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	scale := "bench"
	if b.opts.scale != mom.ScaleBench {
		scale = "test"
	}
	cmd := exec.Command(b.self, "-child", mode, "-dir", dir,
		"-workload", b.opts.workload, "-seed", strconv.FormatInt(b.opts.seed, 10),
		"-trace", tr, "-scale", scale,
		"-passes", strconv.Itoa(passes),
		"-pass-seconds", strconv.FormatFloat(passSecs, 'g', -1, 64))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // never outlive the harness
	out, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	var run childRun
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 64<<20)
	var last []byte
	for sc.Scan() {
		line := sc.Bytes()
		if string(line) == readyLine {
			run.setup = time.Since(t0)
			continue
		}
		last = append(last[:0], line...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return childRun{}, fmt.Errorf("child %s: %w", mode, err)
	}
	if scanErr != nil {
		return childRun{}, fmt.Errorf("child %s output: %w", mode, scanErr)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		run.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if mode == "pass" {
		if run.setup == 0 {
			return childRun{}, errors.New("child pass: no ready signal")
		}
		if err := json.Unmarshal(last, &run.report); err != nil {
			return childRun{}, fmt.Errorf("child %s report: %w", mode, err)
		}
	}
	return run, nil
}

// measure runs one untraced run of the workload and reduces it to the
// end-to-end metrics.
func (w *workload) measure(b *parent) (*result, error) {
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, err
		}
	}
	var runs []childRun
	start := time.Now()
	if w.perProcess {
		for len(runs) < minPasses || time.Since(start).Seconds() < b.opts.seconds {
			r, err := b.spawn("pass", b.newDir("pass"), 1, 0, false)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
	} else {
		for i := 0; i < setupProbes-1; i++ {
			r, err := b.spawn("pass", b.newDir("probe"), 0, 0, false)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
		}
		r, err := b.spawn("pass", b.newDir("pass"), math.MaxInt32, b.opts.seconds, false)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return b.reduce(runs)
}

// reduce checks every pass and computes the end-to-end metrics. An op is
// one Figure 7 pass on the fig7 workloads and one job on serve-sweep;
// throughputs are medians of the per-pass rates.
func (b *parent) reduce(runs []childRun) (*result, error) {
	var setups, lat, minstPerS, opsPerS []float64
	var rss float64
	var jobs []jobSample
	res := &result{Metrics: map[string]metric{}}
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		rss = max(rss, r.rssMB)
		for _, p := range r.report.Passes {
			res.Attempted++
			if !b.passOK(p) {
				res.Failed++
			}
			minstPerS = append(minstPerS, float64(p.Insts)/p.Seconds/1e6)
			if len(p.Jobs) == 0 {
				lat = append(lat, p.Seconds*1e3)
				opsPerS = append(opsPerS, 1/p.Seconds)
				continue
			}
			jobs = append(jobs, p.Jobs...)
			opsPerS = append(opsPerS, float64(len(p.Jobs))/p.Seconds)
			for _, j := range p.Jobs {
				lat = append(lat, float64(j.LatencyNS)/1e6)
			}
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no timed pass ran")
	}
	if len(jobs) > 0 {
		failed, err := b.checkJobs(jobs)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = len(jobs), res.Failed+failed
	}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["sim_minst_per_s"] = metric{median(minstPerS), "Minst/s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	res.Metrics["job_p50_ms"] = metric{median(lat), "ms"}
	res.Metrics["job_p99_ms"] = metric{percentile(lat, 0.99), "ms"}
	res.Metrics["jobs_per_s"] = metric{median(opsPerS), "1/s"}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d ops, %d failed, %d passes, Minst/s per pass %v\n",
		b.opts.workload, res.Attempted, res.Failed, len(minstPerS), roundAll(minstPerS))
	if len(jobs) > 0 {
		printMix(jobs)
	}
	return res, nil
}

// printMix reports what the service did with the stream's jobs: how many
// distinct requests there were, and the shares computed fresh, served
// from the store and coalesced onto a running twin.
func printMix(jobs []jobSample) {
	distinct := map[int]bool{}
	var hits, coalesced int
	for _, j := range jobs {
		distinct[j.Req] = true
		switch {
		case j.Hit:
			hits++
		case j.Coalesced:
			coalesced++
		}
	}
	n := float64(len(jobs))
	fmt.Fprintf(os.Stderr, "perfbench: stream of %d jobs, %d distinct requests: fresh %.4f, store hits %.4f, coalesced %.4f\n",
		len(jobs), len(distinct), float64(len(jobs)-hits-coalesced)/n, float64(hits)/n, float64(coalesced)/n)
}

// passOK checks one pass: no error, and a fig7 document equal to the
// recorded reference.
func (b *parent) passOK(p passReport) bool {
	if p.Err != "" {
		fmt.Fprintf(os.Stderr, "perfbench: pass failed: %s\n", p.Err)
		return false
	}
	if p.Digest == "" {
		return true
	}
	want := referenceDigest(b.opts.scale, b.opts.workload == "fig7-sampled-cold")
	if p.Digest != want {
		fmt.Fprintf(os.Stderr, "perfbench: fig7 document digest %s, want %s\n", p.Digest, want)
		return false
	}
	return true
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
