package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	mom "repro"
)

// readyLine is the line a child prints when set-up ends and the first
// timed op begins.
const readyLine = "ready"

// artifactBytes bounds the trace artifact store as momsim's default does.
const artifactBytes = 1 << 31

type child struct {
	opts  options
	dir   string  // the child's private directory, absent until a layer creates it
	tr    *tracer // nil in untraced runs
	cur   int     // the span new spans nest under
	sweep *sweep  // serve-sweep only
}

func runChild(mode, dir string, passes int, passSecs float64, o options) error {
	c := &child{opts: o, dir: dir}
	switch mode {
	case "fill":
		return fill(c)
	case "pass":
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	w := workloads[o.workload]
	if o.traced {
		c.tr = newTracer()
	}
	c.cur = c.tr.begin("setup", 0)
	if err := w.setup(c); err != nil {
		return err
	}
	c.tr.end(c.cur)
	fmt.Println(readyLine)
	var rep childReport
	start := time.Now()
	for i := 0; i < passes && (i == 0 || time.Since(start).Seconds() < passSecs); i++ {
		rep.Passes = append(rep.Passes, c.timedPass(w))
	}
	if c.sweep != nil {
		if err := c.sweep.stop(); err != nil {
			return err
		}
	}
	if c.tr != nil {
		if err := c.layers(&rep); err != nil {
			return err
		}
		if err := c.tr.write(o); err != nil {
			return err
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// timedPass runs one op; a traced child also records the layer counters
// around it.
func (c *child) timedPass(w *workload) passReport {
	var before counterSnap
	if c.tr != nil {
		before = snapCounters()
	}
	c.cur = c.tr.begin("pass", 0)
	p, err := w.pass(c)
	c.tr.end(c.cur)
	if err != nil {
		p.Err = err.Error()
	}
	if c.tr != nil {
		p.Counters = snapCounters().since(before)
	}
	return p
}

// figure7Traces lists the (app, ISA) traces Figure 7 replays.
func figure7Traces() []traceID {
	var out []traceID
	for _, a := range mom.AppNames() {
		for _, i := range mom.AllISAs {
			for _, cfg := range mom.Figure7Configs {
				if cfg.ISA == i {
					out = append(out, traceID{a, i})
					break
				}
			}
		}
	}
	return out
}

type traceID struct {
	app string
	isa mom.ISA
}

// artifactDir is the shared trace artifact directory of a run, filled
// once by the fill child before any fig7-exact-warm child starts.
func artifactDir(childDir string) string {
	return filepath.Join(filepath.Dir(childDir), "artifacts")
}

// fillArtifacts fills the run's artifact directory off the clock, in its
// own process, so measured children start with an empty RAM cache.
func fillArtifacts(b *parent) error {
	_, err := b.spawn("fill", b.newDir("fill"), 0, 0, false)
	return err
}

func fill(c *child) error {
	if _, err := mom.OpenTraceArtifacts(artifactDir(c.dir), artifactBytes); err != nil {
		return err
	}
	for _, t := range figure7Traces() {
		if mom.CaptureWorkloadTrace(true, t.app, t.isa, c.opts.scale) == nil {
			return fmt.Errorf("capture %s/%s failed", t.app, t.isa)
		}
	}
	if st := mom.ReadTraceStats(); st.DiskWrites != int64(len(figure7Traces())) {
		return fmt.Errorf("fill wrote %d artifacts, want %d", st.DiskWrites, len(figure7Traces()))
	}
	return nil
}

// warmSetup is a restarted `momsim -trace-store DIR`: open the filled
// artifact directory and acquire every Figure 7 trace from disk.
func warmSetup(c *child) error {
	if _, err := mom.OpenTraceArtifacts(artifactDir(c.dir), artifactBytes); err != nil {
		return err
	}
	for _, t := range figure7Traces() {
		span := c.tr.begin("mom.CaptureWorkloadTrace", c.cur)
		tr := mom.CaptureWorkloadTrace(true, t.app, t.isa, c.opts.scale)
		c.tr.end(span)
		if tr == nil {
			return fmt.Errorf("acquire %s/%s failed", t.app, t.isa)
		}
	}
	if st := mom.ReadTraceStats(); st.Captures != 0 {
		return errors.New("warm set-up captured traces: the artifact directory was not filled")
	}
	return nil
}

// coldSetup is a fresh `momsim -sample ... -trace-store DIR` on an empty
// directory.
func coldSetup(c *child) error {
	_, err := mom.OpenTraceArtifacts(filepath.Join(c.dir, "artifacts"), artifactBytes)
	return err
}

func exactPass(c *child) (passReport, error) {
	t0 := time.Now()
	rows, err := mom.Figure7(context.Background(), c.opts.scale)
	return fig7Report(rows, time.Since(t0), err)
}

func sampledPass(c *child) (passReport, error) {
	t0 := time.Now()
	rows, err := mom.Figure7Sampled(context.Background(), c.opts.scale, mom.DefaultSampleSpec)
	return fig7Report(rows, time.Since(t0), err)
}

// fig7Report digests the pass's result document (checked by the parent
// against the recorded reference) and counts its simulated instructions:
// every instruction of every row, detailed or fast-forwarded.
func fig7Report(rows []mom.AppSpeedup, d time.Duration, err error) (passReport, error) {
	p := passReport{Seconds: d.Seconds()}
	if err != nil {
		return p, err
	}
	doc, err := fig7Doc(rows)
	if err != nil {
		return p, err
	}
	p.Digest = digest(doc)
	for _, r := range rows {
		p.Insts += r.Insts
	}
	return p, nil
}

func fig7Doc(rows []mom.AppSpeedup) ([]byte, error) {
	var buf bytes.Buffer
	err := mom.WriteExperimentJSON(&buf, "fig7", rows)
	return buf.Bytes(), err
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
