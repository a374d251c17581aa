package mom

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// This file defines the canonical request form of every experiment the
// package can run — the unit of work of the momserver job service and the
// identity under which internal/store caches results. A JobRequest is
// normalised (defaults filled, irrelevant fields cleared, names
// canonicalised) and then hashed, so two requests that mean the same
// computation always produce the same SHA-256 key and, because every
// driver is deterministic and the JSON encoding is canonical (struct
// fields in declaration order, map keys sorted by encoding/json), the
// same stored bytes.

// ExpNames lists the runnable experiments in a stable order: the batch
// drivers first, then the two single-point runs.
var ExpNames = []string{
	"fig5", "fig7", "latency", "profile", "fetch", "hotspots",
	"regsweep", "memsweep", "kernel", "app",
}

// expDescriptions gives every runnable experiment a one-line description,
// surfaced by `momsim -exp list` and the sweep-spec docs so the exp axis
// of a SweepSpec is discoverable from the CLI.
var expDescriptions = map[string]string{
	"fig5":     "kernel speed-ups for every kernel × ISA × width on perfect memory (Figure 5)",
	"fig7":     "application speed-ups on the detailed cache hierarchies (Figure 7)",
	"latency":  "kernel slow-downs when memory latency rises from 1 to 50 cycles (Section 4.1)",
	"profile":  "nine-bucket cycle attribution for every kernel × ISA at 1- and 50-cycle memory",
	"fetch":    "dynamic instruction counts and packed word-operations per instruction",
	"hotspots": "per-PC cycle attribution (annotated disassembly) for every kernel × ISA",
	"regsweep": "cycle cost versus physical matrix-register-file size for one kernel",
	"memsweep": "cycle cost versus MSHR and L1-bank counts for one application",
	"kernel":   "one kernel on one machine point (ISA × width × memory, exact or sampled)",
	"app":      "one application on one machine point (ISA × width × memory, exact or sampled)",
}

// ExpDescription returns the one-line description of a runnable
// experiment ("" for names outside ExpNames).
func ExpDescription(name string) string { return expDescriptions[name] }

// JobRequest identifies one experiment computation. Exp selects the
// driver; the remaining fields parameterise it. Fields an experiment does
// not consume are cleared by Normalized so they cannot split the store key
// space.
type JobRequest struct {
	Exp    string `json:"exp"`              // one of ExpNames
	Scale  string `json:"scale,omitempty"`  // "test" (default) or "bench"
	Width  int    `json:"width,omitempty"`  // latency/profile/hotspots/kernel/app (default 4)
	ISA    string `json:"isa,omitempty"`    // kernel/app (default "MOM")
	Mem    string `json:"mem,omitempty"`    // kernel/app: perfect|perfect50|conv|multi|vector|collapsing (default "perfect")
	Kernel string `json:"kernel,omitempty"` // regsweep/kernel
	App    string `json:"app,omitempty"`    // memsweep/app

	// Sampled-simulation parameters (fig7/profile/hotspots/kernel/app;
	// see SampleSpec). All zero — the default — selects exact simulation,
	// so pre-sampling requests keep their canonical form and key.
	SamplePeriod   uint64 `json:"sample_period,omitempty"`
	SampleWarmup   uint64 `json:"sample_warmup,omitempty"`
	SampleInterval uint64 `json:"sample_interval,omitempty"`

	// SamplePar is the sampled-simulation worker count per run (0 =
	// automatic, see SampleSpec.Parallelism; 1 = serial). It is a pure
	// speed knob — parallel results are bit-identical to serial — so
	// Normalized always clears it: requests differing only in SamplePar
	// share one content-address key and one stored result.
	SamplePar int `json:"sample_par,omitempty"`
}

// Sample assembles the request's sampled-simulation spec.
func (r JobRequest) Sample() SampleSpec {
	return SampleSpec{Period: r.SamplePeriod, Warmup: r.SampleWarmup, Interval: r.SampleInterval,
		Parallelism: r.SamplePar}
}

// BatchRequest is the envelope of the job service's POST /v1/jobs:batch:
// a list of job requests admitted in one round trip — the natural entry
// point for a design-space sweep, which expands a grid of configurations
// into many overlapping requests. Items are deduplicated by content
// address within the batch and against work already in flight before any
// of them reaches the admission queue. TimeoutMS, when set, applies to
// every item (like the single-submit timeout_ms, it is an execution
// deadline, never part of any store key).
type BatchRequest struct {
	Jobs      []JobRequest `json:"jobs"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// requestKeyDoc is the hashed document: the request plus the schema
// version, so a change to the result encoding retires every stored entry.
type requestKeyDoc struct {
	Schema int `json:"schema"`
	JobRequest
}

// ParseISA resolves an ISA name case-insensitively.
func ParseISA(s string) (ISA, error) {
	switch strings.ToLower(s) {
	case "alpha":
		return Alpha, nil
	case "mmx":
		return MMX, nil
	case "mdmx":
		return MDMX, nil
	case "mom":
		return MOM, nil
	}
	return 0, fmt.Errorf("unknown ISA %q (valid: Alpha, MMX, MDMX, MOM)", s)
}

// MemModelNames lists the memory-model selectors accepted by
// ParseMemModel, in a stable order.
var MemModelNames = []string{"perfect", "perfect50", "conv", "multi", "vector", "collapsing"}

// ParseMemModel resolves a memory-model selector (the -cache vocabulary of
// cmd/momsim).
func ParseMemModel(s string) (MemModel, error) {
	switch s {
	case "perfect":
		return PerfectMemory(1), nil
	case "perfect50":
		return PerfectMemory(50), nil
	case "conv":
		return DetailedMemory(Conventional), nil
	case "multi":
		return DetailedMemory(MultiAddress), nil
	case "vector":
		return DetailedMemory(VectorCache), nil
	case "collapsing":
		return DetailedMemory(CollapsingBuffer), nil
	}
	return MemModel{}, fmt.Errorf("unknown memory model %q (valid: %s)", s, strings.Join(MemModelNames, ", "))
}

func parseScale(s string) (Scale, error) {
	switch s {
	case "", "test":
		return ScaleTest, nil
	case "bench":
		return ScaleBench, nil
	}
	return 0, fmt.Errorf("unknown scale %q (valid: test, bench)", s)
}

func validName(kind, name string, valid []string) error {
	for _, n := range valid {
		if n == name {
			return nil
		}
	}
	if name == "" {
		return fmt.Errorf("missing %s (valid: %s)", kind, strings.Join(valid, ", "))
	}
	return fmt.Errorf("unknown %s %q (valid: %s)", kind, name, strings.Join(valid, ", "))
}

// Normalized validates the request and returns its canonical form:
// defaults filled in, names canonicalised (ISA case, scale), and every
// field the experiment does not consume cleared. The canonical form is
// what Key hashes, so e.g. {"exp":"fig5","width":8} and {"exp":"fig5"}
// are the same computation and the same store entry.
func (r JobRequest) Normalized() (JobRequest, error) {
	n := JobRequest{Exp: r.Exp}
	sc, err := parseScale(r.Scale)
	if err != nil {
		return n, err
	}
	n.Scale = "test"
	if sc == ScaleBench {
		n.Scale = "bench"
	}
	width := func() error {
		n.Width = r.Width
		if n.Width == 0 {
			n.Width = 4
		}
		switch n.Width {
		case 1, 2, 4, 8:
			return nil
		}
		return fmt.Errorf("invalid width %d (valid: 1, 2, 4, 8)", n.Width)
	}
	sample := func() error {
		sp := r.Sample()
		if err := sp.Validate(); err != nil {
			return err
		}
		n.SamplePeriod, n.SampleWarmup, n.SampleInterval = sp.Period, sp.Warmup, sp.Interval
		return nil
	}
	// Experiments outside the sampled-capable set reject sampling
	// parameters instead of silently dropping them: a caller asking for a
	// sampled fig5 would otherwise get (and cache) an exact run under a
	// request that promised something else.
	exactOnly := func() error {
		if r.Sample().Enabled() {
			return fmt.Errorf("experiment %q is exact-only: sampling is not supported (sampled-capable: fig7, profile, hotspots, kernel, app)", r.Exp)
		}
		return nil
	}
	point := func(kind string) error {
		if err := width(); err != nil {
			return err
		}
		i := r.ISA
		if i == "" {
			i = "MOM"
		}
		level, err := ParseISA(i)
		if err != nil {
			return err
		}
		n.ISA = level.String()
		m := r.Mem
		if m == "" {
			m = "perfect"
		}
		mm, err := ParseMemModel(m)
		if err != nil {
			return err
		}
		if err := mm.CheckWidth(n.Width); err != nil {
			return err
		}
		n.Mem = m
		if kind == "kernel" {
			n.Kernel = r.Kernel
			return validName("kernel", n.Kernel, KernelNames())
		}
		n.App = r.App
		return validName("app", n.App, AppNames())
	}
	switch r.Exp {
	case "fig5", "fetch":
		if err := exactOnly(); err != nil {
			return n, err
		}
	case "fig7":
		if err := sample(); err != nil {
			return n, err
		}
	case "latency":
		if err := exactOnly(); err != nil {
			return n, err
		}
		if err := width(); err != nil {
			return n, err
		}
	case "profile", "hotspots":
		if err := width(); err != nil {
			return n, err
		}
		if err := sample(); err != nil {
			return n, err
		}
	case "regsweep":
		if err := exactOnly(); err != nil {
			return n, err
		}
		n.Kernel = r.Kernel
		if err := validName("kernel", n.Kernel, KernelNames()); err != nil {
			return n, err
		}
	case "memsweep":
		if err := exactOnly(); err != nil {
			return n, err
		}
		n.App = r.App
		if err := validName("app", n.App, AppNames()); err != nil {
			return n, err
		}
	case "kernel":
		if err := point("kernel"); err != nil {
			return n, err
		}
		if err := sample(); err != nil {
			return n, err
		}
	case "app":
		if err := point("app"); err != nil {
			return n, err
		}
		if err := sample(); err != nil {
			return n, err
		}
	default:
		return n, fmt.Errorf("unknown experiment %q (valid: %s)", r.Exp, strings.Join(ExpNames, ", "))
	}
	return n, nil
}

// CanonicalJSON returns the deterministic byte encoding of the normalised
// request prefixed with the schema version — the store's hashing preimage.
func (r JobRequest) CanonicalJSON() ([]byte, error) {
	n, err := r.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(requestKeyDoc{Schema: SchemaVersion, JobRequest: n})
}

// Key returns the content-addressed store key of the request: the
// lowercase hex SHA-256 of CanonicalJSON.
func (r JobRequest) Key() (string, error) {
	b, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// RunJobRequest executes one request and returns the canonical result
// document — the same single-line JSON the momsim -json paths emit, which
// is what the job service stores and serves. The context cancels the
// parallel drivers between sub-runs (see par.For); identical requests
// yield byte-identical documents.
func RunJobRequest(ctx context.Context, req JobRequest) ([]byte, error) {
	n, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	sc, _ := parseScale(n.Scale)
	var buf bytes.Buffer
	write := func(rows any, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		if err := WriteExperimentJSON(&buf, n.Exp, rows); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	// The worker-count knob is cleared by Normalized (it must not split the
	// key space), so re-apply the caller's choice for execution only.
	sp := n.Sample()
	sp.Parallelism = req.SamplePar
	switch n.Exp {
	case "fig5":
		rows, err := Figure5(ctx, sc)
		return write(rows, err)
	case "fig7":
		rows, err := Figure7Sampled(ctx, sc, sp)
		return write(rows, err)
	case "latency":
		rows, err := LatencyStudy(ctx, sc, n.Width)
		return write(rows, err)
	case "profile":
		rows, err := ProfileStudy(ctx, sc, n.Width, sp)
		return write(rows, err)
	case "fetch":
		rows, err := FetchPressure(ctx, sc)
		return write(rows, err)
	case "hotspots":
		reps, err := HotspotStudy(ctx, sc, n.Width, sp)
		return write(reps, err)
	case "regsweep":
		rows, err := RegisterSweep(ctx, sc, n.Kernel)
		return write(rows, err)
	case "memsweep":
		rows, err := MemorySweep(ctx, sc, n.App)
		return write(rows, err)
	case "kernel", "app":
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		level, _ := ParseISA(n.ISA)
		m, _ := ParseMemModel(n.Mem)
		var res Result
		if n.Exp == "kernel" {
			res, err = RunKernel(n.Kernel, level, n.Width, m, sc, sp)
		} else {
			res, err = RunApp(n.App, level, n.Width, m, sc, sp)
		}
		if err != nil {
			return nil, err
		}
		if err := res.CheckInvariants(); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := WriteResultJSON(&buf, res); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("unknown experiment %q", n.Exp)
}
