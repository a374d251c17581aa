package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"

	mom "repro"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/store"
	"repro/internal/trace"
)

// maxInsts caps every emulation and replay of the layer suite, like the
// drivers' own safety cap.
const maxInsts = 400_000_000

// storeOps is how many result-document puts and gets the store layer times.
const storeOps = 200

// hierModes names the detailed hierarchies as the per-layer metrics do.
var hierModes = map[mom.CacheMode]struct {
	mode mem.VectorMode
	name string
}{
	mom.Conventional:     {mem.ModeConventional, "conventional"},
	mom.MultiAddress:     {mem.ModeMultiAddress, "multi-address"},
	mom.VectorCache:      {mem.ModeVectorCache, "vector-cache"},
	mom.CollapsingBuffer: {mem.ModeCollapsing, "collapsing"},
}

// isaExts maps the public ISA levels to the cpu and emu layers' levels.
var isaExts = map[mom.ISA]isa.Ext{
	mom.Alpha: isa.ExtAlpha, mom.MMX: isa.ExtMMX, mom.MDMX: isa.ExtMDMX, mom.MOM: isa.ExtMOM,
}

// layerTotals accumulates the deterministic work units the layer suite
// divides its span times by.
type layerTotals struct {
	emuInsts, records, memBytes, encBytes, artBytes uint64
	perfectInsts, sampledInsts                      uint64
	access                                          map[string]uint64
	warmAccesses                                    uint64
	simCycles, l1Hits, l1Lookups                    uint64
	allocs, allocRuns                               uint64
}

// layers is the traced run's layer suite. Figure7 is opaque, so it
// re-drives the same work through each layer's public functions, one
// trace at a time on one goroutine: build → emu → capture → encode →
// decode → Next / WarmNext → cpu on perfect memory and on every Figure 7
// hierarchy, exact and sampled. The composed cycles must equal the
// recorded Figure 7 rows exactly.
func (c *child) layers(rep *childReport) error {
	ref, err := loadReference(c.opts.scale)
	if err != nil {
		return err
	}
	scratch := filepath.Join(c.dir, "layers")
	art, err := store.Open(filepath.Join(scratch, "artifacts"), 0)
	if err != nil {
		return err
	}
	n := layerTotals{access: map[string]uint64{}}
	root := c.tr.begin("layers", 0)
	for _, t := range figure7Traces() {
		if err := c.layerTrace(t, root, ref, art, &n, rep); err != nil {
			return err
		}
	}
	if err := c.layerStore(filepath.Join(scratch, "results"), root); err != nil {
		return err
	}
	c.tr.end(root)
	if c.opts.workload != "serve-sweep" {
		probe := c.tr.begin("serve-probe", 0)
		rep.ProbeJobs, err = c.probeSweep(probe)
		c.tr.end(probe)
		if err != nil {
			return err
		}
	}
	if err := os.RemoveAll(scratch); err != nil {
		return err
	}

	t := c.tr.total
	per := func(name string, units uint64) float64 { return float64(t(name).Nanoseconds()) / float64(units) }
	L := map[string]float64{
		"emu.ns_per_inst":                 per("emu.Machine.Run", n.emuInsts),
		"trace.capture_ns_per_rec":        per("trace.Capture", n.records),
		"trace.encode_ns_per_byte":        per("trace.Trace.WriteTo", n.encBytes),
		"trace.decode_ns_per_byte":        per("trace.Decode", n.encBytes),
		"trace.next_ns_per_rec":           per("trace.Reader.Next", n.records),
		"trace.warmnext_ns_per_rec":       per("trace.Reader.WarmNext", n.records),
		"trace.bytes_per_rec":             float64(n.memBytes) / float64(n.records),
		"cpu.run_ns_per_inst":             float64((t("cpu.Sim.Run/perfect") - t("trace.Reader.Next")).Nanoseconds()) / float64(n.perfectInsts),
		"cpu.sampled_ns_per_inst":         per("cpu.Sim.RunSampled", n.sampledInsts),
		"cpu.allocs_per_run":              float64(n.allocs) / float64(n.allocRuns),
		"cpu.sim_cycles":                  float64(n.simCycles),
		"mem.warm_ns_per_access":          per("mem.Hierarchy.Warm", n.warmAccesses),
		"mem.l1_hit_frac":                 float64(n.l1Hits) / float64(n.l1Lookups),
		"store.get_us":                    float64(t("store.Get").Microseconds()) / storeOps,
		"store.put_us":                    float64(t("store.Put").Microseconds()) / storeOps,
		"store.artifact_read_ns_per_byte": per("store.GetStream", n.artBytes),
	}
	for _, m := range hierModes {
		L["mem.hier_ns_per_access."+m.name] = per("mem.Hierarchy/"+m.name, n.access[m.name])
	}
	rep.Layers = L
	return nil
}

// layerTrace runs the layer suite over one Figure 7 trace.
func (c *child) layerTrace(id traceID, parent int, ref *reference, art *store.Store, n *layerTotals, rep *childReport) error {
	tr := c.tr
	name := id.app + "/" + id.isa.String()
	top := tr.begin("trace "+name, parent)
	defer tr.end(top)
	s := tr.begin("mom.BuildApp", top)
	prog, err := mom.BuildApp(id.app, id.isa, c.opts.scale)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.begin("emu.Machine.Run", top)
	steps, err := emu.New(prog).Run(maxInsts)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("emulate %s: %w", name, err)
	}
	n.emuInsts += steps

	s = tr.begin("trace.Capture", top)
	captured, err := trace.Capture(emu.New(prog), maxInsts, 0)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("capture %s: %w", name, err)
	}
	n.records += captured.Records()
	n.memBytes += uint64(captured.Bytes())

	var buf bytes.Buffer
	buf.Grow(int(captured.EncodedSize()))
	s = tr.begin("trace.Trace.WriteTo", top)
	_, err = captured.WriteTo(&buf)
	tr.end(s)
	if err != nil {
		return err
	}
	n.encBytes += uint64(buf.Len())
	captured = nil // let the capture go before the decoded copy is made

	s = tr.begin("trace.Decode", top)
	dec, err := trace.Decode(bytes.NewReader(buf.Bytes()), prog)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("decode %s: %w", name, err)
	}

	key := mom.TraceArtifactKey(true, id.app, id.isa, c.opts.scale)
	if err := art.Put(key, buf.Bytes()); err != nil {
		return err
	}
	buf = bytes.Buffer{}
	s = tr.begin("store.GetStream", top)
	rc, size, ok := art.GetStream(key)
	if ok {
		_, err = io.Copy(io.Discard, rc)
		rc.Close()
	}
	tr.end(s)
	if !ok || err != nil {
		return fmt.Errorf("artifact read %s: %v", name, err)
	}
	n.artBytes += uint64(size)
	art.Invalidate(key)

	s = tr.begin("trace.Reader.Next", top)
	r := dec.Reader()
	for {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	tr.end(s)
	s = tr.begin("trace.Reader.WarmNext", top)
	dec.Reader().WarmNext(math.MaxUint64, nopSink{})
	tr.end(s)

	ext := isaExts[id.isa]
	cfg4 := cpu.NewConfig(4, ext)
	s = tr.begin("cpu.Sim.Run/perfect", top)
	res, err := cpu.New(cfg4, mem.NewPerfect(1)).Run(dec.Reader(), maxInsts)
	tr.end(s)
	if err != nil {
		return err
	}
	n.perfectInsts += res.Insts
	n.allocs += runAllocs(func() { cpu.New(cfg4, mem.NewPerfect(1)).Run(dec.Reader(), maxInsts) })
	n.allocRuns++

	// The memory layer alone: the recorded address stream of this trace
	// fed to each hierarchy Figure 7 pairs with the ISA, one access per
	// cycle, then to the same hierarchy's tag-only warming path.
	var stream addrStream
	dec.Reader().WarmNext(math.MaxUint64, &stream)
	rate := cfg4.MemPorts * cfg4.MemPortLanes
	for _, fc := range mom.Figure7Configs {
		if fc.ISA != id.isa {
			continue
		}
		hm := hierModes[fc.Cache]
		h := mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: hm.mode})
		s = tr.begin("mem.Hierarchy/"+hm.name, top)
		stream.replay(h, rate)
		tr.end(s)
		n.access[hm.name] += uint64(len(stream))
		h = mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: hm.mode})
		s = tr.begin("mem.Hierarchy.Warm", top)
		stream.warm(h)
		tr.end(s)
		n.warmAccesses += uint64(len(stream))
	}
	stream = nil

	// The composition: every Figure 7 point of this trace, exact and
	// sampled, checked against the recorded rows.
	for _, fc := range mom.Figure7Configs {
		if fc.ISA != id.isa {
			continue
		}
		for _, w := range []int{4, 8} {
			hier := mem.HierConfig{Width: w, Mode: hierModes[fc.Cache].mode}
			row := fmt.Sprintf("%s %s %d", id.app, fc, w)
			s = tr.begin("cpu.Sim.Run/hierarchy", top)
			res, err := cpu.New(cpu.NewConfig(w, ext), mem.NewHierarchy(hier)).Run(dec.Reader(), maxInsts)
			tr.end(s)
			if err != nil {
				return err
			}
			n.simCycles += uint64(res.Cycles)
			n.l1Hits += res.Mem.L1Hits
			n.l1Lookups += res.Mem.L1Lookups
			rep.Checked++
			if want := ref.exact[row]; res.Cycles != want.Cycles || res.Insts != want.Insts {
				rep.Mismatches++
				fmt.Fprintf(os.Stderr, "perfbench: composed exact %s: %d cycles %d insts, Figure7 row %d cycles %d insts\n",
					row, res.Cycles, res.Insts, want.Cycles, want.Insts)
			}

			sp := mom.DefaultSampleSpec
			s = tr.begin("cpu.Sim.RunSampled", top)
			sres, err := cpu.New(cpu.NewConfig(w, ext), mem.NewHierarchy(hier)).RunSampled(dec.Reader(), maxInsts,
				cpu.SampleSpec{Period: sp.Period, Warmup: sp.Warmup, Interval: sp.Interval, Parallelism: 1})
			tr.end(s)
			if err != nil {
				return err
			}
			// The row's cycles are the whole-run estimate at the sampled
			// IPC, as mom.SampledInfo.EstCycles derives it.
			est := int64(math.Round(float64(sres.Sampled.TotalInsts) * float64(sres.Cycles) / float64(sres.Insts)))
			n.sampledInsts += sres.Sampled.TotalInsts
			rep.Checked++
			if want := ref.sampled[row]; est != want.Cycles || sres.Sampled.TotalInsts != want.Insts {
				rep.Mismatches++
				fmt.Fprintf(os.Stderr, "perfbench: composed sampled %s: %d cycles %d insts, Figure7Sampled row %d cycles %d insts\n",
					row, est, sres.Sampled.TotalInsts, want.Cycles, want.Insts)
			}
		}
	}
	return nil
}

// runAllocs counts the heap allocations of f exactly: one P and no GC, so
// neither pool clearing nor P migration changes the count.
func runAllocs(f func()) uint64 {
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	}()
	f() // fill the pools the measured run draws from
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// layerStore times result-document puts and gets on a fresh store.
func (c *child) layerStore(dir string, parent int) error {
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	doc, err := mom.RunJobRequest(context.Background(), mom.JobRequest{Exp: "app", App: sweepApps[0], Mem: "multi"})
	if err != nil {
		return err
	}
	keys := make([]string, storeOps)
	for i := range keys {
		keys[i] = digest([]byte(strconv.Itoa(i)))
	}
	for _, k := range keys {
		s := c.tr.begin("store.Put", parent)
		err := st.Put(k, doc)
		c.tr.end(s)
		if err != nil {
			return err
		}
	}
	for _, k := range keys {
		s := c.tr.begin("store.Get", parent)
		_, ok := st.Get(k)
		c.tr.end(s)
		if !ok {
			return fmt.Errorf("store get %s missed", k)
		}
	}
	return nil
}

type nopSink struct{}

func (nopSink) WarmBranch(int, bool)                {}
func (nopSink) WarmScalar(uint64, int, bool)        {}
func (nopSink) WarmVector(uint64, int64, int, bool) {}

// access is one recorded memory record.
type access struct {
	ea     uint64
	stride int64
	n      int32
	size   int8
	kind   int8 // accLoad...
}

const (
	accLoad = iota
	accStore
	accVLoad
	accVStore
)

// addrStream records a trace's memory records as a trace.WarmSink.
type addrStream []access

func (a *addrStream) WarmBranch(int, bool) {}

func (a *addrStream) WarmScalar(ea uint64, size int, store bool) {
	k := int8(accLoad)
	if store {
		k = accStore
	}
	*a = append(*a, access{ea: ea, size: int8(size), n: 1, kind: k})
}

func (a *addrStream) WarmVector(ea uint64, stride int64, n int, store bool) {
	k := int8(accVLoad)
	if store {
		k = accVStore
	}
	*a = append(*a, access{ea: ea, stride: stride, n: int32(n), kind: k})
}

func (a addrStream) replay(h *mem.Hierarchy, rate int) {
	for i, x := range a {
		cycle := int64(i)
		switch x.kind {
		case accLoad:
			h.Load(cycle, x.ea, int(x.size))
		case accStore:
			h.Store(cycle, x.ea, int(x.size))
		case accVLoad:
			h.LoadVector(cycle, x.ea, x.stride, int(x.n), rate)
		case accVStore:
			h.StoreVector(cycle, x.ea, x.stride, int(x.n), rate)
		}
	}
}

func (a addrStream) warm(h *mem.Hierarchy) {
	for _, x := range a {
		switch x.kind {
		case accLoad:
			h.WarmLoad(x.ea, int(x.size))
		case accStore:
			h.WarmStore(x.ea, int(x.size))
		case accVLoad:
			h.WarmLoadVector(x.ea, x.stride, int(x.n))
		case accVStore:
			h.WarmStoreVector(x.ea, x.stride, int(x.n))
		}
	}
}
