package main

import (
	"fmt"
	"os"
)

// layerUnits are the per-layer metrics a traced run reports, with units.
var layerUnits = map[string]string{
	"emu.ns_per_inst":                      "ns/inst",
	"trace.capture_ns_per_rec":             "ns/rec",
	"trace.encode_ns_per_byte":             "ns/B",
	"trace.decode_ns_per_byte":             "ns/B",
	"trace.next_ns_per_rec":                "ns/rec",
	"trace.warmnext_ns_per_rec":            "ns/rec",
	"trace.bytes_per_rec":                  "B/rec",
	"cpu.run_ns_per_inst":                  "ns/inst",
	"cpu.sampled_ns_per_inst":              "ns/inst",
	"cpu.allocs_per_run":                   "count",
	"cpu.sim_cycles":                       "cycles",
	"mem.hier_ns_per_access.conventional":  "ns/access",
	"mem.hier_ns_per_access.multi-address": "ns/access",
	"mem.hier_ns_per_access.vector-cache":  "ns/access",
	"mem.hier_ns_per_access.collapsing":    "ns/access",
	"mem.warm_ns_per_access":               "ns/access",
	"mem.l1_hit_frac":                      "frac",
	"mom.captures":                         "count",
	"mom.replays":                          "count",
	"mom.live_runs":                        "count",
	"mom.disk_hits":                        "count",
	"mom.disk_writes":                      "count",
	"par.cpu_util":                         "frac",
	"runtime.alloc_mb_per_pass":            "MB",
	"runtime.gc_cpu_frac":                  "frac",
	"store.get_us":                         "us",
	"store.put_us":                         "us",
	"store.artifact_read_ns_per_byte":      "ns/B",
	"serve.hit_rtt_us":                     "us",
	"serve.queue_wait_ms":                  "ms",
	"serve.exec_ms":                        "ms",
	"serve.store_hit_frac":                 "frac",
	"serve.coalesced_frac":                 "frac",
	"bench.trace_overhead_pct":             "%",
}

// traced runs the workload's traced run: one untraced pass and one traced
// pass, each in its own child, the traced child followed by the layer
// suite. Checks count exactly as in untraced runs, plus the layer
// composition against the Figure 7 rows.
func (b *parent) traced(w *workload) (*result, error) {
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, err
		}
	}
	plain, err := b.spawn("pass", b.newDir("pass"), 1, 0, false)
	if err != nil {
		return nil, err
	}
	tr, err := b.spawn("pass", b.newDir("traced"), 1, 0, true)
	if err != nil {
		return nil, err
	}
	if len(plain.report.Passes) != 1 || len(tr.report.Passes) != 1 {
		return nil, fmt.Errorf("traced run: want one pass per child")
	}
	res := &result{Metrics: map[string]metric{}}
	pp, tp := plain.report.Passes[0], tr.report.Passes[0]
	for _, p := range []passReport{pp, tp} {
		res.Attempted++
		if !b.passOK(p) {
			res.Failed++
		}
	}
	serveJobs := tp.Jobs
	if len(serveJobs) == 0 {
		serveJobs = tr.report.ProbeJobs
	}
	all := append(append(append([]jobSample(nil), pp.Jobs...), tp.Jobs...), tr.report.ProbeJobs...)
	failed, err := b.checkJobs(all)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(all) + tr.report.Checked
	res.Failed += failed + tr.report.Mismatches

	values := map[string]float64{}
	for k, v := range tr.report.Layers {
		values[k] = v
	}
	for k, v := range tp.Counters {
		values[k] = v
	}
	for k, v := range serveLayers(serveJobs) {
		values[k] = v
	}
	values["bench.trace_overhead_pct"] = (tp.Seconds/pp.Seconds - 1) * 100
	for name, unit := range layerUnits {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", name)
		}
		res.Metrics[name] = metric{v, unit}
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s traced: %d ops, %d failed, %d composed rows checked; untraced pass %.3fs, traced pass %.3fs\n",
		b.opts.workload, res.Attempted, res.Failed, tr.report.Checked, pp.Seconds, tp.Seconds)
	printMix(serveJobs)
	return res, nil
}

// serveLayers reduces a stream's jobs to the serve-layer metrics.
func serveLayers(jobs []jobSample) map[string]float64 {
	var hitRTT, queue, exec []float64
	var hits, coalesced int
	for _, j := range jobs {
		switch {
		case j.Hit:
			hits++
			hitRTT = append(hitRTT, float64(j.LatencyNS)/1e3)
		case j.Coalesced:
			coalesced++
		case j.Err == "":
			queue = append(queue, float64(j.QueueNS)/1e6)
			exec = append(exec, float64(j.ExecNS)/1e6)
		}
	}
	return map[string]float64{
		"serve.hit_rtt_us":     median(hitRTT),
		"serve.queue_wait_ms":  median(queue),
		"serve.exec_ms":        median(exec),
		"serve.store_hit_frac": float64(hits) / float64(len(jobs)),
		"serve.coalesced_frac": float64(coalesced) / float64(len(jobs)),
	}
}
