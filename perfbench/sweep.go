package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	mom "repro"
	"repro/internal/serve"
	"repro/internal/store"
)

// Shape of the serve-sweep request stream. Its repeats follow Zipf's law
// (exponent 1) as closely as math/rand allows, since it needs s > 1. The
// immediate twins are there so that coalescing runs at all: the other
// client submits the twin while the first is still in flight.
const (
	sweepClients = 2                    // closed-loop clients
	pollInterval = 2 * time.Millisecond // fixed status-poll period
	zipfS        = 1.1                  // skew of repeat popularity
	dupFrac      = 0.05                 // share of items repeated at once, to meet their twin in flight
)

// sweepJobs is the length of one pass's stream: enough that the 99th
// percentile has at least ten samples beyond it.
func sweepJobs(sc mom.Scale) int {
	if sc == mom.ScaleTest {
		return 200
	}
	return 2000
}

// sweepGrid is how many catalog requests a pass's grid covers: the whole
// catalog at bench scale, so that every seed computes the same requests,
// and a seeded tenth of it at test scale, so that a pass is short.
func sweepGrid(sc mom.Scale, catalog int) int {
	if sc == mom.ScaleTest {
		return catalog / 10
	}
	return catalog
}

// sweepApps are the applications of the app jobs: the three whose
// test-scale runs are short enough for a pass of thousands of jobs.
var sweepApps = []string{"jpegencode", "jpegdecode", "gsmencode"}

// sweepCatalog lists every request the stream draws from, all at test
// scale: kernels on perfect memory at every width, and apps on the four
// detailed hierarchies at 4- and 8-way issue (the widths the hierarchy
// models; see README.md).
func sweepCatalog() []mom.JobRequest {
	var out []mom.JobRequest
	for _, k := range mom.KernelNames() {
		for _, i := range mom.AllISAs {
			for _, w := range []int{1, 2, 4, 8} {
				for _, m := range []string{"perfect", "perfect50"} {
					out = append(out, mom.JobRequest{Exp: "kernel", Kernel: k, ISA: i.String(), Width: w, Mem: m})
				}
			}
		}
	}
	for _, a := range sweepApps {
		for _, i := range mom.AllISAs {
			for _, w := range []int{4, 8} {
				for _, m := range []string{"conv", "multi", "vector", "collapsing"} {
					out = append(out, mom.JobRequest{Exp: "app", App: a, ISA: i.String(), Width: w, Mem: m})
				}
			}
		}
	}
	return out
}

// sweepStream draws a pass's n catalog indices from the seed, the way the
// sweep client uses the service: a grid pass submits grid distinct
// requests once each, in seeded order; then the rest of the stream asks
// for grid points again (a sweep re-run, users sharing popular
// configurations), Zipf-skewed over a seeded popularity order.
func sweepStream(seed int64, n, grid, catalog int) []int {
	r := rand.New(rand.NewSource(seed))
	points := r.Perm(catalog)[:grid]
	popular := r.Perm(grid)
	z := rand.NewZipf(r, zipfS, 1, uint64(grid-1))
	out := make([]int, 0, n)
	for i := 0; len(out) < n; i++ {
		k := points[popular[z.Uint64()]]
		if i < grid {
			k = points[i]
		}
		out = append(out, k)
		if r.Float64() < dupFrac && len(out) < n {
			out = append(out, k)
		}
	}
	return out
}

// jobSample is one job as its client saw it.
type jobSample struct {
	Req       int    `json:"req"` // catalog index
	LatencyNS int64  `json:"latency_ns"`
	Hit       bool   `json:"hit,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	QueueNS   int64  `json:"queue_ns,omitempty"` // created → started, from the job document
	ExecNS    int64  `json:"exec_ns,omitempty"`  // started → finished
	Digest    string `json:"digest,omitempty"`
	Insts     uint64 `json:"insts,omitempty"`
	Err       string `json:"err,omitempty"`
}

// sweep is a job service listening on loopback with a fresh result store.
type sweep struct {
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	catalog []mom.JobRequest
	stream  []int
}

func startSweep(dir string, seed int64, sc mom.Scale) (*sweep, error) {
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sweep{
		srv:     serve.New(serve.Config{Workers: runtime.GOMAXPROCS(0), Store: st}),
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: sweepClients}},
		catalog: sweepCatalog(),
	}
	s.stream = sweepStream(seed, sweepJobs(sc), sweepGrid(sc, len(s.catalog)), len(s.catalog))
	s.hs = &http.Server{Handler: s.srv}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the worker pool down and waits for both.
func (s *sweep) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-s.served; err != http.ErrServerClosed {
		return err
	}
	return s.srv.Shutdown(ctx)
}

// run drives the stream with the closed-loop clients and returns every
// job and the wall time from the first submission to the last result.
func (s *sweep) run(tr *tracer, parent int) ([]jobSample, time.Duration) {
	out := make([]jobSample, len(s.stream))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < sweepClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.stream) {
					return
				}
				out[i] = s.job(s.stream[i], tr, parent)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// jobDoc is the part of the service's job document the clients read.
type jobDoc struct {
	ID        string     `json:"id"`
	State     string     `json:"state"`
	FromStore bool       `json:"from_store"`
	Coalesced bool       `json:"coalesced"`
	Error     string     `json:"error"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
}

// job submits one request, polls it to a terminal state and fetches the
// result. Any error, non-2xx reply or failed job fails the job.
func (s *sweep) job(req int, tr *tracer, parent int) jobSample {
	js := jobSample{Req: req}
	span := tr.begin("serve.job", parent)
	defer tr.end(span)
	body, err := json.Marshal(s.catalog[req])
	if err != nil {
		js.Err = err.Error()
		return js
	}
	t0 := time.Now()
	var doc jobDoc
	sp := tr.begin("serve.submit", span)
	err = s.call(http.MethodPost, "/v1/jobs", body, &doc)
	tr.end(sp)
	for err == nil && (doc.State == serve.StateQueued || doc.State == serve.StateRunning) {
		time.Sleep(pollInterval)
		sp = tr.begin("serve.poll", span)
		err = s.call(http.MethodGet, "/v1/jobs/"+doc.ID, nil, &doc)
		tr.end(sp)
	}
	if err == nil && doc.State != serve.StateDone {
		err = fmt.Errorf("job %s %s: %s", doc.ID, doc.State, doc.Error)
	}
	var res []byte
	if err == nil {
		sp = tr.begin("serve.result", span)
		res, err = s.get("/v1/jobs/" + doc.ID + "/result")
		tr.end(sp)
	}
	js.LatencyNS = time.Since(t0).Nanoseconds()
	if err != nil {
		js.Err = err.Error()
		return js
	}
	js.Hit, js.Coalesced = doc.FromStore, doc.Coalesced
	if doc.Started != nil && doc.Finished != nil {
		js.QueueNS = doc.Started.Sub(doc.Created).Nanoseconds()
		js.ExecNS = doc.Finished.Sub(*doc.Started).Nanoseconds()
	}
	js.Digest = digest(res)
	var r struct {
		Insts uint64 `json:"insts"`
	}
	if err := json.Unmarshal(res, &r); err != nil {
		js.Err = err.Error()
	}
	js.Insts = r.Insts
	return js
}

func (s *sweep) call(method, path string, body []byte, v any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

func (s *sweep) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// serveSetup starts the service and draws the stream: a fresh momserver
// with an empty result store, as a user would start one.
func serveSetup(c *child) error {
	var err error
	c.sweep, err = startSweep(filepath.Join(c.dir, "results"), c.opts.seed, c.opts.scale)
	return err
}

func servePass(c *child) (passReport, error) {
	jobs, d := c.sweep.run(c.tr, c.cur)
	return sweepReport(jobs, d), nil
}

// sweepReport counts the simulated instructions of the jobs the service
// executed: store hits and coalesced followers simulate nothing.
func sweepReport(jobs []jobSample, d time.Duration) passReport {
	p := passReport{Seconds: d.Seconds(), Jobs: jobs}
	for _, j := range jobs {
		if j.Err == "" && !j.Hit && !j.Coalesced {
			p.Insts += j.Insts
		}
	}
	return p
}

// checkJobs recomputes every distinct request in process with
// mom.RunJobRequest, off the clock, and counts the jobs whose result
// differs or that failed.
func (b *parent) checkJobs(jobs []jobSample) (int, error) {
	catalog := sweepCatalog()
	want := map[int]string{}
	for _, j := range jobs {
		want[j.Req] = ""
	}
	reqs := make([]int, 0, len(want))
	for r := range want {
		reqs = append(reqs, r)
	}
	sort.Ints(reqs)
	digests := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				doc, err := mom.RunJobRequest(context.Background(), catalog[reqs[i]])
				digests[i], errs[i] = digest(doc), err
			}
		}()
	}
	wg.Wait()
	for i, r := range reqs {
		if errs[i] != nil {
			return 0, fmt.Errorf("reference run of %+v: %w", catalog[r], errs[i])
		}
		want[r] = digests[i]
	}
	failed := 0
	for _, j := range jobs {
		switch {
		case j.Err != "":
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %+v failed: %s\n", catalog[j.Req], j.Err)
		case j.Digest != want[j.Req]:
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: job %+v result differs from mom.RunJobRequest\n", catalog[j.Req])
		}
	}
	return failed, nil
}

// probeSweep runs a short serve-sweep stream inside a traced fig7 child,
// so every traced run reports the serve and store layers.
func (c *child) probeSweep(parent int) ([]jobSample, error) {
	s, err := startSweep(filepath.Join(c.dir, "probe-store"), c.opts.seed, mom.ScaleTest)
	if err != nil {
		return nil, err
	}
	jobs, _ := s.run(c.tr, parent)
	return jobs, s.stop()
}
