package main

// The fleet-2w workload: a fleet coordinator and two HTTP pull workers
// in one process, with the checkfenced defaults (cube depth 2, 30 s
// lease, 250 ms polls), solving two Relaxed checks one after the other
// through the plan, lease, transport and cube re-solve path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"checkfence/internal/fleet"
	"checkfence/internal/harness"
	"checkfence/internal/job"
	"checkfence/internal/refimpl"
	"checkfence/internal/spec"
)

// fleetChecks are the distributed checks; both pass on Relaxed. Set-up
// warms each fleet with fleetWarmup, which the timed checks do not
// repeat.
var (
	fleetChecks      = []struct{ impl, test string }{{"snark", "Da"}, {"msn", "Ti2"}}
	quickFleetChecks = []struct{ impl, test string }{{"msn", "Tpc2"}}
	fleetWarmup      = job.Check{Program: job.Program{Name: "msn"}, Test: "T0", Model: "relaxed"}
)

const (
	fleetWorkers = 2
	// fleetCheckTimeout fails a distributed check that hangs, well
	// inside the run's time limit.
	fleetCheckTimeout = 120 * time.Second
)

type fleetCheck struct {
	name string
	ck   job.Check
	ref  *spec.Set
}

type fleetWorkload struct {
	cfg       *config
	checks    []fleetCheck
	coord     *fleet.Coordinator
	handler   http.Handler
	http      *http.Server
	transport *http.Transport // the workers' HTTP transport
	cancel    context.CancelFunc
	workers   sync.WaitGroup
	tr        atomic.Pointer[tracer] // set during a traced pass
	polls     atomic.Int64           // polls the coordinator has served
	ready     chan struct{}          // closed when every worker has polled
	events    fleetEvents
}

// fleetEvents is what the wrapped coordinator handler saw during a
// traced pass.
type fleetEvents struct {
	mu          sync.Mutex
	polls       int
	usefulPolls int
	dispatched  map[string]lease // task ID -> lease
	boundRounds int
}

type lease struct {
	worker        string
	start, finish time.Time
}

func newFleet(cfg *config) workload { return &fleetWorkload{cfg: cfg} }

func (w *fleetWorkload) setup() error {
	list := fleetChecks
	if w.cfg.quick {
		list = quickFleetChecks
	}
	w.checks = nil
	for _, c := range list {
		impl, err := harness.Get(c.impl)
		if err != nil {
			return err
		}
		test, err := harness.GetTest(impl, c.test)
		if err != nil {
			return err
		}
		ref, err := refimpl.Enumerate(impl, test)
		if err != nil {
			return err
		}
		w.checks = append(w.checks, fleetCheck{
			name: c.impl + "/" + c.test,
			ck:   job.Check{Program: job.Program{Name: c.impl}, Test: c.test, Model: "relaxed"},
			ref:  ref,
		})
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	rng.Shuffle(len(w.checks), func(i, j int) { w.checks[i], w.checks[j] = w.checks[j], w.checks[i] })
	return w.start()
}

// start brings up a coordinator and its workers.
func (w *fleetWorkload) start() error {
	ready := make(chan struct{})
	w.polls.Store(0)
	w.ready = ready // before Serve starts, so handlers see it
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{CubeDepth: 2, Lease: 30 * time.Second, MaxRetries: 3})
	if err != nil {
		return err
	}
	w.coord = coord
	w.handler = coord.Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.http = &http.Server{Handler: http.HandlerFunc(w.serve)}
	go w.http.Serve(ln) // returns http.ErrServerClosed after close
	url := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	w.transport = &http.Transport{}
	client := &http.Client{Transport: &tracedTransport{w: w, base: w.transport}}
	for i := 0; i < fleetWorkers; i++ {
		wk, err := fleet.NewWorker(fleet.WorkerConfig{
			ID: fmt.Sprintf("w%d", i+1), URL: url,
			Client: fleet.RetryClient{HTTP: client},
		})
		if err != nil {
			return err
		}
		w.workers.Add(1)
		go func() {
			defer w.workers.Done()
			_ = wk.Run(ctx) // returns the context's error once close cancels it
		}()
	}
	// The fleet is up once every worker has polled. Workers poll as they
	// start and re-poll only after the coordinator's 250 ms hint, so the
	// first fleetWorkers polls come one from each.
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		return fmt.Errorf("fleet workers did not poll within 10s")
	}
	// Warm the fleet with one small check outside the timed set, as a
	// long-running fleet is warm: connections open, heap grown.
	ctx, cancel = context.WithTimeout(context.Background(), fleetCheckTimeout)
	defer cancel()
	out, err := w.coord.CheckDistributed(ctx, fleetWarmup)
	if err != nil {
		return fmt.Errorf("fleet warm-up: %w", err)
	}
	if out.Verdict != "pass" {
		return fmt.Errorf("fleet warm-up: verdict %q, want pass (%s)", out.Verdict, out.Err)
	}
	return nil
}

func (w *fleetWorkload) close() {
	if w.cancel != nil {
		w.cancel()
		w.workers.Wait()
		// An idle client connection that never sent a request would hold
		// Shutdown for 5 s.
		w.transport.CloseIdleConnections()
	}
	if w.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = w.http.Shutdown(ctx) // the listener is ours; errors leave nothing to undo
	}
	if w.coord != nil {
		w.coord.Close()
	}
	w.cancel, w.http, w.coord = nil, nil, nil
}

// reset replaces the fleet between passes: a coordinator keeps the
// task IDs of finished checks and drops the results of an identical
// check submitted again as duplicates, so that check never finishes
// (see NOTES.md).
func (w *fleetWorkload) reset() error {
	w.close()
	return w.start()
}

func (w *fleetWorkload) run(tr *tracer) (*passOut, error) {
	before := w.coord.Metrics()
	if tr != nil {
		w.events = fleetEvents{dispatched: map[string]lease{}}
		w.tr.Store(tr)
		defer w.tr.Store(nil)
	}
	out := &passOut{correct: true}
	for _, c := range w.checks {
		s := tr.open(c.name, "fleet.check", 0)
		t0 := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), fleetCheckTimeout)
		res, err := w.coord.CheckDistributed(ctx, c.ck)
		cancel()
		d := time.Since(t0)
		if s != nil {
			tr.end(s)
		}
		out.attempted++
		out.checkMS = append(out.checkMS, ms(d))
		why := ""
		switch set := res.SpecSet(); {
		case err != nil:
			why = "error: " + err.Error()
		case res.Err != "":
			why = "error: " + res.Err
		case !res.Pass || res.Verdict != "pass":
			why = "verdict " + res.Verdict + ", want pass"
		case set == nil || !set.Equal(c.ref):
			why = "observation set differs from the reference"
		default:
			out.ok++
		}
		if why != "" {
			out.correct = false
		}
		w.cfg.detail("check %-10s %-5s %9.1f ms degraded=%q %s", c.name, res.Verdict, ms(d), res.Degraded, why)
	}
	if tr != nil {
		m := w.coord.Metrics()
		tr.count("fleet.requeues", float64(m.Requeues-before.Requeues))
		tr.count("fleet.local_fallbacks", float64(m.LocalFallbacks-before.LocalFallbacks))
	}
	return out, nil
}

// serve is the coordinator's handler, wrapped so that a traced pass
// records a span per request, the leases it grants, and the outcomes
// workers report.
func (w *fleetWorkload) serve(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/fleet/v1/poll" && w.polls.Add(1) == fleetWorkers {
		close(w.ready)
	}
	tr := w.tr.Load()
	if tr == nil {
		w.handler.ServeHTTP(rw, r)
		return
	}
	body, _ := io.ReadAll(r.Body) // a short read surfaces as a decode error in the handler
	r.Body = io.NopCloser(bytes.NewReader(body))
	parent, _ := strconv.ParseInt(r.Header.Get("X-Cfbench-Parent"), 10, 64)
	s := tr.open(r.Header.Get("X-Cfbench-Request"), "fleet.handle", parent)
	rec := &recorder{ResponseWriter: rw}
	w.handler.ServeHTTP(rec, r)
	tr.end(s)

	ev := &w.events
	ev.mu.Lock()
	defer ev.mu.Unlock()
	switch r.URL.Path {
	case "/fleet/v1/poll":
		ev.polls++
		var req fleet.PollRequest
		var resp fleet.PollResponse
		if json.Unmarshal(body, &req) == nil && json.Unmarshal(rec.buf.Bytes(), &resp) == nil && resp.Task != nil {
			ev.usefulPolls++
			ev.dispatched[resp.Task.ID] = lease{worker: req.Worker, start: s.End}
		}
	case "/fleet/v1/result":
		var req fleet.ResultRequest
		if json.Unmarshal(body, &req) == nil {
			if l, ok := ev.dispatched[req.TaskID]; ok && l.finish.IsZero() {
				l.finish = s.Start
				ev.dispatched[req.TaskID] = l
			}
			ev.boundRounds += req.Outcome.BoundRounds
		}
	}
}

// recorder keeps a copy of a (small JSON) response body.
type recorder struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	r.buf.Write(b)
	return r.ResponseWriter.Write(b)
}

// tracedTransport is the workers' HTTP transport; during a traced pass
// it records a client-side span per request, from sending to the
// response body's close.
type tracedTransport struct {
	w    *fleetWorkload
	base http.RoundTripper
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	tr := t.w.tr.Load()
	if tr == nil {
		return t.base.RoundTrip(r)
	}
	s := tr.open(r.URL.Path, "fleet.http", 0)
	r = r.Clone(r.Context())
	r.Header.Set("X-Cfbench-Parent", strconv.FormatInt(s.ID, 10))
	r.Header.Set("X-Cfbench-Request", r.URL.Path)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		tr.end(s)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { tr.end(s) }}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	e.once.Do(e.end)
	return err
}

func (w *fleetWorkload) layers(tr *tracer) (map[string]float64, error) {
	m := zeroLayers()
	m["fleet.requeues"] = tr.counters["fleet.requeues"]
	m["fleet.local_fallbacks"] = tr.counters["fleet.local_fallbacks"]

	tr.mu.Lock()
	var checks []span
	client := map[int64]time.Duration{}
	handler := map[int64]time.Duration{}
	for _, s := range tr.spans {
		switch s.Name {
		case "fleet.check":
			checks = append(checks, s)
		case "fleet.http":
			client[s.ID] = s.dur()
		case "fleet.handle":
			handler[s.Parent] = s.dur()
		}
	}
	tr.mu.Unlock()
	for id, d := range client {
		m["fleet.transport_ms"] += ms(d - handler[id])
	}

	ev := &w.events
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if ev.polls > 0 {
		m["fleet.poll_useful_frac"] = float64(ev.usefulPolls) / float64(ev.polls)
	}
	m["core.bound_rounds"] = float64(ev.boundRounds)
	leases := map[string][]lease{}
	var starts []time.Time
	for _, l := range ev.dispatched {
		if l.finish.IsZero() {
			return nil, fmt.Errorf("a lease granted to %s never reported a result", l.worker)
		}
		m["fleet.cube_work_ms"] += ms(l.finish.Sub(l.start))
		leases[l.worker] = append(leases[l.worker], l)
		starts = append(starts, l.start)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	m["bench.span_coverage_min"] = 1
	for _, c := range checks {
		// Plan time: from the call to the first lease of its cubes,
		// including the wait for the first poll.
		plan := lease{start: c.Start, finish: c.Start}
		for _, t := range starts {
			if !t.Before(c.Start) {
				plan.finish = t
				m["fleet.plan_ms"] += ms(t.Sub(c.Start))
				break
			}
		}
		// Coverage: the share of the check's time spent planning or
		// holding at least one lease.
		all := []lease{plan}
		for _, ls := range leases {
			all = append(all, ls...)
		}
		if cov := float64(covered(all, c.Start, c.End)) / float64(c.dur()); cov < m["bench.span_coverage_min"] {
			m["bench.span_coverage_min"] = cov
		}
		// Lease wait: the time each worker held no lease while the
		// check was in progress.
		for i := 0; i < fleetWorkers; i++ {
			busy := time.Duration(0)
			for _, l := range leases[fmt.Sprintf("w%d", i+1)] {
				lo, hi := maxTime(l.start, c.Start), minTime(l.finish, c.End)
				if hi.After(lo) {
					busy += hi.Sub(lo)
				}
			}
			m["fleet.lease_wait_ms"] += ms(c.dur() - busy)
		}
	}
	return m, nil
}

// covered returns how much of [lo, hi] the union of the intervals
// covers.
func covered(ivs []lease, lo, hi time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		s, e := maxTime(iv.start, cur), minTime(iv.finish, hi)
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
