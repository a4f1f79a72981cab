package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/job"
)

// CoordinatorConfig tunes the fault-tolerance machinery. The zero
// value is usable; every knob has a conservative default.
type CoordinatorConfig struct {
	// CubeDepth is the cube-and-conquer split depth for fan-out
	// planning: a check splits into up to 2^CubeDepth cubes (0 = 2).
	CubeDepth int
	// Lease is the lease granted per task; a worker must heartbeat
	// within it or the task requeues (0 = 30s).
	Lease time.Duration
	// MaxRetries bounds dispatch attempts per task before the
	// coordinator solves it locally (0 = 3).
	MaxRetries int
	// BaseBackoff seeds the exponential requeue backoff (0 = 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps one requeue backoff step (0 = 5s).
	MaxBackoff time.Duration
	// PoisonThreshold is the number of distinct workers a task may
	// cost their lease before it is quarantined and solved locally
	// with a stripped serial strategy (0 = 3).
	PoisonThreshold int
	// SpeculateAfter re-dispatches a task still leased after this long
	// to a second worker, first result wins (0 = never).
	SpeculateAfter time.Duration
	// HealthWindow is the per-worker sliding window length for health
	// scoring (0 = 8).
	HealthWindow int
	// DrainFailures drains a worker (polls return no work) when its
	// window holds at least this many failures (0 = 3).
	DrainFailures int
	// DrainCooldown is how long after its last failure a drained
	// worker stays drained (0 = 2x Lease).
	DrainCooldown time.Duration
	// JournalPath enables crash recovery: plans and accepted results
	// are appended as JSON lines and replayed on restart.
	JournalPath string
	// PollRetryAfter hints idle workers when to poll again (0 = 250ms).
	PollRetryAfter time.Duration
	// Local configures local (fallback and aggregation-oracle) solves.
	Local core.SuiteOptions
}

func (c CoordinatorConfig) cubeDepth() int {
	if c.CubeDepth <= 0 {
		return 2
	}
	return c.CubeDepth
}

func (c CoordinatorConfig) lease() time.Duration {
	if c.Lease <= 0 {
		return 30 * time.Second
	}
	return c.Lease
}

func (c CoordinatorConfig) maxRetries() int {
	if c.MaxRetries <= 0 {
		return 3
	}
	return c.MaxRetries
}

func (c CoordinatorConfig) poisonThreshold() int {
	if c.PoisonThreshold <= 0 {
		return 3
	}
	return c.PoisonThreshold
}

func (c CoordinatorConfig) healthWindow() int {
	if c.HealthWindow <= 0 {
		return 8
	}
	return c.HealthWindow
}

func (c CoordinatorConfig) drainFailures() int {
	if c.DrainFailures <= 0 {
		return 3
	}
	return c.DrainFailures
}

func (c CoordinatorConfig) drainCooldown() time.Duration {
	if c.DrainCooldown > 0 {
		return c.DrainCooldown
	}
	return 2 * c.lease()
}

func (c CoordinatorConfig) pollRetryAfter() time.Duration {
	if c.PollRetryAfter <= 0 {
		return 250 * time.Millisecond
	}
	return c.PollRetryAfter
}

// Metrics is a snapshot of the coordinator's fault-tolerance
// counters, exposed on the daemon's /metrics surface.
type Metrics struct {
	TasksDispatched  int64 // leases granted (including re-dispatch)
	TasksCompleted   int64 // results accepted (first per task)
	LeaseExpirations int64 // leases lost to missing heartbeats
	Requeues         int64 // tasks put back after a lost lease or error
	Quarantines      int64 // poison circuit-breaker trips
	Speculations     int64 // straggler re-dispatches
	DupResults       int64 // results for tasks that already have their outcome
	LateResults      int64 // results rejected after lease reassignment
	LocalFallbacks   int64 // tasks solved locally after retry exhaustion
	SpecMismatches   int64 // PASS aggregations with divergent specs
	WorkersDrained   int64 // polls refused for unhealthy workers
	JournalReplayed  int64 // task outcomes restored from the journal
}

// task is one unit in the coordinator's queue.
type task struct {
	id    string
	check job.Check

	state      string               // "queued" | "leased" | "done"
	leases     map[string]time.Time // worker -> lease expiry
	attempts   int
	nextAt     time.Time // not dispatchable before (requeue backoff)
	failedBy   map[string]bool
	speculated bool
	queued     bool      // has an entry in the dispatch queue
	leasedAt   time.Time // first lease of the current dispatch round
	localCause string    // degradation cause when claimed for a local solve

	outcome Outcome
	from    string // worker (or "local"/"journal") that produced outcome
}

// parent is one undivided check being aggregated.
type parent struct {
	fp      string
	check   job.Check
	tasks   []*task
	pending int
	done    chan struct{}

	outcome Outcome
	err     error
}

// workerHealth is one worker's sliding interaction window: true =
// lease honored (result accepted), false = lease lost.
type workerHealth struct {
	window   []bool
	lastFail time.Time
}

func (h *workerHealth) record(ok bool, windowLen int) {
	h.window = append(h.window, ok)
	if len(h.window) > windowLen {
		h.window = h.window[len(h.window)-windowLen:]
	}
	if !ok {
		h.lastFail = time.Now()
	}
}

func (h *workerHealth) failures() int {
	n := 0
	for _, ok := range h.window {
		if !ok {
			n++
		}
	}
	return n
}

// Coordinator plans fan-outs, leases tasks to polling workers, and
// aggregates cube outcomes into parent verdicts. Create with
// NewCoordinator, mount Handler on an HTTP server, submit checks with
// CheckDistributed, stop with Close.
type Coordinator struct {
	cfg     CoordinatorConfig
	journal *journal
	rng     *rand.Rand

	mu      sync.Mutex
	queue   []*task // dispatch order; nextAt-gated
	tasks   map[string]*task
	done    map[string]bool // completed task IDs of checks in flight, for duplicate dedup
	parents map[string]*parent
	health  map[string]*workerHealth
	metrics Metrics

	janitorStop chan struct{}
	janitorDone chan struct{}
	closed      bool
}

// NewCoordinator builds a coordinator and starts its lease janitor.
// The journal (when configured) is opened and replayed lazily, per
// parent fingerprint, at CheckDistributed time.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	c := &Coordinator{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		tasks:       map[string]*task{},
		done:        map[string]bool{},
		parents:     map[string]*parent{},
		health:      map[string]*workerHealth{},
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	if cfg.JournalPath != "" {
		j, err := openJournal(cfg.JournalPath)
		if err != nil {
			return nil, err
		}
		c.journal = j
	}
	go c.janitor()
	return c, nil
}

// Close stops the janitor and the journal. In-flight CheckDistributed
// calls are not interrupted (cancel their contexts instead).
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.janitorStop)
	<-c.janitorDone
	if c.journal != nil {
		c.journal.Close()
	}
}

// Metrics returns a snapshot of the fault-tolerance counters.
func (c *Coordinator) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.metrics
}

// janitor scans leases every lease/4 (bounded below at 10ms): expired
// leases requeue their task with backoff, long-running leased tasks
// are speculatively re-dispatched.
func (c *Coordinator) janitor() {
	defer close(c.janitorDone)
	period := c.cfg.lease() / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-t.C:
			c.sweepLeases()
		}
	}
}

// sweepLeases is one janitor pass.
func (c *Coordinator) sweepLeases() {
	now := time.Now()
	c.mu.Lock()
	var locals []*task
	for _, t := range c.tasks {
		if t.state != "leased" {
			continue
		}
		var oldest time.Time
		for w, exp := range t.leases {
			if now.After(exp) {
				delete(t.leases, w)
				t.failedBy[w] = true
				c.metrics.LeaseExpirations++
				c.healthLocked(w).record(false, c.cfg.healthWindow())
			} else if oldest.IsZero() || exp.Before(oldest) {
				oldest = exp
			}
		}
		if len(t.leases) == 0 {
			if lt := c.requeueLocked(t, now); lt != nil {
				locals = append(locals, lt)
			}
			continue
		}
		// Straggler speculation: the task is still honoring its lease
		// (heartbeats renew it) but has been out since its first lease
		// longer than the speculation horizon — put a second copy in
		// the queue; first result wins and dedup drops the loser.
		if c.cfg.SpeculateAfter > 0 && !t.speculated && !t.queued &&
			!t.leasedAt.IsZero() && now.Sub(t.leasedAt) > c.cfg.SpeculateAfter {
			t.speculated = true
			t.queued = true
			c.metrics.Speculations++
			c.queue = append(c.queue, t)
		}
	}
	c.mu.Unlock()
	for _, t := range locals {
		c.solveLocally(t, t.localCause)
	}
}

// requeueLocked puts a lease-less task back in the queue with
// exponential backoff plus jitter, or — when the retry budget or the
// poison circuit breaker trips — returns it for a local solve.
// Caller holds c.mu.
func (c *Coordinator) requeueLocked(t *task, now time.Time) *task {
	t.state = "queued"
	t.attempts++
	c.metrics.Requeues++
	if len(t.failedBy) >= c.cfg.poisonThreshold() {
		// The cube has cost several distinct workers their lease:
		// assume the formula (not the workers) is the problem and
		// solve it here with a stripped serial strategy.
		t.state = "done" // claimed by the local solver
		t.localCause = "quarantine"
		c.metrics.Quarantines++
		return t
	}
	if t.attempts > c.cfg.maxRetries() {
		t.state = "done" // claimed by the local solver
		t.localCause = "local-fallback"
		c.metrics.LocalFallbacks++
		return t
	}
	backoff := c.cfg.BaseBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	max := c.cfg.MaxBackoff
	if max <= 0 {
		max = 5 * time.Second
	}
	d := backoff << uint(t.attempts-1)
	if d > max || d <= 0 {
		d = max
	}
	d += time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	t.nextAt = now.Add(d)
	t.speculated = false
	t.leasedAt = time.Time{}
	if !t.queued {
		t.queued = true
		c.queue = append(c.queue, t)
	}
	return nil
}

// solveLocally runs a task in the coordinator process (retry budget
// exhausted or quarantine) and feeds the outcome into aggregation.
// The verdict is degraded in provenance, never in value.
func (c *Coordinator) solveLocally(t *task, cause string) {
	out := c.runLocal(t.check)
	out.Degraded = cause
	c.acceptOutcome(t.id, "local", out, true)
}

// runLocal executes a check description in-process under the
// coordinator's local suite options.
func (c *Coordinator) runLocal(ck job.Check) Outcome {
	cj, err := ck.CoreJob()
	if err != nil {
		return Outcome{Err: err.Error()}
	}
	opts := c.cfg.Local
	opts.Parallelism = 1
	opts.OnResult = nil
	results := core.RunSuite([]core.Job{cj}, opts)
	return OutcomeFromResult(results[0].Res, results[0].Err)
}

// healthLocked returns (allocating) the worker's health record.
// Caller holds c.mu.
func (c *Coordinator) healthLocked(w string) *workerHealth {
	h := c.health[w]
	if h == nil {
		h = &workerHealth{}
		c.health[w] = h
	}
	return h
}

// drainedLocked reports whether the worker is currently drained:
// enough failures in its window and still inside the cooldown.
// Caller holds c.mu.
func (c *Coordinator) drainedLocked(w string) bool {
	h := c.health[w]
	if h == nil {
		return false
	}
	return h.failures() >= c.cfg.drainFailures() &&
		time.Since(h.lastFail) < c.cfg.drainCooldown()
}

// CheckDistributed verifies one check through the fleet: the check is
// split into cubes (when it splits), the cubes queued for workers, and
// the aggregated outcome returned once every cube has one. Concurrent
// calls for the same description share one fan-out (single-flight on
// the fingerprint). Cancelling ctx abandons the wait — queued work
// keeps its journal, so a restarted coordinator resumes it.
func (c *Coordinator) CheckDistributed(ctx context.Context, ck job.Check) (Outcome, error) {
	if err := ck.Validate(); err != nil {
		return Outcome{}, err
	}
	fp := ck.Fingerprint()

	c.mu.Lock()
	p, inflight := c.parents[fp]
	if !inflight {
		p = &parent{fp: fp, check: ck, done: make(chan struct{})}
		c.parents[fp] = p
	}
	c.mu.Unlock()

	if !inflight {
		if err := c.launch(p); err != nil {
			c.mu.Lock()
			delete(c.parents, fp)
			c.mu.Unlock()
			return Outcome{}, err
		}
	}

	select {
	case <-p.done:
	case <-ctx.Done():
		return Outcome{}, ctx.Err()
	}
	c.mu.Lock()
	delete(c.parents, fp)
	out, err := p.outcome, p.err
	c.mu.Unlock()
	return out, err
}

// launch plans the fan-out for a parent (or replays it from the
// journal) and queues its unfinished tasks.
func (c *Coordinator) launch(p *parent) error {
	var checks []job.Check
	var replayed map[int]Outcome
	if c.journal != nil {
		plan, outs, err := c.journal.Replay(p.fp)
		if err != nil {
			return err
		}
		checks, replayed = plan, outs
	}
	if checks == nil {
		var err error
		checks, err = c.plan(p.check)
		if err != nil {
			return err
		}
		if c.journal != nil {
			if err := c.journal.WritePlan(p.fp, checks); err != nil {
				return err
			}
		}
	}

	c.mu.Lock()
	p.tasks = make([]*task, len(checks))
	for i, ck := range checks {
		t := &task{
			id:       TaskID(p.fp, i),
			check:    ck,
			state:    "queued",
			leases:   map[string]time.Time{},
			failedBy: map[string]bool{},
		}
		p.tasks[i] = t
		if out, ok := replayed[i]; ok {
			t.state = "done"
			t.outcome = out
			t.from = "journal"
			c.done[t.id] = true
			c.metrics.JournalReplayed++
			continue
		}
		t.queued = true
		c.tasks[t.id] = t
		c.queue = append(c.queue, t)
		p.pending++
	}
	pending := p.pending
	c.mu.Unlock()
	if pending == 0 {
		c.finish(p)
	}
	return nil
}

// plan splits a check into cube descriptions, falling back to a
// single whole-check task when it does not usefully split (too few
// order variables, rf-forced backend, planning failure).
func (c *Coordinator) plan(ck job.Check) ([]job.Check, error) {
	fp := ck.Fingerprint()
	single := []job.Check{withCube(ck, fp, 0, nil)}
	if ck.Backend == "rf" {
		return single, nil // no SAT order variables to split on
	}
	impl, test, err := ck.Resolve()
	if err != nil {
		return nil, err
	}
	opts, err := ck.Options()
	if err != nil {
		return nil, err
	}
	cubes, err := core.CubeAssumptions(impl, test, opts, c.cfg.cubeDepth())
	if err != nil || len(cubes) < 2 {
		// Planning failure is not a check failure: degrade to an
		// undivided dispatch.
		return single, nil
	}
	out := make([]job.Check, len(cubes))
	for i, cube := range cubes {
		out[i] = withCube(ck, fp, i, cube)
	}
	return out, nil
}

// withCube stamps a description as cube i of the parent fingerprint.
func withCube(ck job.Check, fp string, i int, assume []int) job.Check {
	ck.Assume = append([]int(nil), assume...)
	ck.CubeOf = fp
	ck.CubeIndex = i
	// A cube must never join a model-sweep group on the worker (the
	// assumptions are per-encoding), and core excludes it; making it
	// explicit here keeps the wire description self-describing.
	if len(assume) > 0 {
		ck.Sweep = "off"
	}
	return ck
}

// acceptOutcome is the exactly-once aggregation point: the first
// outcome per task wins, everything else (duplicate delivery, late
// results after reassignment, speculative losers) is counted and
// dropped. local marks coordinator-produced outcomes.
func (c *Coordinator) acceptOutcome(taskID, worker string, out Outcome, local bool) bool {
	c.mu.Lock()
	if c.done[taskID] {
		// The task already has its one outcome: a transport-level
		// duplicate, a speculative loser, or a result that lost the
		// race to a local fallback.
		c.metrics.DupResults++
		c.mu.Unlock()
		return false
	}
	t, ok := c.tasks[taskID]
	if !ok {
		// Neither open nor in the done-set: the task's check has
		// finished and finish dropped its IDs, so the task had its
		// outcome — a duplicate like the above, arriving later.
		c.metrics.DupResults++
		c.mu.Unlock()
		return false
	}
	if !local {
		if _, leased := t.leases[worker]; !leased && t.state != "done" {
			// The worker lost its lease (expired and requeued) but the
			// result still arrived. With the task not yet claimed by a
			// local solve this is still useful work — but accepting it
			// would race the redispatched copy, so only accept when the
			// lease is current. Count it; the redispatch will answer.
			c.metrics.LateResults++
			c.healthLocked(worker).record(false, c.cfg.healthWindow())
			c.mu.Unlock()
			return false
		}
	}
	if out.Err != "" && !local {
		// The check failed to run on the worker: treat as a lost
		// lease — requeue with backoff (or fall back locally).
		delete(t.leases, worker)
		t.failedBy[worker] = true
		c.healthLocked(worker).record(false, c.cfg.healthWindow())
		var lt *task
		if len(t.leases) == 0 {
			lt = c.requeueLocked(t, time.Now())
		}
		c.mu.Unlock()
		if lt != nil {
			c.solveLocally(lt, lt.localCause)
		}
		return false
	}
	t.state = "done"
	t.outcome = out
	t.from = worker
	t.leases = map[string]time.Time{}
	c.metrics.TasksCompleted++
	c.done[taskID] = true
	if !local {
		c.healthLocked(worker).record(true, c.cfg.healthWindow())
	}
	delete(c.tasks, taskID)

	// Journal before aggregation: a crash after this line replays the
	// outcome instead of re-running the cube.
	var jerr error
	if c.journal != nil {
		jerr = c.journal.WriteOutcome(t)
	}
	p := c.parents[parentOf(t)]
	var finished *parent
	if p != nil {
		p.pending--
		if p.pending == 0 {
			finished = p
		}
	}
	c.mu.Unlock()
	_ = jerr // journal write failure degrades recovery, not the verdict
	if finished != nil {
		c.finish(finished)
	}
	return true
}

// parentOf extracts the parent fingerprint from a task.
func parentOf(t *task) string { return t.check.CubeOf }

// finish aggregates a parent's task outcomes and signals waiters.
func (c *Coordinator) finish(p *parent) {
	out, redo := aggregate(p.tasks)
	if redo {
		// PASS cubes disagreed on the observation set — an invariant
		// violation (mining is cube-independent). Degrade: discard the
		// distributed outcomes and solve the undivided check locally.
		c.mu.Lock()
		c.metrics.SpecMismatches++
		c.metrics.LocalFallbacks++
		c.mu.Unlock()
		out = c.runLocal(p.check)
		out.Degraded = "spec-mismatch"
	}
	c.mu.Lock()
	p.outcome = out
	// The check is answered: forget its task IDs, so the maps stay
	// bounded and an identical check submitted later plans afresh
	// instead of having its results dropped as duplicates.
	for _, t := range p.tasks {
		delete(c.done, t.id)
		delete(c.tasks, t.id)
	}
	close(p.done)
	c.mu.Unlock()
}

// aggregate folds cube outcomes into the parent verdict:
//
//	any FAIL  -> FAIL (deterministic pick: seq-bug first, then lowest
//	             bound-round count, then lowest cube index)
//	all PASS  -> PASS, requiring byte-identical observation sets
//	             (redo=true on mismatch)
//	otherwise -> UNKNOWN (some cube exhausted its budget; the merged
//	             budget trail is preserved)
//
// Soundness: the cubes are jointly exhaustive over the split
// variables, so an execution violating the specification exists iff it
// exists in some cube, and no execution violates it iff no cube has
// one. See DESIGN.md.
func aggregate(tasks []*task) (out Outcome, redo bool) {
	var fail, unknown *Outcome
	for i := range tasks {
		o := &tasks[i].outcome
		switch {
		case o.Err != "":
			// Local fallback also failed — surface the error.
			return *o, false
		case o.Verdict == "fail":
			if fail == nil || betterFail(o, fail) {
				fail = o
			}
		case o.Verdict == "unknown":
			if unknown == nil {
				unknown = o
			}
		}
	}
	if fail != nil {
		return *fail, false
	}
	if unknown != nil {
		return *unknown, false
	}
	// All PASS: the observation sets must agree byte-for-byte (the
	// specification is cube-independent).
	out = tasks[0].outcome
	for _, t := range tasks[1:] {
		if t.outcome.Spec != out.Spec {
			return Outcome{}, true
		}
		if t.outcome.Degraded != "" && out.Degraded == "" {
			out.Degraded = t.outcome.Degraded
		}
	}
	return out, false
}

// betterFail orders failing outcomes for deterministic adoption:
// sequential bugs dominate (they are model-independent and cheapest to
// explain), then the failure found at the fewest bound rounds.
func betterFail(a, b *Outcome) bool {
	if a.SeqBug != b.SeqBug {
		return a.SeqBug
	}
	return a.BoundRounds < b.BoundRounds
}

// ---- HTTP surface ----------------------------------------------------

// Handler returns the coordinator's HTTP API: POST /fleet/v1/poll,
// /fleet/v1/heartbeat, /fleet/v1/result.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/v1/poll", c.handlePoll)
	mux.HandleFunc("/fleet/v1/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/fleet/v1/result", c.handleResult)
	return mux
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Worker == "" {
		http.Error(w, "worker id required", http.StatusBadRequest)
		return
	}
	resp := c.Poll(req.Worker)
	w.Header().Set("Content-Type", "application/json")
	if resp.Task == nil && resp.RetryAfterMS >= 1000 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", resp.RetryAfterMS/1000))
	}
	json.NewEncoder(w).Encode(resp)
}

// Poll hands the calling worker the next dispatchable task (or a
// retry hint). Drained workers get no work until their cooldown ends.
func (c *Coordinator) Poll(worker string) PollResponse {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drainedLocked(worker) {
		c.metrics.WorkersDrained++
		return PollResponse{RetryAfterMS: c.cfg.drainCooldown().Milliseconds()}
	}
	// One compacting scan: finished entries (local solves, speculative
	// copies whose primary won) are dropped, the first dispatchable
	// task is leased to the worker, everything else is kept in order.
	kept := c.queue[:0]
	var granted *task
	for _, t := range c.queue {
		if t.state == "done" {
			t.queued = false
			continue
		}
		if granted != nil || now.Before(t.nextAt) {
			kept = append(kept, t)
			continue
		}
		// A worker that already failed this task is excluded only while
		// the task is fresh in the queue — a grace of one lease past its
		// backoff. After that anyone may retry it: otherwise a fleet
		// whose every worker failed the task would starve it instead of
		// draining the retry budget into the local fallback.
		if t.failedBy[worker] && now.Before(t.nextAt.Add(c.cfg.lease())) {
			kept = append(kept, t)
			continue
		}
		if _, has := t.leases[worker]; has {
			kept = append(kept, t) // speculation must use a different worker
			continue
		}
		granted = t
		t.queued = false
	}
	c.queue = kept
	if granted == nil {
		return PollResponse{RetryAfterMS: c.cfg.pollRetryAfter().Milliseconds()}
	}
	granted.state = "leased"
	granted.leases[worker] = now.Add(c.cfg.lease())
	if granted.leasedAt.IsZero() {
		granted.leasedAt = now
	}
	c.metrics.TasksDispatched++
	return PollResponse{Task: &Task{
		ID:      granted.id,
		Check:   granted.check,
		LeaseMS: c.cfg.lease().Milliseconds(),
	}}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if c.Heartbeat(req.Worker, req.TaskID) {
		w.WriteHeader(http.StatusOK)
		return
	}
	http.Error(w, "lease gone", http.StatusGone)
}

// Heartbeat renews the worker's lease on the task; false means the
// lease is gone (expired and reassigned, or the task is finished) and
// the worker should abandon the work.
func (c *Coordinator) Heartbeat(worker, taskID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tasks[taskID]
	if !ok || t.state != "leased" {
		return false
	}
	if _, has := t.leases[worker]; !has {
		return false
	}
	t.leases[worker] = time.Now().Add(c.cfg.lease())
	return true
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req ResultRequest
	if !decodeInto(w, r, &req) {
		return
	}
	c.acceptOutcome(req.TaskID, req.Worker, req.Outcome, false)
	// Both accepted and deduplicated results answer 200: the worker's
	// obligation ends either way (at-least-once delivery semantics).
	w.WriteHeader(http.StatusOK)
}

// QueueDepth reports queued (dispatchable or backing-off) tasks.
func (c *Coordinator) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.queue {
		if t.state != "done" {
			n++
		}
	}
	return n
}

// WorkerHealth reports each known worker's failure count within its
// current window, sorted by worker id (metrics and tests).
func (c *Coordinator) WorkerHealth() []struct {
	Worker   string
	Failures int
} {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]struct {
		Worker   string
		Failures int
	}, 0, len(c.health))
	for w, h := range c.health {
		out = append(out, struct {
			Worker   string
			Failures int
		}{w, h.failures()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}
