// Package core is the CheckFence driver: it orchestrates the pipeline
// of Fig. 3 of the paper — build the harness, lazily unroll loops
// (§3.3), run the range analysis (§3.4), mine the specification
// (§3.2), and perform the inclusion check, producing either PASS or a
// counterexample trace.
package core

import (
	"fmt"
	"runtime"
	"time"

	"checkfence/internal/encode"
	"checkfence/internal/faultinject"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/refimpl"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
	"checkfence/internal/validate"
)

// SpecSource selects how the observation set is obtained.
type SpecSource int

const (
	// SpecSAT mines the set from the implementation itself with the
	// iterative SAT procedure (the default of §3.2).
	SpecSAT SpecSource = iota
	// SpecRef enumerates the set from a small sequential reference
	// implementation (the paper's fast "refset" path).
	SpecRef
)

func (s SpecSource) String() string {
	if s == SpecRef {
		return "refset"
	}
	return "sat"
}

// Options configures a check.
type Options struct {
	// Model is the memory model of the inclusion check.
	Model memmodel.Model
	// Backend selects the verdict engine: BackendAuto (the default)
	// routes per check between the polynomial reads-from engine and
	// SAT via the static cost model; BackendRF/BackendSAT force one
	// engine (rf still degrades to SAT when it cannot answer).
	Backend Backend
	// DisableRangeAnalysis turns §3.4 off (Fig. 11c comparison).
	DisableRangeAnalysis bool
	// SpecSource selects the mining method.
	SpecSource SpecSource
	// Spec, when non-nil, supplies a precomputed observation set and
	// skips mining entirely (the paper notes sets need not be
	// recomputed after implementation changes).
	Spec *spec.Set
	// MaxBoundRounds bounds the lazy loop unrolling iterations.
	MaxBoundRounds int
	// InitialBounds seeds the per-loop-instance unrolling bounds.
	InitialBounds map[string]int
	// SpecCache, when non-nil, memoizes mined observation sets keyed
	// by (implementation source, test, bounds, spec source). The spec
	// is model-independent (§3.2), so a suite checking several models
	// mines once per key. RunSuite installs a shared cache
	// automatically.
	SpecCache *SpecCache
	// MaxMineIterations caps the mining enumeration (0 = the spec
	// package default).
	MaxMineIterations int
	// Cancel, when non-nil and closed, aborts the check: SAT solves
	// stop at their next check point and the check returns an error
	// wrapping spec.ErrSolverUnknown. RunSuite wires its context here.
	Cancel <-chan struct{}
	// SimplifyLevel selects the circuit-level minimization applied
	// while encoding: 0 (the default) uses the full pipeline
	// (two-level AIG rewriting plus polarity-aware CNF encoding), 1
	// and 2 select the rewriting level explicitly, and -1 disables
	// both rewriting and polarity-aware encoding (classic two-polarity
	// Tseitin), for comparisons.
	SimplifyLevel int
	// NoPreprocess disables the SatELite-style CNF preprocessing
	// (variable elimination, subsumption, self-subsuming resolution)
	// that otherwise runs before the first solve of mining and of the
	// inclusion check.
	NoPreprocess bool
	// NoInprocess disables the solver's inprocessing layer (clause
	// vivification, on-the-fly subsumption, the tiered learnt-clause
	// database, chronological backtracking), which is otherwise on for
	// every solver of the check.
	NoInprocess bool
	// NoOrderReduce disables the model-aware memory-order encoding
	// reduction (constant-fixing of forced order variables, merging of
	// interchangeable pairs, skeleton-only transitivity).
	NoOrderReduce bool
	// NoValidate skips the independent re-validation of every decoded
	// counterexample (internal/validate), which otherwise re-checks the
	// memory-model axioms over the concrete event list and replays each
	// thread through the reference interpreter. A validation failure is
	// a hard internal error, never a verdict.
	NoValidate bool
	// Deadline bounds the wall-clock time of the whole check, across
	// every ladder rung (0 = none). A check that exhausts it returns
	// VerdictUnknown with a BudgetReport rather than an error.
	Deadline time.Duration
	// ConflictBudget caps the conflicts of each SAT solve (0 = none).
	ConflictBudget int64
	// MemBudgetMB approximately caps each solver's learned-clause
	// memory, in MiB (0 = none). The solver sheds clauses before
	// declaring the budget exhausted.
	MemBudgetMB int
	// Ladder overrides the degradation ladder. Empty selects the
	// default derived from the configured strategy: rf (forced rf
	// backend only) → configured → no-preprocess.
	Ladder []Rung
	// Faults arms deterministic fault injection at the solver,
	// encoder, and mining hook points (tests and chaos runs only).
	Faults faultinject.Faults
	// Assume restricts the inclusion check (both the error phase and
	// the exclusion phase) to one cube of a cross-process
	// cube-and-conquer fan-out. Each literal is a signed 1-based
	// ordinal into the encoder's deterministic memory-order variable
	// list (encode.Encoder.OrderSatVars at the check's bounds):
	// +k asserts order variable k-1 true, -k asserts it false.
	// Ordinals rather than raw SAT variables make the cube stable
	// across processes — any process that encodes the same description
	// maps ordinal k to the same variable. Ordinals that fall outside
	// the list at the worker's bounds are dropped (every worker drops
	// them identically, so the cubes stay jointly exhaustive — the
	// property fan-out aggregation relies on; disjointness is not
	// required for soundness, only to avoid duplicate work). Mining
	// and bound probing ignore the field: the specification and the
	// converged bounds are cube-independent. See internal/fleet for
	// the coordinator that plans and aggregates such cubes.
	Assume []int
	// Sweep controls whether this job may join a model-sweep group
	// when checked through RunSuite: jobs identical in everything but
	// Model are grouped onto one shared selector-guarded encoding and
	// each model's verdict is solved under assumption literals, with
	// the specification mined once and bound probing shared
	// (SweepAuto, the default, joins when the suite sweeps). SweepOff
	// opts the job out. Direct Check/CheckImpl calls ignore the field:
	// a sweep needs at least two models. A group shares one
	// Deadline window across its models; a member that falls back to
	// an independent check runs under whatever remains of that window,
	// so the whole unit stays within the configured budget.
	Sweep SweepMode

	// front, when non-nil, memoizes harness.Build and per-bounds
	// Unroll results across the members and rounds of a sweep group.
	// Set by RunSuite's group scheduler only.
	front *frontCache
}

// encodeConfig maps the simplification options onto the encoder's
// minimization configuration.
func (o Options) encodeConfig() encode.Config {
	cfg := encode.DefaultConfig()
	switch o.SimplifyLevel {
	case -1:
		cfg.RewriteLevel = 0
		cfg.PolarityAware = false
	case 1, 2:
		cfg.RewriteLevel = o.SimplifyLevel
	}
	cfg.Preprocess = !o.NoPreprocess
	cfg.Inprocess = !o.NoInprocess
	cfg.OrderReduce = !o.NoOrderReduce
	cfg.Faults = o.Faults
	return cfg
}

// strategy maps the options onto a spec.Strategy.
func (o Options) strategy() spec.Strategy {
	return spec.Strategy{
		MaxMineIterations: o.MaxMineIterations,
		Faults:            o.Faults,
	}
}

// Stats quantifies one check, mirroring the columns of the paper's
// Fig. 10 table plus the phase breakdown of Fig. 11b.
type Stats struct {
	Instrs int // unrolled instructions
	Loads  int
	Stores int

	CNFVars    int // final inclusion-check formula size (post-minimization)
	CNFClauses int

	// Formula-minimization measurements of the inclusion check: gate
	// count of the circuit, CNF size before preprocessing, and what
	// each preprocessing technique removed. Pre* equal the final
	// counts when preprocessing is disabled.
	Gates               int
	PreCNFVars          int
	PreCNFClauses       int
	VarsEliminated      int
	ClausesSubsumed     int
	ClausesStrengthened int
	PreprocessTime      time.Duration // included in RefuteTime

	ObsSetSize     int
	MineIterations int
	BoundRounds    int

	// Multi-backend routing: the backend that produced the verdict
	// ("rf" or "sat"), the router's reasoning, and the rf engine's work
	// counters (zero on pure SAT checks).
	Backend        string
	RouterDecision string
	RFSteps        int
	RFExecs        int
	RFConsistent   int
	RFSplits       int

	// Spec-cache traffic of this check: how many of its mining
	// requests were served from Options.SpecCache vs. mined fresh.
	// Both stay zero when no cache is configured.
	SpecCacheHits   int
	SpecCacheMisses int
	// SpecCacheCorrupt counts corrupt cache files quarantined while
	// serving this check's mining requests.
	SpecCacheCorrupt int
	// SpecCacheResumed counts mines of this check that resumed from an
	// on-disk checkpoint left by an earlier interrupted mine.
	SpecCacheResumed int

	// AssumedLits counts the cube assumption literals applied to the
	// inclusion check (cross-process fan-out; zero outside fleet
	// workers). AssumeDropped counts wire ordinals that fell outside
	// the order-variable list at this check's bounds.
	AssumedLits   int
	AssumeDropped int

	// Inprocessing work of the inclusion check's solver: literals
	// removed by clause vivification (and the clauses they came from),
	// learnt clauses deleted by on-the-fly subsumption, and conflicts
	// resolved by a chronological backtrack. Zero with
	// Options.NoInprocess.
	VivifiedLits     int64
	VivifiedClauses  int64
	SubsumedLearnts  int64
	ChronoBacktracks int64
	// Learnt-database tier sizes of the inclusion check's solver at the
	// end of the check.
	TierCore  int
	TierMid   int
	TierLocal int

	// Order-encoding reduction of the inclusion-check formula: order
	// variables fixed to constants beyond the baseline program-order
	// rules, and pairs merged into an already-allocated variable. Zero
	// with Options.NoOrderReduce.
	OrderVarsFixed  int
	OrderVarsMerged int

	// Model-sweep counters (RunSuite sweep groups; all zero on
	// independent checks). SweepGroups is 1 when the verdict came from
	// a shared sweep encoding and SweepModels counts the models that
	// encoding served; SelectorVars/SelectorUnits size the selector
	// instrumentation. EncodesReused is 1 on results that reused the
	// group's encoding instead of building their own, and SeededObs
	// counts specification observations whose exclusion clauses such a
	// result shared rather than re-encoded. SweepEarlyExit is 1 when
	// the verdict came from replaying a stronger model's
	// counterexample under this model's axioms without solving.
	// FrontCacheHits counts harness build/unroll results served from
	// the group's front cache (reported on the group leader). Shared
	// group costs — mining, encoding, preprocessing, probe time,
	// solver counters — are attributed to the leader (the strongest
	// model); every group member reports the group's wall-clock time
	// as its TotalTime.
	SweepGroups    int
	SweepModels    int
	SelectorVars   int
	SelectorUnits  int
	EncodesReused  int
	SeededObs      int
	SweepEarlyExit int
	FrontCacheHits int

	ProbeTime   time.Duration // lazy loop bound probes
	MineTime    time.Duration // specification mining
	EncodeTime  time.Duration // building the inclusion CNF
	RefuteTime  time.Duration // SAT solving of the inclusion check
	TotalTime   time.Duration
	SolverStats sat.Stats

	// AllocBytes is the total heap allocation of the check, the
	// memory proxy for the Fig. 10b chart.
	AllocBytes uint64
}

// Result is the outcome of a check.
type Result struct {
	Impl  string
	Test  string
	Model memmodel.Model

	// Verdict is the three-valued outcome; Pass mirrors it for
	// convenience (Pass == (Verdict == VerdictPass)).
	Verdict Verdict
	Pass    bool
	SeqBug  bool // a serial execution reaches a runtime error
	Cex     *trace.Trace

	// Budget is non-nil when resource governance shaped this result:
	// always for VerdictUnknown (every ladder rung exhausted), and for
	// definitive verdicts that a degraded rung produced.
	Budget *BudgetReport

	Spec  *spec.Set
	Stats Stats
}

// Check runs CheckFence on an implementation (by registry name) and a
// test (by Fig. 8 name or notation).
func Check(implName, testName string, opts Options) (*Result, error) {
	impl, err := harness.Get(implName)
	if err != nil {
		return nil, err
	}
	test, err := harness.GetTest(impl, testName)
	if err != nil {
		return nil, err
	}
	return CheckImpl(impl, test, opts)
}

// CheckImpl runs CheckFence on explicit implementation and test
// structures. It executes the degradation ladder: the check is
// attempted with the configured strategy and, when an attempt fails
// degradably (budget exhausted, solver-internal Unknown, recovered
// worker panic), retried with progressively cheaper strategies until
// one produces a verdict, the deadline passes, or the ladder is
// exhausted — in which case the result is VerdictUnknown with a
// BudgetReport, not an error.
func CheckImpl(impl *harness.Impl, test *harness.Test, opts Options) (*Result, error) {
	start := time.Now()
	var deadline time.Time
	if opts.Deadline > 0 {
		deadline = time.Now().Add(opts.Deadline)
	}
	var reports []RungReport
	for i, rung := range opts.ladder() {
		if i > 0 && !deadline.IsZero() && !time.Now().Before(deadline) {
			break // no wall-clock left to retry with
		}
		attemptStart := time.Now()
		out := map[memmodel.Model]*Result{}
		err := checkModels(impl, test, []memmodel.Model{opts.Model}, rung.apply(opts), deadline, out)
		if err == nil {
			res := out[opts.Model]
			if len(reports) > 0 {
				// The verdict came from a degraded rung; record the
				// path that led there.
				res.Budget = opts.budgetReport(reports)
			}
			return res, nil
		}
		if !degradable(err, opts) {
			return nil, err
		}
		reports = append(reports, rungReport(rung, err, time.Since(attemptStart)))
	}
	res := &Result{
		Impl: impl.Name, Test: test.Name, Model: opts.Model,
		Verdict: VerdictUnknown,
		Budget:  opts.budgetReport(reports),
	}
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}

// pipeline is the state of one checkModels pass.
type pipeline struct {
	impl     *harness.Impl
	test     *harness.Test
	models   []memmodel.Model
	opts     Options
	deadline time.Time
	// results holds one result per model, accumulating across bound
	// rounds; out receives each as soon as its model is decided.
	results map[memmodel.Model]*Result
	out     map[memmodel.Model]*Result

	built    *harness.Built
	unrolled *harness.Unrolled
	info     *ranges.Info
	bounds   map[string]int
}

// checkModels runs the driver loop of Fig. 3 once, under one ladder
// rung's strategy, for models (strongest first) at shared bounds. Each
// model's result goes into out as soon as the model is decided, so
// when a later phase fails, out keeps the verdicts reached before it.
//
// Lazy loop unrolling follows §3.3: the models are checked at the
// initial bounds first, and a model that fails there is decided — the
// loop bounds are irrelevant to a counterexample. Then the bounds are
// probed and grown until the probe is refuted, and the undecided models
// are checked once more at the converged bounds (intermediate bound
// levels only add executions, which the final check covers).
//
// One model is checked on a plain encoder, with Options.Assume and rf
// routing honoured. Several are checked on one selector-guarded sweep
// encoder, solved per model under assumptions; when the router picks
// the reads-from engine instead, there is no SAT work to share and
// errSweepFallback is returned. Shared costs land on one result:
// probing on models[0], mining, encoding, preprocessing and solver
// counters on the round's leader (the strongest model it checks).
func checkModels(impl *harness.Impl, test *harness.Test, models []memmodel.Model,
	opts Options, deadline time.Time, out map[memmodel.Model]*Result) error {

	if opts.MaxBoundRounds <= 0 {
		opts.MaxBoundRounds = 12
	}
	p := &pipeline{impl: impl, test: test, models: models, opts: opts, deadline: deadline,
		results: make(map[memmodel.Model]*Result, len(models)), out: out}
	for _, m := range models {
		p.results[m] = &Result{Impl: impl.Name, Test: test.Name, Model: m}
	}
	start := time.Now()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	defer func() {
		// The models were decided together, so every result reports the
		// pass's wall-clock time; its heap growth lands on models[0]
		// with the other shared costs.
		wall := time.Since(start)
		for _, r := range out {
			r.Stats.TotalTime = wall
		}
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		p.results[models[0]].Stats.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
	}()

	var err error
	if p.built, err = opts.buildHarness(impl, test); err != nil {
		return err
	}
	p.bounds = map[string]int{}
	for k, v := range opts.InitialBounds {
		p.bounds[k] = v
	}
	if err := p.unroll(); err != nil {
		return err
	}
	pending, err := p.round(models, 1)
	if err != nil || len(pending) == 0 {
		return err
	}

	// Bound probing runs under probeModel, which maps every non-Serial
	// model to SC, so one probe sequence serves all pending models.
	boundRounds := 1
	for round := 0; ; round++ {
		if round >= opts.MaxBoundRounds {
			return fmt.Errorf("core: loop bounds did not converge after %d rounds", round)
		}
		probeStart := time.Now()
		grew, err := probeBounds(p.unrolled, p.info, probeModel(pending[0]), p.bounds, opts, deadline)
		p.results[models[0]].Stats.ProbeTime += time.Since(probeStart)
		if err != nil {
			return err
		}
		if !grew {
			break
		}
		boundRounds = round + 2
		if err := p.unroll(); err != nil {
			return err
		}
	}
	if boundRounds > 1 {
		if pending, err = p.round(pending, boundRounds); err != nil {
			return err
		}
	}
	// Whatever is still undecided passed at the converged bounds.
	for _, m := range pending {
		r := p.results[m]
		r.Pass = true
		r.Verdict = VerdictPass
		out[m] = r
	}
	return nil
}

// unroll unrolls the harness at the current bounds and analyzes the
// ranges of the result.
func (p *pipeline) unroll() (err error) {
	if p.unrolled, err = p.opts.unrollHarness(p.built, p.bounds); err != nil {
		return err
	}
	p.info = analysisFor(p.unrolled, p.opts)
	return nil
}

// fail decides model m with counterexample t; earlyExit marks a trace
// replayed from a stronger model rather than solved.
func (p *pipeline) fail(m memmodel.Model, t *trace.Trace, earlyExit bool) {
	r := p.results[m]
	r.Pass = false
	r.Verdict = VerdictFail
	r.Cex = t
	if earlyExit {
		r.Stats.SweepEarlyExit = 1
	}
	p.out[m] = r
}

// round checks the pending models at the current bounds: it mines the
// specification once, encodes one formula for all of them, and runs
// the inclusion check's two phases model by model, strongest first.
// Models that fail are decided; the models that pass at these bounds
// are returned, for the caller to decide whether bounds must grow.
func (p *pipeline) round(pending []memmodel.Model, boundRounds int) ([]memmodel.Model, error) {
	sweep := len(p.models) > 1
	leader := p.results[pending[0]]
	for i, m := range pending {
		st := &p.results[m].Stats
		st.Instrs, st.Loads, st.Stores = p.unrolled.Instrs, p.unrolled.Loads, p.unrolled.Stores
		st.BoundRounds = boundRounds
		st.EncodesReused = min(i, 1) // every model after the leader reuses its encoding
		if sweep {
			st.RouterDecision = "sat (model sweep)"
			st.SweepGroups, st.SweepModels = 1, len(p.models)
		}
	}

	if sweep {
		// routeRF inspects the backend selection and the unrolled
		// program, never the model, so one decision serves the group.
		if routeRF(p.opts, p.unrolled).useRF {
			return nil, errSweepFallback
		}
	} else {
		// Under auto, an rf budget failure falls back to SAT within
		// this same attempt (no ladder hop); under a forced rf backend
		// the error propagates so the ladder's SAT rungs take over.
		dec := routeRF(p.opts, p.unrolled)
		leader.Stats.RouterDecision = dec.reason
		if p.opts.Backend == BackendRF && !dec.useRF {
			return nil, dec.err
		}
		if dec.useRF {
			cex, err := runCheckRF(leader, p.built, p.unrolled, dec.prog, p.opts)
			if err == nil {
				leader.Stats.Backend = "rf"
				if cex != nil {
					p.fail(pending[0], cex, false)
					return nil, nil
				}
				return pending, nil
			}
			if p.opts.Backend == BackendRF || !rfFallbackable(err) {
				return nil, err
			}
			leader.Stats.RouterDecision = "sat (rf fell back: " + err.Error() + ")"
		}
	}
	for _, m := range pending {
		p.results[m].Stats.Backend = "sat"
	}

	// Specification: mined once for all models (the observation set is
	// model-independent, §3.2).
	mineStart := time.Now()
	set, seqTrace, err := mineSpec(p.impl, p.test, p.built, p.unrolled, p.info, p.bounds,
		p.opts, p.deadline, leader)
	leader.Stats.MineTime += time.Since(mineStart)
	if err != nil {
		return nil, err
	}
	if seqTrace != nil {
		// A sequential bug is model-independent: every pending model
		// fails with the same serial trace, validated once.
		if err := validateCex(seqTrace, p.built, p.unrolled, p.opts); err != nil {
			return nil, err
		}
		for _, m := range pending {
			p.results[m].SeqBug = true
			p.fail(m, seqTrace, false)
		}
		return nil, nil
	}
	for _, m := range pending {
		r := p.results[m]
		r.Spec = set
		r.Stats.ObsSetSize = set.Len()
		// A model that reuses the leader's encoding also shares all of
		// the spec's exclusion clauses instead of re-encoding them.
		r.Stats.SeededObs = r.Stats.EncodesReused * set.Len()
	}

	encodeStart := time.Now()
	var enc *encode.Encoder
	if sweep {
		enc, err = encode.NewSweepWithConfig(pending, p.info, p.opts.encodeConfig())
	} else {
		enc = encode.NewWithConfig(pending[0], p.info, p.opts.encodeConfig())
	}
	if err != nil {
		return nil, err
	}
	applyLimits(enc, p.opts, p.deadline)
	if err := enc.Encode(p.unrolled.Threads); err != nil {
		return nil, err
	}
	enc.AssertNoOverflow()
	leader.Stats.EncodeTime += time.Since(encodeStart)

	refuteStart := time.Now()
	var assume []sat.Lit
	if len(p.opts.Assume) > 0 {
		assume = assumeLits(enc, p.opts.Assume)
		leader.Stats.AssumedLits = len(assume)
		leader.Stats.AssumeDropped = len(p.opts.Assume) - len(assume)
	}
	ic, err := spec.NewInclusionCheck(enc, p.built.Entries)
	leader.Stats.RefuteTime += time.Since(refuteStart)
	if err != nil {
		return nil, err
	}

	// Phase 1 for every pending model before any exclusion clause
	// exists (see spec.SweepCheck), then phase 2 for the models it left
	// open.
	open, err := p.solveEach(enc, pending, func(m memmodel.Model) (*spec.Counterexample, error) {
		return ic.ErrorCheck(m, assume...)
	})
	if err == nil && len(open) > 0 {
		beginStart := time.Now()
		err = ic.BeginInclusion(set)
		leader.Stats.RefuteTime += time.Since(beginStart)
		if err == nil {
			open, err = p.solveEach(enc, open, func(m memmodel.Model) (*spec.Counterexample, error) {
				return ic.Inclusion(m, assume...)
			})
		}
	}
	if err != nil {
		return nil, err
	}

	// Solver and formula statistics of the round's encoding land on the
	// leader; the selector instrumentation sizes land on every model.
	st := enc.S.Stats()
	ls := &leader.Stats
	ls.CNFVars = st.Vars
	ls.CNFClauses = st.Clauses
	ls.SolverStats = st
	ls.Gates = enc.B.NumGates()
	ls.PreCNFVars = st.PreVars
	ls.PreCNFClauses = st.PreClauses
	ls.VarsEliminated = st.VarsEliminated
	ls.ClausesSubsumed = st.ClausesSubsumed
	ls.ClausesStrengthened = st.ClausesStrengthened
	ls.PreprocessTime = st.PreprocessTime
	ls.VivifiedClauses += st.VivifiedClauses
	ls.VivifiedLits += st.VivifiedLits
	ls.SubsumedLearnts += st.SubsumedLearnts
	ls.ChronoBacktracks += st.ChronoBacktracks
	ls.TierCore = st.TierCore
	ls.TierMid = st.TierMid
	ls.TierLocal = st.TierLocal
	ls.OrderVarsFixed = enc.OrderVarsFixed
	ls.OrderVarsMerged = enc.OrderVarsMerged
	if st.PreClauses == 0 {
		// Preprocessing did not run; pre-minimization size is the
		// final size.
		ls.PreCNFVars = st.Vars
		ls.PreCNFClauses = st.Clauses
	}
	if sweep {
		for _, m := range pending {
			p.results[m].Stats.SelectorVars = len(pending)
			p.results[m].Stats.SelectorUnits = enc.SelectorUnits
		}
	}
	return open, nil
}

// solveEach runs one inclusion phase for models, strongest first, and
// returns the models it left undecided. A counterexample decides its
// model, and a stronger model's counterexample that replays under a
// weaker model's axioms decides the weaker model without a solve.
func (p *pipeline) solveEach(enc *encode.Encoder, models []memmodel.Model,
	solve func(memmodel.Model) (*spec.Counterexample, error)) ([]memmodel.Model, error) {

	var traces []*trace.Trace
	var open []memmodel.Model
	for _, m := range models {
		if t := replayUnder(m, traces, p.built, p.unrolled); t != nil {
			p.fail(m, t, true)
			continue
		}
		solveStart := time.Now()
		cex, err := solve(m)
		p.results[m].Stats.RefuteTime += time.Since(solveStart)
		if err != nil {
			return nil, err
		}
		if cex == nil {
			open = append(open, m)
			continue
		}
		t := trace.Build(enc, p.built, p.unrolled, cex)
		t.Model = m
		if err := validateCex(t, p.built, p.unrolled, p.opts); err != nil {
			return nil, err
		}
		traces = append(traces, t)
		p.fail(m, t, false)
	}
	return open, nil
}

// mineSpec obtains the observation set for a check at the given
// bounds: Options.Spec verbatim, the refset enumeration, or the §3.2
// SAT mine — through the spec cache when one is configured (the
// mining closure is single-flighted across concurrent checks, and the
// escaping serialEnc is only ever set by this check's own invocation:
// the cache never shares failures). Cache traffic and the iteration
// count land in res.Stats. When a serial execution reaches a runtime
// error, the decoded sequential-bug trace is returned instead of a
// set; the caller owns its validation.
func mineSpec(impl *harness.Impl, test *harness.Test, built *harness.Built,
	unrolled *harness.Unrolled, info *ranges.Info, bounds map[string]int,
	opts Options, deadline time.Time, res *Result) (*spec.Set, *trace.Trace, error) {

	if opts.Spec != nil {
		return opts.Spec, nil, nil
	}
	key := specKey(impl, test, bounds, opts.SpecSource)
	var serialEnc *encode.Encoder
	mine := func(resume *spec.Set, resumeIters int) (*spec.Set, int, error) {
		switch opts.SpecSource {
		case SpecRef:
			set, err := refimpl.Enumerate(impl, test)
			return set, 0, err
		default:
			serialEnc = encode.NewWithConfig(memmodel.Serial, info, opts.encodeConfig())
			applyLimits(serialEnc, opts, deadline)
			if err := serialEnc.Encode(unrolled.Threads); err != nil {
				return nil, 0, err
			}
			serialEnc.AssertNoOverflow()
			strat := opts.strategy()
			strat.Resume = resume
			strat.ResumeIterations = resumeIters
			if cache := opts.SpecCache; cache != nil {
				// Periodically mirror the partial set to disk so an
				// interrupted mine (budget, crash, ^C) resumes
				// instead of restarting.
				strat.Checkpoint = func(partial *spec.Set, iterations int) {
					cache.StoreCheckpoint(key, partial, iterations)
				}
			}
			mined, stats, err := spec.MineWith(serialEnc, built.Entries, strat)
			return mined, stats.Iterations, err
		}
	}
	var (
		mined      *spec.Set
		iterations int
		err        error
	)
	if opts.SpecCache != nil {
		var outcome CacheOutcome
		mined, iterations, outcome, err = opts.SpecCache.GetOrMine(key, mine)
		if outcome.Hit {
			res.Stats.SpecCacheHits++
		} else {
			res.Stats.SpecCacheMisses++
		}
		if outcome.Corrupt {
			res.Stats.SpecCacheCorrupt++
		}
		if outcome.Resumed {
			res.Stats.SpecCacheResumed++
		}
	} else {
		mined, iterations, err = mine(nil, 0)
	}
	if err != nil {
		if seqBug, ok := err.(*spec.SeqBugError); ok && serialEnc != nil {
			cex := &spec.Counterexample{Obs: seqBug.Obs, IsErr: true,
				Err: "runtime error in serial execution"}
			return nil, trace.Build(serialEnc, built, unrolled, cex), nil
		}
		return nil, nil, err
	}
	res.Stats.MineIterations = iterations
	return mined, nil, nil
}

// assumeLits maps wire-format cube assumptions — signed 1-based
// ordinals into the encoder's deterministic memory-order variable
// list — onto solver literals. Out-of-range ordinals are dropped:
// every process at the same bounds drops the same ones, so a fan-out's
// cubes remain jointly exhaustive (see Options.Assume).
func assumeLits(e *encode.Encoder, assume []int) []sat.Lit {
	ord := e.OrderSatVars()
	lits := make([]sat.Lit, 0, len(assume))
	for _, a := range assume {
		k, neg := a, false
		if k < 0 {
			k, neg = -k, true
		}
		if k == 0 || k > len(ord) {
			continue
		}
		lits = append(lits, sat.MkLit(ord[k-1], neg))
	}
	return lits
}

// validateCex independently re-checks a decoded counterexample (axiom
// re-verification plus interpreter replay). A failure means CheckFence
// itself decoded or encoded wrongly — an internal error carrying the
// first violated axiom and the suspect trace, never a verdict.
func validateCex(t *trace.Trace, built *harness.Built, unrolled *harness.Unrolled,
	opts Options) error {

	if opts.NoValidate {
		return nil
	}
	if err := validate.Check(t, unrolled.Threads, built.Unit.Prog); err != nil {
		return fmt.Errorf("core: internal error: counterexample failed validation: %w\nsuspect trace:\n%s", err, t)
	}
	return nil
}

// applyLimits wires the check's resource governance into an encoder:
// Options.Cancel becomes the solver's stop predicate (long solves
// abort promptly on suite cancellation), the deadline and the
// conflict/memory budgets arm the solver's typed-budget machinery,
// and both cancellation and the deadline also abort the encoding
// phase itself, which can dominate a short deadline on big harnesses.
func applyLimits(e *encode.Encoder, opts Options, deadline time.Time) {
	cancel := opts.Cancel
	if cancel != nil {
		e.S.SetStop(func() bool {
			select {
			case <-cancel:
				return true
			default:
				return false
			}
		})
	}
	if !deadline.IsZero() {
		e.S.SetDeadline(deadline)
	}
	if opts.ConflictBudget > 0 {
		e.S.SetBudget(opts.ConflictBudget)
	}
	if opts.MemBudgetMB > 0 {
		e.S.SetMemBudget(int64(opts.MemBudgetMB) << 20)
	}
	if cancel != nil || !deadline.IsZero() {
		e.Cfg.Abort = func() error {
			if cancel != nil {
				select {
				case <-cancel:
					return fmt.Errorf("core: check cancelled during encoding: %w",
						spec.ErrSolverUnknown)
				default:
				}
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				return fmt.Errorf("core: encoding: %w",
					&sat.ErrBudget{Kind: sat.BudgetDeadline})
			}
			return nil
		}
	}
}

func analysisFor(unrolled *harness.Unrolled, opts Options) *ranges.Info {
	if opts.DisableRangeAnalysis {
		return ranges.Disabled()
	}
	return ranges.Analyze(unrolled.Bodies)
}

// probeModel selects the model loop-bound probes run under. Probing
// under Relaxed does not generally terminate: its same-address
// load-load reordering lets a retry loop re-read a stale value in
// every iteration, so executions exceeding any finite bound exist
// (e.g. the fenced msn enqueue on test Ti2). The paper reports all
// studied loops as statically bounded, which holds under sequential
// consistency; we therefore determine bounds from the SC executions
// (which cover all serial executions needed for mining) and perform
// the relaxed inclusion check within those unrollings. Counterexample
// search is unaffected in practice — reordering bugs appear within
// the SC-derived bounds — and any residual incompleteness is inherent
// to bounded unrolling.
func probeModel(m memmodel.Model) memmodel.Model {
	if memmodel.SequentialConsistency.StrongerThan(m) && m != memmodel.SequentialConsistency {
		return memmodel.SequentialConsistency
	}
	return m
}

// probeBounds checks whether any loop can exceed its current bound
// under the given model; if so it increments those bounds and reports
// growth.
func probeBounds(unrolled *harness.Unrolled,
	info *ranges.Info, model memmodel.Model, bounds map[string]int,
	opts Options, deadline time.Time) (bool, error) {

	hasMarkers := false
	for _, li := range unrolled.Loops {
		if !li.Spin {
			hasMarkers = true
			break
		}
	}
	if !hasMarkers {
		return false, nil
	}
	probe := encode.NewWithConfig(model, info, opts.encodeConfig())
	applyLimits(probe, opts, deadline)
	if err := probe.Encode(unrolled.Threads); err != nil {
		return false, err
	}
	probe.AssertSomeOverflow()
	switch probe.S.Solve() {
	case sat.Sat:
	case sat.Unsat:
		return false, nil
	default:
		if be := probe.S.BudgetErr(); be != nil {
			return false, fmt.Errorf("core: bound probe: %w: %w", spec.ErrSolverUnknown, be)
		}
		return false, fmt.Errorf("core: bound probe: %w", spec.ErrSolverUnknown)
	}
	grew := false
	for _, id := range probe.OverflowingLoops() {
		key, ok := unrolled.LoopKey(id)
		if !ok {
			return false, fmt.Errorf("core: unknown loop id %d", id)
		}
		bounds[key] = unrolled.BoundFor(id) + 1
		grew = true
	}
	if !grew {
		return false, fmt.Errorf("core: overflow probe satisfiable but no loop flagged")
	}
	return true, nil
}
