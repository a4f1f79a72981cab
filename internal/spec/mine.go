package spec

// This file implements the solver-driving halves of §3.2 — the
// blocking-clause mining enumeration and the two-phase inclusion
// check — configured by a Strategy. Every query runs on the encoder's
// own solver, e.S.

import (
	"errors"
	"fmt"

	"checkfence/internal/encode"
	"checkfence/internal/faultinject"
	"checkfence/internal/sat"
)

// DefaultMaxMineIterations bounds the mining enumeration when
// Strategy.MaxMineIterations is zero. The bound exists to turn an
// accidentally underconstrained test (e.g. an unconstrained input
// register leaking into the observation) into an error instead of an
// endless loop.
const DefaultMaxMineIterations = 100000

// ErrMineLimit is wrapped by mining when the enumeration exceeds the
// iteration limit.
var ErrMineLimit = errors.New("spec: mining exceeded iteration limit")

// blockShrink drops provably redundant literals from mining blocking
// clauses: bits whose SAT variable is fixed at the root (constants and
// learned units — identical in every remaining model) and duplicate
// variables (a variable's assignment determines every bit it backs).
// Shorter blocking clauses propagate earlier and cost less to watch;
// the mined set and iteration count are unchanged because each shrunk
// clause excludes exactly the same models as the full one. The toggle
// exists for the equivalence test.
var blockShrink = true

// Strategy configures mining and the inclusion check. The zero value
// behaves exactly like Mine/CheckInclusion.
type Strategy struct {
	// MaxMineIterations caps the mining enumeration (0 = default).
	MaxMineIterations int
	// Resume seeds the enumeration with a previously mined partial
	// set: its observations are excluded up front (the exclusion
	// clauses block every model of each observation, a superset of the
	// per-model blocking clauses the original run added) and included
	// in the result, so an interrupted mine continues instead of
	// restarting.
	Resume *Set
	// Seed warm-starts the enumeration with observations already known
	// to belong to the result. The canonical source is a model sweep
	// run strongest-first: every execution a stronger model allows is
	// also allowed by any weaker model (memmodel.StrongerThan), so the
	// stronger model's full observation set is a sound seed for the
	// weaker model's mine. Seeded observations are excluded up front
	// and included in the result exactly like Resume's, skipping
	// len(Seed) solver iterations; the count is reported in
	// MineStats.Seeded. Unlike Resume, Seed does not represent work
	// already billed to this enumeration, so it leaves the iteration
	// budget untouched.
	Seed *Set
	// ResumeIterations is the iteration count already spent producing
	// Resume; the continued run's count and the iteration limit are
	// cumulative across it.
	ResumeIterations int
	// Checkpoint, when non-nil, is called with the partial set and the
	// cumulative iteration count every CheckpointEvery iterations, so
	// an interrupted mine can later resume. The callback must not
	// retain the set: mining keeps mutating it.
	Checkpoint func(partial *Set, iterations int)
	// CheckpointEvery is the iteration period between Checkpoint calls
	// (0 = 32).
	CheckpointEvery int
	// Faults, when non-nil, installs fault-injection hooks on the
	// mining path (see internal/faultinject).
	Faults faultinject.Faults
	// Assume restricts both phases of the inclusion check to the
	// executions satisfying these literals — one cube of a
	// cross-process cube-and-conquer fan-out. The literals must be
	// over variables that survive preprocessing (CheckFence passes
	// memory-order variables, which PreprocessCNF freezes). Mining
	// ignores the field: the specification is cube-independent.
	Assume []sat.Lit
}

func (st Strategy) maxIter() int {
	if st.MaxMineIterations > 0 {
		return st.MaxMineIterations
	}
	return DefaultMaxMineIterations
}

func (st Strategy) checkpointEvery() int {
	if st.CheckpointEvery > 0 {
		return st.CheckpointEvery
	}
	return 32
}

// unknownErr wraps a non-definitive solver status into the
// ErrSolverUnknown chain, preserving the typed cause (a *sat.ErrBudget)
// when one is known so upstream layers can tell budget exhaustion from
// cancellation.
func unknownErr(phase string, st sat.Status, cause error) error {
	if cause != nil {
		return fmt.Errorf("%w during %s: %w", ErrSolverUnknown, phase, cause)
	}
	return fmt.Errorf("%w during %s (status %v)", ErrSolverUnknown, phase, st)
}

// decodeObs reads the observation vector from e.S's model.
func decodeObs(e *encode.Encoder, svs []encode.SymVal) Observation {
	obs := make(Observation, len(svs))
	for i, sv := range svs {
		obs[i] = e.EvalVal(sv)
	}
	return obs
}

// solve runs one single-verdict query on e.S. On Unknown the second
// result carries the typed *sat.ErrBudget when a budget was the cause,
// and nil for plain cancellation.
func solve(e *encode.Encoder, assumptions ...sat.Lit) (sat.Status, error) {
	st := e.S.Solve(assumptions...)
	if st == sat.Unknown {
		if be := e.S.BudgetErr(); be != nil {
			return st, be
		}
	}
	return st, nil
}

// MineWith is Mine under a strategy (iteration cap, resume, seed,
// checkpoints). When mining stops early (iteration limit, budget,
// cancellation), the partial set mined so far is returned alongside
// the error so callers can checkpoint and later resume it instead of
// discarding the work.
func MineWith(e *encode.Encoder, entries []Entry, strat Strategy) (*Set, MineStats, error) {
	if strat.Faults != nil && strat.Faults.Fire(faultinject.MinePanic) {
		panic(faultinject.Injected{Site: faultinject.MinePanic})
	}
	svs, err := obsVals(e, entries)
	if err != nil {
		return nil, MineStats{}, err
	}
	// Materialize every literal the incremental loop will reference —
	// the error literal (assumed, then asserted false) and the
	// observation bits (blocking clauses flip their signs per model) —
	// then preprocess the CNF with exactly those frozen.
	errLit := e.B.Lit(e.ErrorNode())
	bits := obsBits(e, svs)
	lits := make([]sat.Lit, len(bits))
	for i, b := range bits {
		lits[i] = e.B.Lit(b)
	}
	e.PreprocessCNF(append([]sat.Lit{errLit}, lits...)...)

	// Sequential bug check: is any erroneous serial execution
	// possible?
	switch st, cause := solve(e, errLit); st {
	case sat.Sat:
		return nil, MineStats{}, &SeqBugError{Obs: decodeObs(e, svs)}
	case sat.Unsat:
	default:
		return nil, MineStats{}, unknownErr("sequential bug check", st, cause)
	}

	// Enumerate error-free serial observations.
	e.S.AddClause(errLit.Not())
	// Exclude everything a checkpoint or a stronger-model seed already
	// established, and start the result from it. Each exclusion blocks
	// all models of its observation — a superset of the per-model
	// blocking clauses a direct enumeration would have added — so
	// seed ∪ continued enumeration is the full set.
	set := NewSet()
	stats := MineStats{Iterations: strat.ResumeIterations}
	if strat.Seed != nil {
		stats.Seeded = strat.Seed.Len()
	}
	for _, pre := range []*Set{strat.Resume, strat.Seed} {
		if pre == nil {
			continue
		}
		for _, o := range pre.All() {
			if err := assertNotObservation(e, svs, o); err != nil {
				return nil, MineStats{}, err
			}
			set.Add(o)
		}
	}
	return mineSerial(e, svs, lits, set, stats, strat)
}

// mineSerial is the classical blocking-clause enumeration on e.S,
// accumulating into set and stats.
func mineSerial(e *encode.Encoder, svs []encode.SymVal, lits []sat.Lit,
	set *Set, stats MineStats, strat Strategy) (*Set, MineStats, error) {

	limit := strat.maxIter()
	every := strat.checkpointEvery()
	for {
		st, cause := solve(e)
		if st == sat.Unsat {
			return set, stats, nil
		}
		if st != sat.Sat {
			return set, stats, unknownErr("mining", st, cause)
		}
		stats.Iterations++
		set.Add(decodeObs(e, svs))
		// Block every assignment of the observation bits seen in this
		// model (not just this observation's canonical value): the
		// bits fully determine the observation.
		e.S.AddClause(blockingClause(e.S, lits)...)
		if strat.Checkpoint != nil && stats.Iterations%every == 0 {
			strat.Checkpoint(set, stats.Iterations)
		}
		if stats.Iterations > limit {
			return set, stats, fmt.Errorf("%w (%d iterations)", ErrMineLimit, stats.Iterations)
		}
	}
}

// blockingClause builds the clause excluding s's current assignment of
// the observation bits. With blockShrink, literals that cannot
// distinguish models are dropped: root-fixed variables (identical in
// every remaining model — covers constant bits, whose backing variable
// carries a unit clause) and repeated variables.
func blockingClause(s *sat.Solver, lits []sat.Lit) []sat.Lit {
	block := make([]sat.Lit, 0, len(lits))
	var seen map[int]bool
	if blockShrink {
		seen = make(map[int]bool, len(lits))
	}
	for _, l := range lits {
		if blockShrink {
			v := l.Var()
			if seen[v] || s.FixedAtRoot(v) {
				continue
			}
			seen[v] = true
		}
		if s.ValueLit(l) {
			block = append(block, l.Not())
		} else {
			block = append(block, l)
		}
	}
	return block
}

// CheckInclusionWith is CheckInclusion under a strategy; Strategy.Assume
// restricts both phases to one cube of a cross-process fan-out. It runs
// the SweepCheck protocol for the encoder's one model. On Sat the
// encoder's solver is positioned at the counterexample model.
func CheckInclusionWith(e *encode.Encoder, entries []Entry, set *Set, strat Strategy) (*Counterexample, error) {
	c, err := NewInclusionCheck(e, entries)
	if err != nil {
		return nil, err
	}
	if cex, err := c.ErrorCheck(e.Model, strat.Assume...); cex != nil || err != nil {
		return cex, err
	}
	if err := c.BeginInclusion(set); err != nil {
		return nil, err
	}
	return c.Inclusion(e.Model, strat.Assume...)
}
