package sat

import (
	"testing"
	"time"
)

// TestInterruptMidSolve stops a hard instance from within the solve
// loop (the stop predicate fires on its first in-loop poll, so the
// stop lands deterministically mid-search), then verifies the solver
// remains usable and that clauses learned before the stop are sound:
// re-solving the same UNSAT instance still returns Unsat.
func TestInterruptMidSolve(t *testing.T) {
	s := New()
	pigeonholeInstance(s, 8)
	polls := 0
	s.SetStop(func() bool {
		polls++
		return polls > 1 // the first poll is Solve's entry check
	})
	if got := s.Solve(); got != Unknown {
		t.Fatalf("stopped Solve = %v, want Unknown", got)
	}
	if polls < 2 {
		t.Fatal("stop predicate was never polled inside the solve loop")
	}
	learnedBefore := s.Stats().Learnts

	s.SetStop(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("re-Solve after stop = %v, want Unsat (learned clauses must stay sound)", got)
	}
	if learnedBefore == 0 {
		t.Log("note: the stop landed before the first learnt clause")
	}
}

func TestSetStopPredicateStopsSolve(t *testing.T) {
	s := New()
	pigeonholeInstance(s, 8)
	s.SetStop(func() bool { return true })
	if got := s.Solve(); got != Unknown {
		t.Fatalf("Solve with always-true stop = %v, want Unknown", got)
	}
	s.SetStop(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve after removing stop = %v, want Unsat", got)
	}
}

// TestInterruptFromAnotherGoroutine exercises the asynchronous use:
// the stop predicate reads a channel another goroutine closes while
// Solve runs, the way core wires Options.Cancel (run under -race).
func TestInterruptFromAnotherGoroutine(t *testing.T) {
	s := New()
	pigeonholeInstance(s, 9)
	cancel := make(chan struct{})
	s.SetStop(func() bool {
		select {
		case <-cancel:
			return true
		default:
			return false
		}
	})
	done := make(chan Status, 1)
	go func() { done <- s.Solve() }()
	time.Sleep(20 * time.Millisecond)
	close(cancel)
	select {
	case got := <-done:
		// The solve may legitimately have finished before the stop
		// landed; both verdicts are acceptable, Sat is not.
		if got != Unknown && got != Unsat {
			t.Fatalf("Solve = %v, want Unknown or Unsat", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Solve did not return after the stop")
	}
	// Usability after an async stop: a budgeted re-solve must run
	// normally (soundness of the learned clauses on this instance is
	// covered by TestInterruptMidSolve; solving PHP(9) to completion
	// here would dominate the -race run).
	s.SetStop(nil)
	s.SetBudget(500)
	if got := s.Solve(); got == Sat {
		t.Fatalf("Solve after async stop = %v on an UNSAT instance", got)
	}
}

func TestComputeLBDStamps(t *testing.T) {
	s := New()
	var lits []Lit
	for i := 0; i < 6; i++ {
		lits = append(lits, Pos(s.NewVar()))
	}
	// Levels: 0,1,1,2,3,3 -> 4 distinct.
	for i, lv := range []int{0, 1, 1, 2, 3, 3} {
		s.levels[i] = lv
	}
	if got := s.computeLBD(lits); got != 4 {
		t.Fatalf("computeLBD = %d, want 4", got)
	}
	// A second call must not be polluted by the first (stamp
	// generation advances).
	if got := s.computeLBD(lits[:2]); got != 2 {
		t.Fatalf("second computeLBD = %d, want 2", got)
	}
}
