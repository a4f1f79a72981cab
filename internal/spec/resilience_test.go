package spec

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"checkfence/internal/faultinject"
	"checkfence/internal/lsl"
	"checkfence/internal/sat"
)

// TestMineLimitReturnsPartialSet: hitting the iteration limit must
// return the observations mined so far alongside ErrMineLimit, not
// discard them — the partial set seeds a later resume.
func TestMineLimitReturnsPartialSet(t *testing.T) {
	e, entries := buildWideMiningEncoder(t)
	set, stats, err := MineWith(e, entries, Strategy{MaxMineIterations: 5})
	if !errors.Is(err, ErrMineLimit) {
		t.Fatalf("err = %v, want ErrMineLimit", err)
	}
	if set == nil || set.Len() == 0 {
		t.Fatalf("partial set = %v, want the mined observations", set)
	}
	if set.Len() > 15 {
		t.Errorf("partial set has %d observations, more than exist", set.Len())
	}
	if stats.Iterations == 0 {
		t.Error("stats.Iterations = 0, want the spent count")
	}
}

// TestMineResumeEqualsFull: a mine seeded with a checkpointed partial
// set produces the same final set as an uninterrupted mine. Iteration
// counts are cumulative across the two runs.
func TestMineResumeEqualsFull(t *testing.T) {
	eFull, entries := buildWideMiningEncoder(t)
	full, _, err := MineWith(eFull, entries, Strategy{})
	if err != nil {
		t.Fatal(err)
	}

	ePart, entriesPart := buildWideMiningEncoder(t)
	partial, partStats, err := MineWith(ePart, entriesPart, Strategy{MaxMineIterations: 5})
	if !errors.Is(err, ErrMineLimit) {
		t.Fatalf("err = %v, want ErrMineLimit", err)
	}

	eRes, entriesRes := buildWideMiningEncoder(t)
	resumed, resStats, err := MineWith(eRes, entriesRes, Strategy{
		Resume:           partial,
		ResumeIterations: partStats.Iterations,
	})
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !resumed.Equal(full) {
		t.Errorf("resumed set differs from full mine:\n  full    %v\n  resumed %v",
			full.All(), resumed.All())
	}
	if resStats.Iterations < partStats.Iterations {
		t.Errorf("cumulative iterations %d < checkpointed %d",
			resStats.Iterations, partStats.Iterations)
	}
}

// TestMineCheckpointCallback: the Checkpoint hook fires on the
// configured period with a growing partial set and cumulative counts.
func TestMineCheckpointCallback(t *testing.T) {
	e, entries := buildWideMiningEncoder(t)
	var calls []int
	var lastLen int
	set, stats, err := MineWith(e, entries, Strategy{
		CheckpointEvery: 4,
		Checkpoint: func(partial *Set, iterations int) {
			calls = append(calls, iterations)
			if partial.Len() < lastLen {
				t.Errorf("checkpoint set shrank from %d to %d", lastLen, partial.Len())
			}
			lastLen = partial.Len()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatalf("checkpoint hook never fired over %d iterations", stats.Iterations)
	}
	for _, n := range calls {
		if n%4 != 0 {
			t.Errorf("checkpoint at iteration %d, want multiples of 4", n)
		}
	}
	if lastLen > set.Len() {
		t.Errorf("last checkpoint had %d observations, final set %d", lastLen, set.Len())
	}
}

// TestCheckpointSerializeRoundTrip: WriteCheckpoint/ReadCheckpoint
// preserve the set and iteration count; the strict keyed reader
// rejects checkpoint bytes (a partial set must never pass for a
// complete one); a checkpoint under a foreign key is rejected.
func TestCheckpointSerializeRoundTrip(t *testing.T) {
	set := NewSet()
	set.Add(Observation{lsl.Int(1), lsl.Undef()})
	set.Add(Observation{lsl.Int(2), lsl.PtrFromComponents([]int64{0, 3})})

	var buf bytes.Buffer
	if _, err := set.WriteCheckpoint(&buf, "key123", 42); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	got, iters, err := ReadCheckpoint(bytes.NewReader(data), "key123")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(set) || iters != 42 {
		t.Fatalf("roundtrip = (%v, %d), want original set and 42", got.All(), iters)
	}

	if _, err := ReadSetKeyed(bytes.NewReader(data), "key123"); err == nil {
		t.Fatal("ReadSetKeyed accepted checkpoint bytes as a complete set")
	}
	if _, _, err := ReadCheckpoint(bytes.NewReader(data), "other-key"); err == nil {
		t.Fatal("ReadCheckpoint accepted a foreign-key checkpoint")
	}
	truncated := data[:len(data)-5]
	if _, _, err := ReadCheckpoint(bytes.NewReader(truncated), "key123"); err == nil {
		t.Fatal("ReadCheckpoint accepted a truncated checkpoint")
	}
	var complete bytes.Buffer
	if _, err := set.WriteKeyed(&complete, "key123"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(bytes.NewReader(complete.Bytes()), "key123"); err == nil {
		t.Fatal("ReadCheckpoint accepted a complete keyed set")
	}
}

// waitGoroutines polls until the goroutine count drops back to the
// baseline (or a timeout), absorbing scheduler lag.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not drain: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestMineCancelMidEnumeration: cancelling via the solver's stop
// predicate in the middle of the enumeration returns promptly with the
// partial set and an ErrSolverUnknown (not a budget error) and leaves
// the solver reusable.
func TestMineCancelMidEnumeration(t *testing.T) {
	e, entries := buildWideMiningEncoder(t)
	var stop atomic.Bool
	e.S.SetStop(func() bool { return stop.Load() })
	set, _, err := MineWith(e, entries, Strategy{
		CheckpointEvery: 2,
		// Trip the cancellation from inside the enumeration, after
		// some observations exist — deterministic mid-mine cancel.
		Checkpoint: func(partial *Set, iterations int) { stop.Store(true) },
	})
	if !errors.Is(err, ErrSolverUnknown) {
		t.Fatalf("err = %v, want ErrSolverUnknown", err)
	}
	if errors.Is(err, sat.ErrBudgetExhausted) {
		t.Errorf("cancellation reported as budget exhaustion: %v", err)
	}
	if set == nil || set.Len() == 0 {
		t.Error("cancelled mine returned no partial set")
	}

	// The solver must stay reusable once the stop is lifted.
	e.S.SetStop(nil)
	if st := e.S.Solve(); st == sat.Unknown {
		t.Errorf("solver unusable after cancellation (status %v)", st)
	}
}

// TestInclusionCancelMidSolve: stopping the phase-2 solve returns a
// wrapped ErrSolverUnknown promptly and leaks no goroutines.
func TestInclusionCancelMidSolve(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, entries := buildWideMiningEncoder(t)
	var calls atomic.Int64
	e.S.SetStop(func() bool { return calls.Add(1) > 1 })
	empty := NewSet() // empty spec: phase 2 would be Sat if it ran to completion
	start := time.Now()
	_, err := CheckInclusionWith(e, entries, empty, Strategy{})
	if !errors.Is(err, ErrSolverUnknown) {
		t.Fatalf("err = %v, want ErrSolverUnknown", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled inclusion check took %v", elapsed)
	}
	waitGoroutines(t, baseline)
}

// TestMineBudgetTypedCause: a conflict budget on the mining solver
// surfaces the typed *sat.ErrBudget through the ErrSolverUnknown
// wrap, so upstream can tell exhaustion from cancellation.
func TestMineBudgetTypedCause(t *testing.T) {
	e, entries := buildWideMiningEncoder(t)
	e.S.SetBudget(1)
	set, _, err := MineWith(e, entries, Strategy{})
	if !errors.Is(err, ErrSolverUnknown) {
		t.Fatalf("err = %v, want ErrSolverUnknown wrap", err)
	}
	if !errors.Is(err, sat.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want a *sat.ErrBudget in the chain", err)
	}
	var be *sat.ErrBudget
	if !errors.As(err, &be) || be.Kind != sat.BudgetConflicts {
		t.Fatalf("err = %v, want conflicts cause", err)
	}
	if set == nil {
		t.Error("budget-stopped mine returned a nil partial set")
	}
}

// TestMinePanicInjection: the MinePanic site raises the typed panic
// out of MineWith, where the callers' panic-isolation layers (suite
// workers) recover it into a per-check error.
func TestMinePanicInjection(t *testing.T) {
	e, entries := buildWideMiningEncoder(t)
	defer func() {
		if site := faultinject.InjectedSite(recover()); site != faultinject.MinePanic {
			t.Error("MineWith did not raise the injected mine panic")
		}
	}()
	MineWith(e, entries, Strategy{
		Faults: &faultinject.Always{Sites: []faultinject.Site{faultinject.MinePanic}},
	})
}
