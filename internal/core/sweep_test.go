package core

import (
	"reflect"
	"testing"
	"time"

	"checkfence/internal/faultinject"
	"checkfence/internal/memmodel"
)

func fourModelJobs(impl, test string, opts Options) []Job {
	models := []memmodel.Model{
		memmodel.SequentialConsistency, memmodel.TSO,
		memmodel.PSO, memmodel.Relaxed,
	}
	jobs := make([]Job, len(models))
	for i, m := range models {
		o := opts
		o.Model = m
		jobs[i] = Job{Impl: impl, Test: test, Opts: o}
	}
	return jobs
}

// TestSweepEarlyExit: when a stronger model's counterexample replays
// under a weaker model's axioms, the weaker model must be decided
// without a solve and report it. ms2-nofence/T0 fails with an
// out-of-spec observation under both PSO and Relaxed, so the sweep
// decides Relaxed by replaying PSO's trace.
func TestSweepEarlyExit(t *testing.T) {
	results := RunSuite(fourModelJobs("ms2-nofence", "T0", Options{}),
		SuiteOptions{Parallelism: 1})
	requireAllRan(t, results)
	var early int
	for i, r := range results {
		early += r.Res.Stats.SweepEarlyExit
		wantPass := i < 2 // SC and TSO hold, PSO and Relaxed fail
		if r.Res.Pass != wantPass {
			t.Errorf("%v: pass=%v, want %v", r.Job.Opts.Model, r.Res.Pass, wantPass)
		}
		if !r.Res.Pass && r.Res.Cex == nil {
			t.Errorf("%v: failure without a counterexample", r.Job.Opts.Model)
		}
	}
	if early == 0 {
		t.Error("no member was decided by counterexample replay")
	}
	relaxed := results[3].Res
	if relaxed.Stats.SweepEarlyExit != 1 {
		t.Errorf("relaxed: SweepEarlyExit=%d, want 1", relaxed.Stats.SweepEarlyExit)
	}
	if relaxed.Cex == nil || relaxed.Cex.Model != memmodel.Relaxed {
		t.Errorf("replayed counterexample not relabeled: %+v", relaxed.Cex)
	}
}

// TestSweepFallbackIndependent: jobs that cannot sweep — a forced rf
// backend, a Serial member, an explicit opt-out — run independently
// and still produce correct results.
func TestSweepFallbackIndependent(t *testing.T) {
	jobs := fourModelJobs("ms2", "T0", Options{Sweep: SweepOff})
	jobs = append(jobs, Job{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.Serial}})
	results := RunSuite(jobs, SuiteOptions{Parallelism: 2})
	requireAllRan(t, results)
	for i, r := range results {
		if !r.Res.Pass {
			t.Errorf("job %d must pass", i)
		}
		if r.Res.Stats.SweepGroups != 0 {
			t.Errorf("job %d joined a group despite opting out", i)
		}
	}
}

// TestSweepDeadlineFallback: a group whose shared attempt exhausts its
// budget falls back to independent checks carved from the remaining
// window, so a tight group budget degrades, never wedges.
func TestSweepDeadlineFallback(t *testing.T) {
	jobs := fourModelJobs("msn", "T0", Options{Deadline: time.Nanosecond})
	results := RunSuite(jobs, SuiteOptions{Parallelism: 1})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Res == nil {
			t.Fatalf("job %d: nil result", i)
		}
		// Each member must resolve to a verdict (pass or unknown after
		// the ladder) — never an error.
		if r.Res.Verdict == VerdictFail {
			t.Errorf("job %d: spurious failure under a starved budget", i)
		}
	}
}

// TestSweepFallbackDeadlineBudget: fallback members share the group's
// remaining deadline instead of opening fresh windows. snark/Da takes
// seconds, so a 400ms group deadline forces the shared attempt to
// exhaust and every member to fall back; before the carve each member
// re-ran under its own full 400ms window and the unit's wall clock
// inflated to ~(1 + members) x the configured deadline.
func TestSweepFallbackDeadlineBudget(t *testing.T) {
	const deadline = 400 * time.Millisecond
	start := time.Now()
	results := RunSuite(fourModelJobs("snark", "Da", Options{Deadline: deadline}),
		SuiteOptions{Parallelism: 1})
	elapsed := time.Since(start)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Res.Verdict != VerdictUnknown {
			// The problem needs seconds; under 400ms every member must
			// budget out (a definitive verdict would mean the deadline
			// was not enforced — or hardware got very fast).
			t.Logf("job %d: verdict %v inside the deadline", i, r.Res.Verdict)
		}
	}
	// Generous ceiling: the group attempt may use the full window and
	// members add bounded overhead, but nothing re-opens a full
	// window. The pre-fix behavior lands at ~5x the deadline.
	if elapsed > 3*deadline {
		t.Errorf("sweep unit took %v under a %v deadline; fallback deadlines not carved from the group budget", elapsed, deadline)
	}
}

// TestSweepFingerprintSeparates: jobs with differing non-model options
// must not share a group.
func TestSweepFingerprintSeparates(t *testing.T) {
	jobs := []Job{
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.SequentialConsistency}},
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.Relaxed}},
		{Impl: "ms2", Test: "T0", Opts: Options{Model: memmodel.TSO, SimplifyLevel: 1}},
	}
	eff := make([]Options, len(jobs))
	for i := range jobs {
		eff[i] = jobs[i].Opts
	}
	units := planUnits(jobs, eff, true)
	var groups, singles int
	for _, u := range units {
		if u.group != nil {
			groups++
			if len(u.group.models) != 2 {
				t.Errorf("group has %d models, want 2", len(u.group.models))
			}
		} else {
			singles++
		}
	}
	if groups != 1 || singles != 1 {
		t.Errorf("units: %d groups, %d singles; want 1 and 1", groups, singles)
	}
}

// TestSweepDuplicateModels: two jobs with the identical model share
// the group's single check and both receive results.
func TestSweepDuplicateModels(t *testing.T) {
	jobs := fourModelJobs("ms2", "T0", Options{})
	jobs = append(jobs, jobs[0]) // duplicate the SC job
	results := RunSuite(jobs, SuiteOptions{Parallelism: 1})
	requireAllRan(t, results)
	a, b := results[0].Res, results[len(results)-1].Res
	if a == b {
		t.Error("duplicate jobs share one *Result; want distinct copies")
	}
	if a.Pass != b.Pass || !a.Spec.Equal(b.Spec) {
		t.Error("duplicate jobs diverge")
	}
}

// TestSweepLeaderStatsAcrossRounds: a sweep leader accumulates its
// counters over every bound round, like an independent check does.
// msn/T0 grows its bounds, so mining runs at the initial and at the
// converged bounds: both the independent SC check and the leader of the
// four-model group (SC) must report both cache misses and the same
// number of bound rounds.
func TestSweepLeaderStatsAcrossRounds(t *testing.T) {
	indep, err := Check("msn", "T0", Options{
		Model: memmodel.SequentialConsistency, SpecCache: NewSpecCache(""),
	})
	if err != nil {
		t.Fatal(err)
	}
	if indep.Stats.BoundRounds < 2 {
		t.Fatalf("msn/T0 converged in %d bound rounds; the test needs growth", indep.Stats.BoundRounds)
	}
	results := RunSuite(fourModelJobs("msn", "T0", Options{}), SuiteOptions{Parallelism: 1})
	requireAllRan(t, results)
	leader := results[0].Res.Stats
	if leader.SweepGroups != 1 {
		t.Fatalf("SC job did not lead a sweep group (SweepGroups=%d)", leader.SweepGroups)
	}
	if leader.SpecCacheMisses != indep.Stats.SpecCacheMisses {
		t.Errorf("leader SpecCacheMisses=%d, independent SC check %d",
			leader.SpecCacheMisses, indep.Stats.SpecCacheMisses)
	}
	if leader.BoundRounds != indep.Stats.BoundRounds {
		t.Errorf("leader BoundRounds=%d, independent SC check %d",
			leader.BoundRounds, indep.Stats.BoundRounds)
	}
}

// TestSweepFingerprintCoversOptions: every Options field except Model,
// Sweep and the group's front cache takes part in the grouping key, so
// a field added later cannot silently group jobs that differ in it.
func TestSweepFingerprintCoversOptions(t *testing.T) {
	base := sweepFingerprint(Options{})
	ignored := map[string]bool{"Model": true, "Sweep": true, "front": true}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var o Options
		v := reflect.ValueOf(&o).Elem().Field(i)
		v = reflect.NewAt(v.Type(), v.Addr().UnsafePointer()).Elem() // settable even if unexported
		setNonZero(t, f.Name, v)
		if got := sweepFingerprint(o) != base; got == ignored[f.Name] {
			t.Errorf("field %s: key changed=%v, want %v", f.Name, got, !ignored[f.Name])
		}
	}
}

// setNonZero stores a non-zero value of v's type in v.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		setNonZero(t, name, s.Index(0))
		v.Set(s)
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		key, val := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		setNonZero(t, name, key)
		setNonZero(t, name, val)
		m.SetMapIndex(key, val)
		v.Set(m)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Chan:
		v.Set(reflect.MakeChan(reflect.ChanOf(reflect.BothDir, v.Type().Elem()), 0).Convert(v.Type()))
	case reflect.Interface:
		if v.Type() != reflect.TypeOf((*faultinject.Faults)(nil)).Elem() {
			t.Fatalf("field %s: no non-zero value for interface %v", name, v.Type())
		}
		v.Set(reflect.ValueOf(&faultinject.Always{}))
	case reflect.Struct:
		if v.NumField() == 0 {
			t.Fatalf("field %s: empty struct %v has no non-zero value", name, v.Type())
		}
		setNonZero(t, name, v.Field(0))
	default:
		t.Fatalf("field %s: unhandled kind %v", name, v.Kind())
	}
}
