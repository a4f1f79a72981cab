package main

// The paper-relaxed workload: the paper's Fig. 10a rows checked
// serially under Relaxed through the library path (core.Check), cold,
// with no spec cache. A traced run replays each row through the
// layers' exported functions in core.checkAttempt's order.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/encode"
	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/refimpl"
	"checkfence/internal/rf"
	"checkfence/internal/sat"
	"checkfence/internal/spec"
	"checkfence/internal/trace"
	"checkfence/internal/validate"
)

// paperRows maps each row to its known verdict under Relaxed. snark is
// buggy as published (D0 fails); the -nofence variants lack the fences
// the paper inserts; lazylist-bug carries a sequential bug. Rows marked
// long take over a second; the others are short.
var paperRows = []struct {
	impl, test string
	pass, long bool
}{
	{"ms2", "T1", true, false}, {"ms2", "Tpc4", true, false}, {"ms2", "Tpc6", true, true},
	{"msn", "T0", true, false}, {"msn", "Tpc2", true, false}, {"msn", "Ti2", true, true},
	{"lazylist", "Sac", true, false}, {"lazylist", "S1", true, false}, {"lazylist", "Saa", true, true},
	{"harris", "Sac", true, false}, {"harris", "Sar", true, false}, {"harris", "Sacr", true, false},
	{"harris", "Saa", true, true},
	{"snark", "D0", false, false}, {"snark", "Da", true, true},
	{"msn-nofence", "Tpc2", false, false},
	{"lazylist-nofence", "Sac", false, false},
	{"snark-nofence", "Da", false, false},
	{"lazylist-bug", "Sac", false, false},
}

// shortSweeps is how many times an untraced pass checks each short
// row: once in the sweep over every row, then in further sweeps over
// the short rows alone, each in its own seeded order. A short row's
// time is the median of its checks, so one burst of host CPU steal
// cannot move it.
const shortSweeps = 3

// quickPaperRows is the --quick subset; it keeps the known defect and
// both kinds of FAIL row.
var quickPaperRows = map[string]bool{
	"ms2/T1": true, "msn/T0": true, "lazylist/Sac": true, "lazylist/S1": true,
	"msn-nofence/Tpc2": true, "lazylist-bug/Sac": true,
}

// knownDefects are rows whose PASS observation set is known to differ
// from the reference enumeration because of a defect in the program
// (see NOTES.md). They count as failed checks, which ok_frac shows;
// they do not make the run incorrect unless the verdict changes too.
var knownDefects = map[string]string{
	"lazylist/S1": "SAT mining finds 0 observations where refimpl.Enumerate finds 826 (minimal repro: checkfence -impl lazylist -test \"( c' )\" -model sc)",
}

const paperModel = memmodel.Relaxed

type paperRow struct {
	name string
	pass bool
	long bool
	impl *harness.Impl
	test *harness.Test
	ref  *spec.Set // reference observation set of a PASS row
}

type paperWorkload struct {
	cfg    *config
	rows   []*paperRow   // every row, in seed order
	sweeps [][]*paperRow // the sweeps of an untraced pass
	// last holds the latest untraced core.Check result of each row, the
	// oracle the traced replay must reproduce.
	last map[string]*core.Result
}

func newPaper(cfg *config) workload {
	return &paperWorkload{cfg: cfg, last: map[string]*core.Result{}}
}

// setup resolves the rows in seed order and enumerates the reference
// observation set of every PASS row with refimpl, which is independent
// of the SAT miner.
func (w *paperWorkload) setup() error {
	w.rows = nil
	for _, r := range paperRows {
		name := r.impl + "/" + r.test
		if w.cfg.quick && !quickPaperRows[name] {
			continue
		}
		impl, err := harness.Get(r.impl)
		if err != nil {
			return err
		}
		test, err := harness.GetTest(impl, r.test)
		if err != nil {
			return err
		}
		row := &paperRow{name: name, pass: r.pass, long: r.long, impl: impl, test: test}
		if r.pass {
			if row.ref, err = refimpl.Enumerate(impl, test); err != nil {
				return fmt.Errorf("%s: reference set: %w", name, err)
			}
		}
		w.rows = append(w.rows, row)
	}
	rng := rand.New(rand.NewSource(w.cfg.seed))
	rng.Shuffle(len(w.rows), func(i, j int) { w.rows[i], w.rows[j] = w.rows[j], w.rows[i] })
	w.sweeps = [][]*paperRow{w.rows}
	for k := 1; k < shortSweeps; k++ {
		var short []*paperRow
		for _, row := range w.rows {
			if !row.long {
				short = append(short, row)
			}
		}
		rng.Shuffle(len(short), func(i, j int) { short[i], short[j] = short[j], short[i] })
		w.sweeps = append(w.sweeps, short)
	}
	return nil
}

func (w *paperWorkload) close() {}

func (w *paperWorkload) reset() error { return nil }

// run checks every row; an untraced pass of a full run also repeats
// the short rows (see shortSweeps). A row counts once in attempted and
// ok: it is ok when every one of its checks returned the known answer.
func (w *paperWorkload) run(tr *tracer) (*passOut, error) {
	out := &passOut{correct: true}
	sweeps := w.sweeps
	if tr != nil || w.cfg.trace {
		sweeps = sweeps[:1] // traced and untraced halves of a traced run do the same work
	}
	times := map[*paperRow][]float64{}
	failed := map[*paperRow]bool{}
	for _, sweep := range sweeps {
		for _, row := range sweep {
			d, ok, err := w.check(tr, row, out)
			if err != nil {
				return nil, err
			}
			times[row] = append(times[row], ms(d))
			failed[row] = failed[row] || !ok
		}
	}
	for _, row := range w.rows {
		t := median(times[row])
		out.checkMS = append(out.checkMS, t)
		out.attempted++
		if !failed[row] {
			out.ok++
		}
	}
	return out, nil
}

// check runs one row, through core.Check or, when tr is set, through
// the traced replay, and judges the outcome. An answer that contradicts
// the known answers clears out.correct, unless it is the row's recorded
// known defect. The error reports a replay that disagrees with
// core.Check.
func (w *paperWorkload) check(tr *tracer, row *paperRow, out *passOut) (time.Duration, bool, error) {
	t0 := time.Now()
	var (
		res *core.Result
		err error
	)
	if tr == nil {
		res, err = core.Check(row.impl.Name, row.test.Name, core.Options{Model: paperModel})
	} else {
		res, err = replay(tr, row)
	}
	d := time.Since(t0)
	if err != nil {
		w.cfg.detail("row %s: error: %v", row.name, err)
		out.correct = false
		return d, false, nil
	}
	ok, why := judge(row, res.Verdict == core.VerdictPass, res.Cex != nil, res.Spec)
	switch {
	case ok:
	case knownDefects[row.name] != "" && res.Verdict == core.VerdictPass:
		why = "KNOWN DEFECT: " + why
	default:
		out.correct = false
	}
	w.cfg.detail("row %-20s %-4s %9.1f ms  probe %.1f mine %.1f encode %.1f refute %.1f ms  rounds %d obs %d %s",
		row.name, res.Verdict, ms(d), ms(res.Stats.ProbeTime), ms(res.Stats.MineTime),
		ms(res.Stats.EncodeTime), ms(res.Stats.RefuteTime), res.Stats.BoundRounds,
		res.Stats.ObsSetSize, why)
	if tr == nil {
		w.last[row.name] = res
	} else if err := sameAs(w.last[row.name], res); err != nil {
		return d, false, fmt.Errorf("%s: traced replay differs from core.Check: %w", row.name, err)
	}
	return d, ok, nil
}

// judge checks a row's outcome against the known answers: the verdict,
// a counterexample for every FAIL, and the reference observation set
// for every PASS.
func judge(row *paperRow, pass, hasCex bool, set *spec.Set) (bool, string) {
	switch {
	case pass != row.pass:
		return false, fmt.Sprintf("verdict pass=%v, want pass=%v", pass, row.pass)
	case !pass && !hasCex:
		return false, "FAIL without a counterexample"
	case pass && (set == nil || !set.Equal(row.ref)):
		n := 0
		if set != nil {
			n = set.Len()
		}
		return false, fmt.Sprintf("observation set has %d observations, reference has %d", n, row.ref.Len())
	}
	return true, ""
}

// sameAs checks that a replayed result matches core.Check's.
func sameAs(want, got *core.Result) error {
	if want == nil {
		return errors.New("no untraced result to compare with")
	}
	if want.Verdict != got.Verdict {
		return fmt.Errorf("verdict %s, core.Check gave %s", got.Verdict, want.Verdict)
	}
	if (want.Spec == nil) != (got.Spec == nil) || (want.Spec != nil && !want.Spec.Equal(got.Spec)) {
		return errors.New("observation set differs")
	}
	return nil
}

// replay runs one row through the layers' exported functions in the
// order core.checkAttempt calls them, recording a span around each
// call. It covers the configuration core.Check uses for these rows:
// default options, SAT backend, no spec cache.
func replay(tr *tracer, row *paperRow) (*core.Result, error) {
	root := tr.open(row.name, "core.check", 0)
	defer tr.end(root)
	res := &core.Result{Impl: row.impl.Name, Test: row.test.Name, Model: paperModel}
	defer func() { tr.count("core.bound_rounds", float64(res.Stats.BoundRounds)) }()
	call := func(name string, f func() error) error {
		s := tr.open(row.name, name, root.ID)
		err := f()
		tr.end(s)
		return err
	}

	var built *harness.Built
	if err := call("harness.build", func() (err error) {
		built, err = harness.Build(row.impl, row.test)
		return err
	}); err != nil {
		return nil, err
	}
	bounds := map[string]int{}
	var (
		unrolled *harness.Unrolled
		info     *ranges.Info
	)
	front := func() error {
		tr.count("harness.unroll_calls", 1)
		if err := call("harness.unroll", func() (err error) {
			unrolled, err = built.Unroll(bounds)
			return err
		}); err != nil {
			return err
		}
		return call("ranges.analyze", func() error {
			info = ranges.Analyze(unrolled.Bodies)
			return nil
		})
	}
	if err := front(); err != nil {
		return nil, err
	}
	res.Stats.BoundRounds = 1
	done, err := replayCheck(tr, root.ID, row.name, res, built, unrolled, info)
	if err != nil || done {
		return res, err
	}
	grewAny := false
	for round := 0; ; round++ {
		if round >= 12 {
			return nil, fmt.Errorf("loop bounds did not converge after %d rounds", round)
		}
		probeStart := time.Now()
		grew, err := replayProbe(tr, root.ID, row.name, unrolled, info, bounds)
		res.Stats.ProbeTime += time.Since(probeStart)
		if err != nil {
			return nil, err
		}
		if !grew {
			break
		}
		grewAny = true
		res.Stats.BoundRounds = round + 2
		if err := front(); err != nil {
			return nil, err
		}
	}
	if grewAny {
		_, err = replayCheck(tr, root.ID, row.name, res, built, unrolled, info)
	}
	return res, err
}

// replayCheck mines the specification and runs the inclusion check at
// the current bounds; done reports a counterexample.
func replayCheck(tr *tracer, parent int64, id string, res *core.Result, built *harness.Built,
	unrolled *harness.Unrolled, info *ranges.Info) (bool, error) {

	call := func(name string, f func() error) error {
		s := tr.open(id, name, parent)
		err := f()
		tr.end(s)
		switch name {
		case "spec.mine":
			res.Stats.MineTime += s.dur()
		case "spec.inclusion":
			res.Stats.RefuteTime += s.dur()
		}
		return err
	}
	tr.count("core.inclusion_passes", 1)

	// The auto backend's router scans for the reads-from fragment first.
	var scanErr error
	_ = call("rf.scan", func() error {
		_, scanErr = rf.Scan(unrolled.Threads)
		return nil
	})
	if scanErr == nil {
		return false, errors.New("row is inside the reads-from fragment; the replay covers SAT-routed rows")
	}

	serialEnc := encode.NewWithConfig(memmodel.Serial, info, encode.DefaultConfig())
	if err := call("encode.encode", func() error {
		if err := serialEnc.Encode(unrolled.Threads); err != nil {
			return err
		}
		serialEnc.AssertNoOverflow()
		return nil
	}); err != nil {
		return false, err
	}
	var (
		set *spec.Set
		mst spec.MineStats
	)
	mineErr := call("spec.mine", func() (err error) {
		set, mst, err = spec.MineWith(serialEnc, built.Entries, spec.Strategy{})
		return err
	})
	solverStats(tr, serialEnc)
	tr.count("spec.mine_iterations", float64(mst.Iterations))
	var seqBug *spec.SeqBugError
	if errors.As(mineErr, &seqBug) {
		cex := &spec.Counterexample{Obs: seqBug.Obs, IsErr: true, Err: "runtime error in serial execution"}
		res.SeqBug, res.Pass, res.Verdict = true, false, core.VerdictFail
		return true, decodeAndValidate(call, res, serialEnc, built, unrolled, cex)
	}
	if mineErr != nil {
		return false, mineErr
	}
	res.Spec = set
	res.Stats.ObsSetSize = set.Len()

	enc := encode.NewWithConfig(paperModel, info, encode.DefaultConfig())
	if err := call("encode.encode", func() error {
		if err := enc.Encode(unrolled.Threads); err != nil {
			return err
		}
		enc.AssertNoOverflow()
		return nil
	}); err != nil {
		return false, err
	}
	var cex *spec.Counterexample
	if err := call("spec.inclusion", func() (err error) {
		cex, err = spec.CheckInclusionWith(enc, built.Entries, set, spec.Strategy{})
		return err
	}); err != nil {
		return false, err
	}
	solverStats(tr, enc)
	tr.count("encode.cnf_clauses", float64(enc.S.Stats().Clauses))
	if cex == nil {
		res.Pass, res.Verdict = true, core.VerdictPass
		return false, nil
	}
	res.Pass, res.Verdict = false, core.VerdictFail
	return true, decodeAndValidate(call, res, enc, built, unrolled, cex)
}

// solverStats adds an encoder's solver work to the counters.
func solverStats(tr *tracer, e *encode.Encoder) {
	st := e.S.Stats()
	tr.count("sat.conflicts", float64(st.Conflicts))
	tr.count("sat.propagations", float64(st.Propagations))
	tr.count("sat.preprocess_ms", ms(st.PreprocessTime))
}

func decodeAndValidate(call func(string, func() error) error, res *core.Result, enc *encode.Encoder,
	built *harness.Built, unrolled *harness.Unrolled, cex *spec.Counterexample) error {

	_ = call("trace.decode", func() error {
		res.Cex = trace.Build(enc, built, unrolled, cex)
		return nil
	})
	return call("validate.check", func() error {
		return validate.Check(res.Cex, unrolled.Threads, built.Unit.Prog)
	})
}

// replayProbe asks whether an execution exceeds the current loop
// bounds and grows the bounds of every loop that does. Probes run
// under sequential consistency for models weaker than it, as
// core.probeModel does.
func replayProbe(tr *tracer, parent int64, id string, unrolled *harness.Unrolled,
	info *ranges.Info, bounds map[string]int) (bool, error) {

	hasMarkers := false
	for _, li := range unrolled.Loops {
		hasMarkers = hasMarkers || !li.Spin
	}
	if !hasMarkers {
		return false, nil
	}
	probeSpan := tr.open(id, "core.probe", parent)
	defer tr.end(probeSpan)
	model := paperModel
	if memmodel.SequentialConsistency.StrongerThan(model) {
		model = memmodel.SequentialConsistency
	}
	probe := encode.NewWithConfig(model, info, encode.DefaultConfig())
	s := tr.open(id, "encode.encode", probeSpan.ID)
	err := probe.Encode(unrolled.Threads)
	tr.end(s)
	if err != nil {
		return false, err
	}
	probe.AssertSomeOverflow()
	s = tr.open(id, "sat.solve", probeSpan.ID)
	status := probe.S.Solve()
	tr.end(s)
	solverStats(tr, probe)
	switch status {
	case sat.Unsat:
		return false, nil
	case sat.Sat:
	default:
		return false, fmt.Errorf("bound probe: solver returned %s", status)
	}
	grew := false
	for _, loop := range probe.OverflowingLoops() {
		key, ok := unrolled.LoopKey(loop)
		if !ok {
			return false, fmt.Errorf("unknown loop id %d", loop)
		}
		bounds[key] = unrolled.BoundFor(loop) + 1
		grew = true
	}
	if !grew {
		return false, errors.New("overflow probe satisfiable but no loop flagged")
	}
	return true, nil
}

// layers turns the traced replay into per-layer metrics and checks that
// the spans cover at least 95% of every row's wall time.
func (w *paperWorkload) layers(tr *tracer) (map[string]float64, error) {
	cov := tr.coverage("core.check")
	minCov := 1.0
	var low []string
	for row, c := range cov {
		if c < minCov {
			minCov = c
		}
		if c < 0.95 {
			low = append(low, fmt.Sprintf("%s %.3f", row, c))
		}
	}
	if len(low) > 0 {
		return nil, fmt.Errorf("spans cover under 95%% of row wall time: %s", strings.Join(low, ", "))
	}
	m := zeroLayers()
	for _, name := range []string{"harness.build", "harness.unroll", "ranges.analyze", "encode.encode",
		"spec.mine", "spec.inclusion", "core.probe", "trace.decode", "validate.check"} {
		m[name+"_ms"] = tr.totalMS(name)
	}
	for _, name := range []string{"harness.unroll_calls", "core.bound_rounds", "core.inclusion_passes",
		"spec.mine_iterations", "encode.cnf_clauses", "sat.conflicts", "sat.propagations", "sat.preprocess_ms"} {
		m[name] = tr.counters[name]
	}
	m["sat.search_ms"] = tr.totalMS("sat.solve") + m["spec.mine_ms"] + m["spec.inclusion_ms"] - m["sat.preprocess_ms"]
	m["bench.span_coverage_min"] = minCov
	w.cfg.detail("core.Stats phases beside spans are on the row lines above; spans: probe %.1f mine %.1f inclusion %.1f encode %.1f ms",
		m["core.probe_ms"], m["spec.mine_ms"], m["spec.inclusion_ms"], m["encode.encode_ms"])
	return m, nil
}

// zeroLayers returns every per-layer metric set to 0; each workload
// fills in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
