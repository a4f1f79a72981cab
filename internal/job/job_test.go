package job

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"checkfence/internal/core"
	"checkfence/internal/memmodel"
)

func TestRoundTrip(t *testing.T) {
	c := Check{
		Program:           Program{Name: "msn"},
		Test:              "T0",
		Model:             "tso",
		Backend:           "rf",
		SpecSource:        "refset",
		Bounds:            map[string]int{"L0": 2},
		MaxBoundRounds:    5,
		MaxMineIterations: 100,
		SimplifyLevel:     2,
		NoPreprocess:      true,
		NoInprocess:       true,
		NoOrderReduce:     true,
		NoRangeAnalysis:   true,
		NoValidate:        true,
		Sweep:             "off",
		Timeout:           Duration(90 * time.Second),
		ConflictBudget:    1 << 20,
		MemBudgetMB:       256,
		Assume:            []int{3, -7},
		CubeOf:            "deadbeef",
		CubeIndex:         2,
	}
	data, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	var back Check
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("round trip changed the description:\n%s\n%s", data, again)
	}
	if back.Fingerprint() != c.Fingerprint() {
		t.Error("fingerprint changed across round trip")
	}
}

func TestDurationForms(t *testing.T) {
	var c Check
	if err := json.Unmarshal([]byte(`{"program":{"name":"msn"},"test":"T0","timeout":"1m30s"}`), &c); err != nil {
		t.Fatal(err)
	}
	if time.Duration(c.Timeout) != 90*time.Second {
		t.Errorf("string timeout = %v, want 90s", time.Duration(c.Timeout))
	}
	if err := json.Unmarshal([]byte(`{"program":{"name":"msn"},"test":"T0","timeout":5000000000}`), &c); err != nil {
		t.Fatal(err)
	}
	if time.Duration(c.Timeout) != 5*time.Second {
		t.Errorf("numeric timeout = %v, want 5s", time.Duration(c.Timeout))
	}
	if err := json.Unmarshal([]byte(`{"timeout":"fast"}`), &c); err == nil {
		t.Error("expected error for unparsable duration")
	}
}

func TestOptionsMapping(t *testing.T) {
	c := Check{
		Program:        Program{Name: "msn"},
		Test:           "T0",
		Model:          "pso",
		Backend:        "sat",
		SpecSource:     "refset",
		Sweep:          "off",
		NoValidate:     true,
		Timeout:        Duration(2 * time.Second),
		ConflictBudget: 777,
		Bounds:         map[string]int{"L1": 3},
	}
	opts, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Model != memmodel.PSO {
		t.Errorf("model = %v", opts.Model)
	}
	if opts.Backend != core.BackendSAT {
		t.Errorf("backend = %v", opts.Backend)
	}
	if opts.SpecSource != core.SpecRef {
		t.Errorf("spec source = %v", opts.SpecSource)
	}
	if opts.Sweep != core.SweepOff {
		t.Errorf("sweep = %v", opts.Sweep)
	}
	if !opts.NoValidate {
		t.Errorf("NoValidate = %v", opts.NoValidate)
	}
	if opts.Deadline != 2*time.Second {
		t.Errorf("deadline = %v", opts.Deadline)
	}
	if opts.ConflictBudget != 777 {
		t.Errorf("conflict budget = %d", opts.ConflictBudget)
	}
	if opts.InitialBounds["L1"] != 3 {
		t.Errorf("bounds = %v", opts.InitialBounds)
	}
}

func TestFromOptionsInverts(t *testing.T) {
	orig := core.Options{
		Model:             memmodel.TSO,
		Backend:           core.BackendRF,
		SpecSource:        core.SpecRef,
		Sweep:             core.SweepOff,
		NoValidate:        true,
		MaxMineIterations: 16,
		Deadline:          time.Minute,
		InitialBounds:     map[string]int{"L0": 4},
	}
	c := FromOptions("ms2", "Tr1", orig)
	got, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != orig.Model || got.Backend != orig.Backend ||
		got.SpecSource != orig.SpecSource || got.Sweep != orig.Sweep ||
		got.NoValidate != orig.NoValidate ||
		got.MaxMineIterations != orig.MaxMineIterations ||
		got.Deadline != orig.Deadline {
		t.Errorf("FromOptions . Options != identity:\norig %+v\ngot  %+v", orig, got)
	}
	if got.InitialBounds["L0"] != 4 {
		t.Errorf("bounds lost: %v", got.InitialBounds)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		c    Check
		want string
	}{
		{"no program", Check{Test: "T0"}, "program.name"},
		{"no test", Check{Program: Program{Name: "msn"}}, "test is required"},
		{"bad model", Check{Program: Program{Name: "msn"}, Test: "T0", Model: "ppc"}, "ppc"},
		{"bad backend", Check{Program: Program{Name: "msn"}, Test: "T0", Backend: "z3"}, "z3"},
		// The in-process portfolio and cube-and-conquer backends are
		// gone; naming them is an error, not a silent serial run.
		{"portfolio backend", Check{Program: Program{Name: "msn"}, Test: "T0", Backend: "portfolio"}, "portfolio"},
		{"cube backend", Check{Program: Program{Name: "msn"}, Test: "T0", Backend: "cube"}, "cube"},
		{"bad spec source", Check{Program: Program{Name: "msn"}, Test: "T0", SpecSource: "oracle"}, "spec source"},
		{"bad sweep", Check{Program: Program{Name: "msn"}, Test: "T0", Sweep: "sideways"}, "sideways"},
		{"negative timeout", Check{Program: Program{Name: "msn"}, Test: "T0", Timeout: Duration(-1)}, "negative timeout"},
		{"inline no ops", Check{Program: Program{Name: "x", Source: "int x;"}, Test: "T0"}, "no operations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestAssumeConsumed(t *testing.T) {
	c := Check{Program: Program{Name: "msn"}, Test: "T0", Assume: []int{3, -7}}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate should accept assumptions (wire round-trip): %v", err)
	}
	opts, err := c.Options()
	if err != nil {
		t.Fatalf("Options should consume assumptions: %v", err)
	}
	if len(opts.Assume) != 2 || opts.Assume[0] != 3 || opts.Assume[1] != -7 {
		t.Errorf("Options.Assume = %v, want [3 -7]", opts.Assume)
	}
	// The mapping must copy, not alias: a coordinator reuses one
	// description template across cubes.
	opts.Assume[0] = 99
	if c.Assume[0] != 3 {
		t.Error("Options aliased the description's Assume slice")
	}
	back := FromOptions("msn", "T0", opts)
	if len(back.Assume) != 2 || back.Assume[0] != 99 || back.Assume[1] != -7 {
		t.Errorf("FromOptions lost assumptions: %v", back.Assume)
	}
}

func TestCubeFieldsRoundTrip(t *testing.T) {
	parent := Check{Program: Program{Name: "msn"}, Test: "T0", Model: "relaxed"}
	cube := parent
	cube.Assume = []int{1, -2}
	cube.CubeOf = parent.Fingerprint()
	cube.CubeIndex = 1

	data, err := json.Marshal(&cube)
	if err != nil {
		t.Fatal(err)
	}
	var back Check
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.CubeOf != cube.CubeOf || back.CubeIndex != 1 {
		t.Errorf("cube lineage lost: of=%q idx=%d", back.CubeOf, back.CubeIndex)
	}
	if back.Fingerprint() != cube.Fingerprint() {
		t.Error("fingerprint changed across round trip")
	}
	if cube.Fingerprint() == parent.Fingerprint() {
		t.Error("a cube must not collide with its parent in content-addressed caches")
	}
	sibling := cube
	sibling.Assume = []int{-1, -2}
	sibling.CubeIndex = 2
	if sibling.Fingerprint() == cube.Fingerprint() {
		t.Error("sibling cubes must have distinct fingerprints")
	}
}

func TestResolveRegistryAndInline(t *testing.T) {
	reg := Check{Program: Program{Name: "msn"}, Test: "T0"}
	impl, test, err := reg.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if impl.Name != "msn" || test == nil {
		t.Errorf("registry resolve: %v %v", impl, test)
	}

	// Inline program cloned from a bundled one must resolve and check
	// identically to the registry path.
	inline := Check{
		Program: Program{
			Name:     "inline-msn",
			Source:   impl.Source,
			InitFunc: impl.InitFunc,
			Object:   impl.Obj,
			Kind:     impl.Kind,
		},
		Test: "T0",
	}
	for _, op := range impl.Ops {
		inline.Program.Ops = append(inline.Program.Ops, Op{
			Mnemonic: op.Mnemonic, Func: op.Func,
			NumArgs: op.NumArgs, HasRet: op.HasRet, HasOut: op.HasOut,
		})
	}
	iimpl, itest, err := inline.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if iimpl.Name != "inline-msn" || itest.Name != test.Name {
		t.Errorf("inline resolve: %v %v", iimpl.Name, itest.Name)
	}
	j, err := inline.CoreJob()
	if err != nil {
		t.Fatal(err)
	}
	if j.ImplRef == nil || j.TestRef == nil {
		t.Error("inline CoreJob should carry resolved refs")
	}
	if rj, err := reg.CoreJob(); err != nil || rj.ImplRef != nil {
		t.Errorf("registry CoreJob should not carry refs: %v %v", rj.ImplRef, err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := Check{Program: Program{Name: "msn"}, Test: "T0", Model: "relaxed"}
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical descriptions should share a fingerprint")
	}
	// Defaults normalize: empty model == "relaxed".
	c := a
	c.Model = ""
	if c.Fingerprint() != a.Fingerprint() {
		t.Error("default model should fingerprint like its explicit form")
	}
	d := a
	d.Model = "tso"
	if d.Fingerprint() == a.Fingerprint() {
		t.Error("model change should change the fingerprint")
	}
	e := a
	e.MaxMineIterations = 4
	if e.Fingerprint() == a.Fingerprint() {
		t.Error("option change should change the fingerprint")
	}
}

// TestLegacyStrategyFields: descriptions from clients that still send
// the removed in-process parallelism knobs decode, validate,
// fingerprint like the plain description, and run to the plain
// description's verdict and observation set.
func TestLegacyStrategyFields(t *testing.T) {
	const plain = `{"program":{"name":"msn"},"test":"T0","model":"relaxed"}`
	var want Check
	if err := json.Unmarshal([]byte(plain), &want); err != nil {
		t.Fatal(err)
	}
	wantRes, err := core.Check("msn", "T0", core.Options{Model: memmodel.Relaxed})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, json string }{
		{"portfolio", `{"program":{"name":"msn"},"test":"T0","model":"relaxed","portfolio":4}`},
		{"share_clauses", `{"program":{"name":"msn"},"test":"T0","model":"relaxed","share_clauses":true}`},
		{"cube", `{"program":{"name":"msn"},"test":"T0","model":"relaxed","cube":4}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c Check
			if err := json.Unmarshal([]byte(tc.json), &c); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if c.Fingerprint() != want.Fingerprint() {
				t.Error("a removed knob changed the fingerprint")
			}
			j, err := c.CoreJob()
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Check(j.Impl, j.Test, j.Opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != wantRes.Verdict || !res.Spec.Equal(wantRes.Spec) {
				t.Errorf("verdict %v (%d obs), want %v (%d obs)",
					res.Verdict, res.Spec.Len(), wantRes.Verdict, wantRes.Spec.Len())
			}
		})
	}
}
