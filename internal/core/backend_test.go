package core

import (
	"strings"
	"testing"

	"checkfence/internal/harness"
	"checkfence/internal/memmodel"
)

// litmusImpl is a four-operation datatype whose ops are single global
// accesses, so harness tests compose into classic litmus shapes. It is
// squarely inside the reads-from fragment: the router must send it to
// the rf engine under auto.
func litmusImpl() *harness.Impl {
	return &harness.Impl{
		Name: "litmusdt", Kind: "litmus", Source: `
int x;
int y;

void init_lit(int *s) { x = 0; y = 0; }
void wx(int *s) { x = 1; }
void wy(int *s) { y = 1; }
int rx(int *s) { return x; }
int ry(int *s) { return y; }
`,
		InitFunc: "init_lit", Obj: "x",
		Ops: []harness.OpSig{
			{Mnemonic: "a", Func: "wx"},
			{Mnemonic: "b", Func: "wy"},
			{Mnemonic: "c", Func: "rx", HasRet: true},
			{Mnemonic: "d", Func: "ry", HasRet: true},
		},
	}
}

func checkLitmus(t *testing.T, notation string, opts Options) *Result {
	t.Helper()
	impl := litmusImpl()
	test, err := harness.ParseTest("lit", notation, impl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckImpl(impl, test, opts)
	if err != nil {
		t.Fatalf("CheckImpl(%s, %v): %v", notation, opts.Backend, err)
	}
	return res
}

// TestBackendAgreement is the backend ablation: auto, forced rf, and
// forced serial SAT must produce bit-identical verdicts and observation
// sets on litmus shapes across every model, and each must match the
// architectural ground truth. Auto must actually route these to rf.
func TestBackendAgreement(t *testing.T) {
	cases := []struct {
		name, notation string
		// fails[model]: whether the check must find a counterexample
		fails map[memmodel.Model]bool
	}{
		{"store-buffering", "( ad | bc )", map[memmodel.Model]bool{
			memmodel.SequentialConsistency: false,
			memmodel.TSO:                   true,
			memmodel.PSO:                   true,
			memmodel.Relaxed:               true,
		}},
		{"message-passing", "( ab | dc )", map[memmodel.Model]bool{
			memmodel.SequentialConsistency: false,
			memmodel.TSO:                   false,
			memmodel.PSO:                   true,
			memmodel.Relaxed:               true,
		}},
	}
	models := []memmodel.Model{memmodel.SequentialConsistency,
		memmodel.TSO, memmodel.PSO, memmodel.Relaxed}
	for _, tc := range cases {
		for _, model := range models {
			auto := checkLitmus(t, tc.notation, Options{Model: model})
			rf := checkLitmus(t, tc.notation, Options{Model: model, Backend: BackendRF})
			sat := checkLitmus(t, tc.notation, Options{Model: model, Backend: BackendSAT})

			if auto.Stats.Backend != "rf" {
				t.Errorf("%s/%s: auto routed to %q (%s), want rf",
					tc.name, model, auto.Stats.Backend, auto.Stats.RouterDecision)
			}
			if sat.Stats.Backend != "sat" {
				t.Errorf("%s/%s: forced sat ran on %q", tc.name, model, sat.Stats.Backend)
			}
			for _, r := range []*Result{auto, rf, sat} {
				if r.Pass == tc.fails[model] {
					t.Errorf("%s/%s/%s: pass=%v, ground truth fails=%v",
						tc.name, model, r.Stats.Backend, r.Pass, tc.fails[model])
				}
				if !r.Pass && r.Cex == nil {
					t.Errorf("%s/%s/%s: failed without a counterexample", tc.name, model, r.Stats.Backend)
				}
				if !r.Spec.Equal(sat.Spec) {
					t.Errorf("%s/%s/%s: observation set diverges from SAT mining\n%s: %v\nsat: %v",
						tc.name, model, r.Stats.Backend, r.Stats.Backend, r.Spec.All(), sat.Spec.All())
				}
			}
		}
	}
}

// TestRouterSkipsNonFragment: a real datatype (havocked arguments,
// arithmetic, CAS loops) is outside the rf fragment; auto must fall to
// SAT with a reasoned decision and zero rf work.
func TestRouterSkipsNonFragment(t *testing.T) {
	res := check(t, "msn", "T0", Options{Model: memmodel.SequentialConsistency})
	if res.Stats.Backend != "sat" {
		t.Fatalf("msn/T0 ran on %q, want sat", res.Stats.Backend)
	}
	if !strings.HasPrefix(res.Stats.RouterDecision, "sat (") {
		t.Errorf("router decision %q does not explain the SAT fallback", res.Stats.RouterDecision)
	}
	if res.Stats.RFSteps != 0 || res.Stats.RFExecs != 0 {
		t.Errorf("rf counters nonzero on a SAT check: steps=%d execs=%d",
			res.Stats.RFSteps, res.Stats.RFExecs)
	}
}

// TestBackendRFLadderFallback: forcing rf on a non-fragment program
// must not error out — the degradation ladder's SAT rungs take over,
// and the exhausted rf rung is recorded in the budget report.
func TestBackendRFLadderFallback(t *testing.T) {
	res := check(t, "msn", "T0", Options{
		Model: memmodel.SequentialConsistency, Backend: BackendRF,
	})
	if !res.Pass {
		t.Fatalf("msn/T0 on SC must pass; cex:\n%v", res.Cex)
	}
	if res.Stats.Backend != "sat" {
		t.Errorf("verdict backend %q, want sat", res.Stats.Backend)
	}
	if res.Budget == nil || len(res.Budget.Rungs) == 0 || res.Budget.Rungs[0].Name != "rf" {
		t.Fatalf("budget report must record the exhausted rf rung; got %+v", res.Budget)
	}
}
