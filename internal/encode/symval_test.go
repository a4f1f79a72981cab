package encode

import (
	"testing"

	"checkfence/internal/bitvec"
	"checkfence/internal/lsl"
	"checkfence/internal/memmodel"
	"checkfence/internal/ranges"
	"checkfence/internal/sat"
)

func newTestEncoder() *Encoder {
	return New(memmodel.SequentialConsistency, ranges.Disabled())
}

func TestConstValInvariants(t *testing.T) {
	e := newTestEncoder()
	// Undefined: all-zero representation.
	u := e.ConstVal(lsl.Undef())
	if u.K1 != bitvec.False || u.K0 != bitvec.False {
		t.Error("undef kind bits must be 00")
	}
	for _, c := range u.Comps {
		if v, ok := c.IsConst(); !ok || v != 0 {
			t.Error("undef components must be zero")
		}
	}
	// Integer: value in comps[0], rest zero.
	i := e.ConstVal(lsl.Int(5))
	if v, _ := i.Comps[0].IsConst(); v != 5 {
		t.Errorf("int comps[0] = %d", v)
	}
	// Pointer: components stored shifted by one so the first zero
	// marks the depth.
	p := e.ConstVal(lsl.Ptr(3, 0))
	if v, _ := p.Comps[0].IsConst(); v != 4 {
		t.Errorf("ptr base comp = %d, want 4 (3+1)", v)
	}
	if v, _ := p.Comps[1].IsConst(); v != 1 {
		t.Errorf("ptr offset comp = %d, want 1 (0+1)", v)
	}
}

func TestEqValConstantFolding(t *testing.T) {
	e := newTestEncoder()
	cases := []struct {
		a, b lsl.Value
		eq   bool
	}{
		{lsl.Int(3), lsl.Int(3), true},
		{lsl.Int(3), lsl.Int(4), false},
		{lsl.Int(0), lsl.Ptr(0), false}, // null int vs pointer base 0
		{lsl.Ptr(1, 2), lsl.Ptr(1, 2), true},
		{lsl.Ptr(1, 2), lsl.Ptr(1, 2, 0), false}, // depth differs
		{lsl.Undef(), lsl.Undef(), true},
		{lsl.Undef(), lsl.Int(0), false},
	}
	for _, c := range cases {
		n := e.EqVal(e.ConstVal(c.a), e.ConstVal(c.b))
		want := bitvec.Const(c.eq)
		if n != want {
			t.Errorf("EqVal(%v, %v) did not fold to %v", c.a, c.b, c.eq)
		}
	}
}

func TestTruthyFolding(t *testing.T) {
	e := newTestEncoder()
	cases := []struct {
		v      lsl.Value
		truthy bool
	}{
		{lsl.Int(0), false},
		{lsl.Int(1), true},
		{lsl.Int(-2), true},
		{lsl.Ptr(0), true},
		{lsl.Undef(), false},
	}
	for _, c := range cases {
		if got := e.Truthy(e.ConstVal(c.v)); got != bitvec.Const(c.truthy) {
			t.Errorf("Truthy(%v) != %v", c.v, c.truthy)
		}
	}
}

func TestAppendCompStatic(t *testing.T) {
	e := newTestEncoder()
	p := e.ConstVal(lsl.Ptr(2))
	out, invalid := e.AppendComp(p, bitvec.ConstBV(e.W, 1))
	if invalid != bitvec.False {
		t.Error("append to shallow pointer must be valid")
	}
	if !e.constEquals(out, lsl.Ptr(2, 1)) {
		t.Errorf("AppendComp result wrong")
	}
	// Appending to a non-pointer is invalid.
	_, invalid = e.AppendComp(e.ConstVal(lsl.Int(3)), bitvec.ConstBV(e.W, 0))
	if invalid != bitvec.True {
		t.Error("append to integer must be invalid")
	}
	// Appending to a depth-3 pointer fills the last slot (D = 4)...
	deep := e.ConstVal(lsl.Ptr(1, 1, 1))
	_, invalid = e.AppendComp(deep, bitvec.ConstBV(e.W, 0))
	if invalid != bitvec.False {
		t.Error("append filling the last slot must be valid")
	}
	// ...and appending to a full pointer is invalid.
	full := e.ConstVal(lsl.Ptr(1, 1, 1, 1))
	_, invalid = e.AppendComp(full, bitvec.ConstBV(e.W, 0))
	if invalid != bitvec.True {
		t.Error("append past depth bound must be invalid")
	}
}

// constEquals checks a SymVal against a constant value by folding.
func (e *Encoder) constEquals(sv SymVal, v lsl.Value) bool {
	return e.EqVal(sv, e.ConstVal(v)) == bitvec.True
}

func TestAppendCompSymbolicIndex(t *testing.T) {
	// Array indexing with a symbolic index: p[i] with i in {0,1}.
	e := newTestEncoder()
	idx := e.B.VarBV(1)
	p := e.ConstVal(lsl.Ptr(4))
	out, invalid := e.AppendComp(p, idx)
	if invalid != bitvec.False {
		t.Fatal("append must be valid")
	}
	// Force idx = 1 and check the decoded pointer.
	e.B.Assert(idx[0])
	for _, bv := range out.Comps {
		for _, n := range bv {
			e.B.Lit(n)
		}
	}
	if e.S.Solve() != sat.Sat {
		t.Fatal("UNSAT")
	}
	if got := e.EvalVal(out); !got.Equal(lsl.Ptr(4, 1)) {
		t.Errorf("p[1] = %v", got)
	}
}

func TestMuxValMergesKinds(t *testing.T) {
	// ite(c, ptr, int 0) — the null-vs-pointer merge the queue code
	// relies on (next == 0 tests).
	e := newTestEncoder()
	c := e.B.Var()
	merged := e.MuxVal(c, e.ConstVal(lsl.Ptr(3)), e.ConstVal(lsl.Int(0)))
	e.B.Assert(c)
	e.B.Lit(merged.K1)
	e.B.Lit(merged.K0)
	for _, bv := range merged.Comps {
		for _, n := range bv {
			e.B.Lit(n)
		}
	}
	if e.S.Solve() != sat.Sat {
		t.Fatal("UNSAT")
	}
	if got := e.EvalVal(merged); !got.Equal(lsl.Ptr(3)) {
		t.Errorf("mux true arm = %v", got)
	}
}

func TestBoolAndIntVal(t *testing.T) {
	e := newTestEncoder()
	if !e.constEquals(e.BoolVal(bitvec.True), lsl.Int(1)) {
		t.Error("BoolVal(true) != 1")
	}
	if !e.constEquals(e.BoolVal(bitvec.False), lsl.Int(0)) {
		t.Error("BoolVal(false) != 0")
	}
	if !e.constEquals(e.IntVal(bitvec.ConstBV(4, 7)), lsl.Int(7)) {
		t.Error("IntVal(7) != 7")
	}
}
