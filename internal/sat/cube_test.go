package sat

import "testing"

// TestCubeSplitterShape: 2^d cubes over d distinct variables, every
// sign combination present exactly once.
func TestCubeSplitterShape(t *testing.T) {
	s := New()
	plantedInstance(s, 20, 80, 9)
	cubes := CubeSplitter{Depth: 3}.Split(s)
	if len(cubes) != 8 {
		t.Fatalf("got %d cubes, want 8", len(cubes))
	}
	seen := map[int]bool{}
	for _, cube := range cubes {
		if len(cube) != 3 {
			t.Fatalf("cube width %d, want 3", len(cube))
		}
		mask := 0
		for i, l := range cube {
			if l.Var() != cubes[0][i].Var() {
				t.Fatal("cubes must split the same variables in the same order")
			}
			if l.Sign() {
				mask |= 1 << i
			}
		}
		if seen[mask] {
			t.Fatalf("sign combination %b repeated", mask)
		}
		seen[mask] = true
	}
}

// TestCubeSplitterPrefer: a preferred variable beats higher-occurrence
// ones.
func TestCubeSplitterPrefer(t *testing.T) {
	s := New()
	v0, v1, v2 := s.NewVar(), s.NewVar(), s.NewVar()
	// v1 and v2 occur often; v0 only once per polarity.
	for i := 0; i < 10; i++ {
		w := s.NewVar()
		s.AddClause(Pos(v1), Pos(w))
		s.AddClause(Neg(v1), Neg(w))
		s.AddClause(Pos(v2), Neg(w))
	}
	s.AddClause(Pos(v0), Pos(v1))
	s.AddClause(Neg(v0), Neg(v2))
	cubes := CubeSplitter{Depth: 1, Prefer: []int{v0}}.Split(s)
	if len(cubes) != 2 {
		t.Fatalf("got %d cubes, want 2", len(cubes))
	}
	if cubes[0][0].Var() != v0 {
		t.Fatalf("split variable = %d, want preferred %d", cubes[0][0].Var(), v0)
	}
}
