package sat

// This file implements the split step of cube-and-conquer solving
// (Heule, Kullmann, Wieringa, Biere; HVC 2011): divide the search
// space into 2^d cubes — all sign combinations of d chosen variables.
// The cubes jointly form a tautology over the split variables, so the
// formula is satisfiable iff some cube is. CheckFence solves the cubes
// in separate processes (see core.CubeAssumptions and internal/fleet).

import "sort"

// CubeSplitter picks splitting variables for cube-and-conquer.
type CubeSplitter struct {
	// Depth is the number of splitting variables; Split returns up to
	// 2^Depth cubes. Values above 16 are capped.
	Depth int
	// Prefer biases the choice toward these variables. CheckFence
	// passes the memory-order variables: they decide the interleaving
	// structure of an execution, so both sides of such a split carve
	// out genuinely different executions instead of one trivial and
	// one hard branch.
	Prefer []int
	// Avoid excludes these variables from splitting entirely.
	// CheckFence passes the model-selector variables of a sweep
	// encoding: they occur in many clauses (so they would out-score
	// real order variables) yet are fixed by the per-model assumptions,
	// making half of every such split trivially empty.
	Avoid []int
}

// Split scores every unassigned, non-eliminated variable by its
// occurrence balance over the live clause database — (pos+1)*(neg+1),
// so variables constraining both polarities rank highest — with a
// large boost for preferred variables, and returns all sign
// combinations of the top-Depth variables in binary-counting order.
// Variables that never occur are not split on; if fewer than Depth
// variables qualify the depth shrinks accordingly, and nil means no
// split is possible (the caller should solve directly).
func (cs CubeSplitter) Split(s *Solver) [][]Lit {
	d := cs.Depth
	if d > 16 {
		d = 16
	}
	if d <= 0 {
		return nil
	}
	n := len(s.assigns)
	pos := make([]int32, n)
	neg := make([]int32, n)
	count := func(cls []*clause) {
		for _, c := range cls {
			if c.deleted {
				continue
			}
			for _, l := range c.lits {
				if l.Sign() {
					neg[l.Var()]++
				} else {
					pos[l.Var()]++
				}
			}
		}
	}
	count(s.clauses)
	count(s.learnts)
	avoided := make(map[int]bool, len(cs.Avoid))
	for _, v := range cs.Avoid {
		avoided[v] = true
	}
	score := make([]int64, n)
	vars := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if s.assigns[v] != lUndef || s.eliminated[v] || pos[v]+neg[v] == 0 || avoided[v] {
			continue
		}
		score[v] = int64(pos[v]+1) * int64(neg[v]+1)
		vars = append(vars, v)
	}
	for _, v := range cs.Prefer {
		if v >= 0 && v < n && score[v] > 0 {
			score[v] <<= 20
		}
	}
	sort.Slice(vars, func(i, j int) bool {
		a, b := vars[i], vars[j]
		if score[a] != score[b] {
			return score[a] > score[b]
		}
		return a < b // deterministic tie-break
	})
	if len(vars) > d {
		vars = vars[:d]
	}
	d = len(vars)
	if d == 0 {
		return nil
	}
	cubes := make([][]Lit, 1<<uint(d))
	for mask := range cubes {
		cube := make([]Lit, d)
		for i, v := range vars {
			cube[i] = MkLit(v, mask>>uint(i)&1 == 1)
		}
		cubes[mask] = cube
	}
	return cubes
}
