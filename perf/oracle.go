package main

import (
	"container/heap"
	"fmt"
	"math"

	"repro/client"
	"repro/versioning"
)

// The oracles in this file recompute what the program reports from the
// benchmark's own inputs, so a check never trusts the code it checks.

// planCost is a plan's storage, total and maximum retrieval cost.
type planCost struct {
	Storage, SumRetrieval, MaxRetrieval int64
	Feasible                            bool
}

// evalPlan recomputes a plan's cost: storage is the materialized node
// sizes plus the stored edge sizes, and R(v) is the shortest retrieval
// path over stored edges from any materialized version (Dijkstra).
func evalPlan(g *versioning.Graph, materialized, stored []bool) planCost {
	n := g.N()
	var c planCost
	dist := make([]int64, n)
	pq := &distHeap{}
	for v := 0; v < n; v++ {
		dist[v] = math.MaxInt64
		if materialized[v] {
			c.Storage += g.NodeStorage(versioning.NodeID(v))
			dist[v] = 0
			heap.Push(pq, distItem{v, 0})
		}
	}
	edges := g.Edges()
	out := make([][]int, n)
	for id, e := range edges {
		if stored[id] {
			c.Storage += e.Storage
			out[e.From] = append(out[e.From], id)
		}
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, id := range out[it.v] {
			e := edges[id]
			if nd := it.d + e.Retrieval; nd < dist[e.To] {
				dist[e.To] = nd
				heap.Push(pq, distItem{int(e.To), nd})
			}
		}
	}
	c.Feasible = true
	for _, d := range dist {
		if d == math.MaxInt64 {
			c.Feasible = false
			continue
		}
		c.SumRetrieval += d
		if d > c.MaxRetrieval {
			c.MaxRetrieval = d
		}
	}
	return c
}

type distItem struct {
	v int
	d int64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// summaryPlan turns a served PlanSummary into per-node and per-edge
// flags for evalPlan.
func summaryPlan(g *versioning.Graph, s versioning.PlanSummary) (materialized, stored []bool, err error) {
	materialized = make([]bool, g.N())
	stored = make([]bool, g.M())
	for _, v := range s.Materialized {
		if int(v) < 0 || int(v) >= g.N() {
			return nil, nil, fmt.Errorf("plan materializes unknown version %d", v)
		}
		materialized[v] = true
	}
	for _, e := range s.StoredDeltas {
		if int(e) < 0 || int(e) >= g.M() {
			return nil, nil, fmt.Errorf("plan stores unknown delta %d", e)
		}
		stored[e] = true
	}
	return materialized, stored, nil
}

// optimum is the exhaustive best of one problem on a small graph.
type optimum struct {
	MSR int64 // least total retrieval with storage <= the budget
	BMR int64 // least storage with max retrieval <= the bound
}

// enumerate walks every plan in which each version is either
// materialized or retrieved through exactly one stored in-edge. Every
// optimal plan of MSR and BMR has that form: keeping only a shortest-path
// in-edge per version leaves every R(v) unchanged and never raises
// storage. It returns the optimum for the given budget and bound
// (math.MaxInt64 when nothing is feasible) and calls visit, when non-nil,
// with every acyclic plan and its cost.
func enumerate(g *versioning.Graph, budget, bound int64, visit func(materialized, stored []bool, c planCost)) optimum {
	n := g.N()
	if n > 12 {
		panic("enumerate: graph too large for exhaustive search")
	}
	edges := g.Edges()
	in := make([][]int, n)
	for id, e := range edges {
		in[e.To] = append(in[e.To], id)
	}
	choice := make([]int, n) // -1 materialized, else an in-edge id
	best := optimum{MSR: math.MaxInt64, BMR: math.MaxInt64}
	materialized := make([]bool, n)
	stored := make([]bool, len(edges))
	retr := make([]int64, n)
	state := make([]int8, n) // 0 unvisited, 1 on stack, 2 done
	var resolve func(v int) bool
	resolve = func(v int) bool {
		switch state[v] {
		case 1:
			return false // a cycle of deltas with no materialized source
		case 2:
			return true
		}
		state[v] = 1
		if choice[v] < 0 {
			retr[v] = 0
		} else {
			e := edges[choice[v]]
			if !resolve(int(e.From)) {
				return false
			}
			retr[v] = retr[e.From] + e.Retrieval
		}
		state[v] = 2
		return true
	}
	var walk func(v int)
	walk = func(v int) {
		if v == n {
			for i := range state {
				state[i] = 0
			}
			var c planCost
			for u := 0; u < n; u++ {
				if !resolve(u) {
					return
				}
			}
			for i := range stored {
				stored[i] = false
			}
			for u := 0; u < n; u++ {
				materialized[u] = choice[u] < 0
				if choice[u] < 0 {
					c.Storage += g.NodeStorage(versioning.NodeID(u))
				} else {
					stored[choice[u]] = true
					c.Storage += edges[choice[u]].Storage
				}
				c.SumRetrieval += retr[u]
				if retr[u] > c.MaxRetrieval {
					c.MaxRetrieval = retr[u]
				}
			}
			c.Feasible = true
			if c.Storage <= budget && c.SumRetrieval < best.MSR {
				best.MSR = c.SumRetrieval
			}
			if c.MaxRetrieval <= bound && c.Storage < best.BMR {
				best.BMR = c.Storage
			}
			if visit != nil {
				visit(materialized, stored, c)
			}
			return
		}
		choice[v] = -1
		walk(v + 1)
		for _, id := range in[v] {
			choice[v] = id
			walk(v + 1)
		}
	}
	walk(0)
	return best
}

// applyDiff applies a served edit script to a and reports the result. The
// script must consume a exactly.
func applyDiff(a []string, ops []client.DiffOp) ([]string, error) {
	out := make([]string, 0, len(a))
	i := 0
	for _, op := range ops {
		switch op.Op {
		case "keep":
			if op.N < 0 || i+op.N > len(a) {
				return nil, fmt.Errorf("keep %d overruns source at line %d of %d", op.N, i, len(a))
			}
			out = append(out, a[i:i+op.N]...)
			i += op.N
		case "delete":
			if op.N < 0 || i+op.N > len(a) {
				return nil, fmt.Errorf("delete %d overruns source at line %d of %d", op.N, i, len(a))
			}
			i += op.N
		case "insert":
			out = append(out, op.Lines...)
		default:
			return nil, fmt.Errorf("unknown diff op %q", op.Op)
		}
	}
	if i != len(a) {
		return nil, fmt.Errorf("script consumed %d of %d source lines", i, len(a))
	}
	return out, nil
}

// sameLines reports whether two line slices are equal, and where the
// first difference is.
func sameLines(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d lines, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("line %d differs", i)
		}
	}
	return nil
}

// contentBytes is the committed size of a version: its lines plus one
// separator each.
func contentBytes(lines []string) int64 {
	var n int64
	for _, l := range lines {
		n += int64(len(l)) + 1
	}
	return n
}
