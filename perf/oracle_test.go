package main

import (
	"math/rand"
	"strings"
	"testing"

	"repro/client"
	"repro/versioning"
)

// handGraph is a three-version instance whose optima are worked out by
// hand in the tests below.
func handGraph() *versioning.Graph {
	g := versioning.NewGraph("hand")
	g.AddNode(100)
	g.AddNode(120)
	g.AddNode(130)
	g.AddEdge(0, 1, 10, 10) // e0
	g.AddEdge(1, 0, 10, 10) // e1
	g.AddEdge(1, 2, 20, 20) // e2
	g.AddEdge(2, 1, 25, 25) // e3
	g.AddEdge(0, 2, 50, 5)  // e4
	return g
}

func TestEnumerateHandOptima(t *testing.T) {
	g := handGraph()
	// Budget 130: v0 plus e0 and e2 (R = 0, 10, 30).
	if got := enumerate(g, 130, 0, nil).MSR; got != 40 {
		t.Errorf("MSR(130) = %d, want 40", got)
	}
	// Budget 160: v0 plus e0 and e4 (R = 0, 10, 5).
	if got := enumerate(g, 160, 0, nil).MSR; got != 15 {
		t.Errorf("MSR(160) = %d, want 15", got)
	}
	// Max retrieval 10: the same plan, storage 160.
	if got := enumerate(g, 0, 10, nil).BMR; got != 160 {
		t.Errorf("BMR(10) = %d, want 160", got)
	}
	// Max retrieval 0: everything materialized.
	if got := enumerate(g, 0, 0, nil).BMR; got != 350 {
		t.Errorf("BMR(0) = %d, want 350", got)
	}
}

// TestEvaluatorMatchesEnumerator checks the Dijkstra evaluator against the
// enumerator's own path sums on every plan of hand-made and random small
// graphs.
func TestEvaluatorMatchesEnumerator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*versioning.Graph{handGraph()}
	for i := 0; i < 6; i++ {
		graphs = append(graphs, smallGraph(rng, "g", i%2 == 0))
	}
	for _, g := range graphs {
		plans := 0
		enumerate(g, 0, 0, func(mat, stored []bool, c planCost) {
			plans++
			if ev := evalPlan(g, mat, stored); ev != c {
				t.Fatalf("%s: evaluator %+v, enumerator %+v", g.Name, ev, c)
			}
		})
		if plans == 0 {
			t.Fatalf("%s: no plan enumerated", g.Name)
		}
	}
}

func TestEvaluatorInfeasible(t *testing.T) {
	g := handGraph()
	// v2 has no stored path from the materialized v0.
	c := evalPlan(g, []bool{true, false, false}, []bool{true, false, false, false, false})
	if c.Feasible {
		t.Fatalf("plan without a path to v2 evaluated feasible: %+v", c)
	}
}

// answer builds a portfolio result claiming cost for the given plan.
func answerFor(mat, stored []bool, cost planCost) versioning.PortfolioResult {
	return versioning.PortfolioResult{
		Winner: "test",
		Solution: versioning.Solution{
			Plan: &versioning.Plan{Materialized: mat, Stored: stored},
			Cost: versioning.PlanCost{Storage: cost.Storage, SumRetrieval: cost.SumRetrieval,
				MaxRetrieval: cost.MaxRetrieval, Feasible: cost.Feasible},
		},
	}
}

func TestCheckAnswerCatchesCorruptPlans(t *testing.T) {
	g := handGraph()
	opt := enumerate(g, 160, 10, nil)
	msr := instance{name: "msr", g: g, problem: versioning.ProblemMSR, constraint: 160, exact: &opt}
	bmr := instance{name: "bmr", g: g, problem: versioning.ProblemBMR, constraint: 10, exact: &opt}
	mat := []bool{true, false, false}
	best := []bool{true, false, false, false, true} // e0, e4
	good := evalPlan(g, mat, best)
	if err := checkAnswer(msr, answerFor(mat, best, good)); err != nil {
		t.Fatalf("optimal MSR answer rejected: %v", err)
	}
	if err := checkAnswer(bmr, answerFor(mat, best, good)); err != nil {
		t.Fatalf("optimal BMR answer rejected: %v", err)
	}

	lying := good
	lying.SumRetrieval--
	if err := checkAnswer(msr, answerFor(mat, best, lying)); err == nil {
		t.Error("answer misreporting its cost was accepted")
	}
	chain := []bool{true, false, true, false, false} // e0, e2
	over := instance{name: "over", g: g, problem: versioning.ProblemMSR, constraint: 129}
	if err := checkAnswer(over, answerFor(mat, chain, evalPlan(g, mat, chain))); err == nil {
		t.Error("answer over its storage budget was accepted")
	}
	if err := checkAnswer(bmr, answerFor(mat, chain, evalPlan(g, mat, chain))); err == nil {
		t.Error("answer over its retrieval bound was accepted")
	}
	beats := instance{name: "beats", g: g, problem: versioning.ProblemMSR, constraint: 160,
		exact: &optimum{MSR: 20, BMR: opt.BMR}}
	if err := checkAnswer(beats, answerFor(mat, best, good)); err == nil {
		t.Error("answer beating the exhaustive optimum was accepted")
	}
	all := []bool{true, true, true}
	none := make([]bool, g.M())
	// Flagged as a bidirectional tree, BMR answers must equal the optimum.
	if err := checkAnswer(instance{name: "tree", g: g, problem: versioning.ProblemBMR, constraint: 10, exact: &opt, biTree: true},
		answerFor(all, none, evalPlan(g, all, none))); err == nil {
		t.Error("suboptimal BMR answer on a bidirectional tree was accepted")
	}
	missing := []bool{true, false, false, false, false}
	if err := checkAnswer(msr, answerFor(mat, missing, good)); err == nil {
		t.Error("answer leaving a version unretrievable was accepted")
	}
}

func TestApplyDiffCatchesCorruptScripts(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"a", "x", "c", "d", "e"}
	ops := []client.DiffOp{
		{Op: "keep", N: 1}, {Op: "delete", N: 1}, {Op: "insert", Lines: []string{"x"}},
		{Op: "keep", N: 2}, {Op: "insert", Lines: []string{"e"}},
	}
	got, err := applyDiff(a, ops)
	if err != nil || sameLines(got, b) != nil {
		t.Fatalf("applyDiff = %q, %v; want %q", got, err, b)
	}
	corrupt := [][]client.DiffOp{
		{{Op: "keep", N: 5}}, // overruns the source
		{{Op: "keep", N: 3}}, // leaves source lines unconsumed
		{{Op: "keep", N: 1}, {Op: "delete", N: 1}, {Op: "keep", N: 2}}, // wrong result
		{{Op: "copy", N: 4}}, // unknown op
	}
	for i, ops := range corrupt {
		got, err := applyDiff(a, ops)
		if err == nil && sameLines(got, b) == nil {
			t.Errorf("corrupt script %d produced the target", i)
		}
	}
}

func TestSameLinesCatchesCorruptCheckouts(t *testing.T) {
	c := genTree(1)
	want := c.versions[5].lines
	if err := sameLines(append([]string(nil), want...), want); err != nil {
		t.Fatalf("identical checkout rejected: %v", err)
	}
	bad := append([]string(nil), want...)
	bad[len(bad)/2] += " "
	if err := sameLines(bad, want); err == nil {
		t.Error("checkout with a changed line was accepted")
	}
	if err := sameLines(want[:len(want)-1], want); err == nil {
		t.Error("truncated checkout was accepted")
	}
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for name, gen := range map[string]func(int64) *corpus{"tree": genTree, "churn": genChurn} {
		a, b, c := gen(3), gen(3), gen(4)
		if len(a.versions) != len(b.versions) {
			t.Fatalf("%s: version counts differ for one seed", name)
		}
		same := true
		for v := range a.versions {
			if sameLines(a.versions[v].lines, b.versions[v].lines) != nil {
				t.Fatalf("%s: version %d differs for one seed", name, v)
			}
			if sameLines(a.versions[v].lines, c.versions[v].lines) != nil {
				same = false
			}
		}
		if same {
			t.Errorf("%s: seeds 3 and 4 give the same corpus", name)
		}
	}
	c := genTree(2)
	merges := 0
	for _, v := range c.versions {
		if len(v.parents) > 1 {
			merges++
		}
		if !strings.HasPrefix(v.lines[0], "\x00dsv:manifest") {
			t.Fatal("tree version is not a manifest")
		}
	}
	if merges == 0 {
		t.Error("tree history has no merges")
	}
}
