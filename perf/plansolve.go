package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/versioning"
)

// instance is one solve of the plan-solve set.
type instance struct {
	name       string
	g          *versioning.Graph
	problem    versioning.Problem
	constraint int64
	mst        planCost   // the minimum-storage plan's cost: the objective's reference
	exact      *optimum   // small graphs: the exhaustive optimum
	biTree     bool       // the graph is a bidirectional tree (DP-BMR is exact)
	mstPages   [][]string // the minimum-storage plan as archive pages
}

// planSolveSet builds the solve set: the Table 4 calibrated graphs
// (styleguide, LeetCodeAnimation, 996.ICU) and a LeetCode Erdős–Rényi
// variant, each solved for MSR at two storage budgets and for BMR at two
// retrieval bounds, plus small random graphs the benchmark can solve
// exhaustively. The large graphs are fixed calibrations (the ER variant
// with the evaluation's own seed, 42), so the timed solves and their
// plan quality do not depend on the run's seed; the seed draws the small
// graphs, which only check answers.
func planSolveSet(seed int64) ([]instance, error) {
	rng := rand.New(rand.NewSource(seed))
	var graphs []*versioning.Graph
	for _, name := range []string{"styleguide", "LeetCodeAnimation", "996.ICU"} {
		g, err := versioning.Dataset(name)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	graphs = append(graphs, leetCodeER(42))
	var set []instance
	add := func(g *versioning.Graph, budgets, bounds []float64, small, biTree bool) error {
		mst, err := versioning.MinStoragePlan(g)
		if err != nil {
			return fmt.Errorf("%s: minimum-storage plan: %w", g.Name, err)
		}
		ref := evalPlan(g, mst.Plan.Materialized, mst.Plan.Stored)
		pages := planPages(g, "MST", 0, mst.Plan.Materialized, mst.Plan.Stored)
		var cons []instance
		for _, f := range budgets {
			cons = append(cons, instance{problem: versioning.ProblemMSR, constraint: int64(float64(ref.Storage) * f)})
		}
		for _, f := range bounds {
			cons = append(cons, instance{problem: versioning.ProblemBMR, constraint: int64(float64(ref.MaxRetrieval) * f)})
		}
		for _, in := range cons {
			in.name = fmt.Sprintf("%s/%s/%d", g.Name, in.problem, in.constraint)
			in.g, in.mst, in.biTree, in.mstPages = g, ref, biTree, pages
			if small {
				opt := enumerate(g, in.constraint, in.constraint, nil)
				in.exact = &opt
			}
			set = append(set, in)
		}
		return nil
	}
	for _, g := range graphs {
		if err := add(g, []float64{1.2, 2}, []float64{0.3, 0.6}, false, false); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 4; i++ {
		biTree := i%2 == 0
		g := smallGraph(rng, fmt.Sprintf("small%d", i), biTree)
		if err := add(g, []float64{1.5}, []float64{0.5}, true, biTree); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// leetCodeER is the LeetCode node set with Erdős–Rényi deltas at p=0.05
// (the paper's "LeetCode (0.05)"), drawn from seed.
func leetCodeER(seed int64) *versioning.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := versioning.NewGraph("LeetCode (0.05)")
	jitter := func(avg float64, spread float64) int64 {
		return int64(avg * (1 + spread*(2*rng.Float64()-1)))
	}
	const n = 246
	for i := 0; i < n; i++ {
		g.AddNode(jitter(1.7e8, 0.3))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.05 {
				c := jitter(1e8, 0.5)
				g.AddBiEdge(versioning.NodeID(u), versioning.NodeID(v), c, c)
			}
		}
	}
	// Keep the graph connected so every plan has a finite retrieval.
	for v := 1; v < n; v++ {
		if len(g.In(versioning.NodeID(v))) == 0 {
			c := jitter(1e8, 0.5)
			g.AddBiEdge(versioning.NodeID(v-1), versioning.NodeID(v), c, c)
		}
	}
	return g
}

// smallGraph is a 7-version graph for exhaustive search: a random
// bidirectional tree, or a random tree plus three extra one-way deltas.
func smallGraph(rng *rand.Rand, name string, biTree bool) *versioning.Graph {
	g := versioning.NewGraph(name)
	const n = 7
	for i := 0; i < n; i++ {
		g.AddNode(int64(500 + rng.Intn(1000)))
	}
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		s := int64(20 + rng.Intn(200))
		g.AddEdge(versioning.NodeID(u), versioning.NodeID(v), s, s)
		r := int64(20 + rng.Intn(200))
		g.AddEdge(versioning.NodeID(v), versioning.NodeID(u), r, r)
	}
	if !biTree {
		for k := 0; k < 3; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				s := int64(20 + rng.Intn(300))
				g.AddEdge(versioning.NodeID(u), versioning.NodeID(v), s, s+int64(rng.Intn(50)))
			}
		}
	}
	return g
}

// pageNodes is how many versions one archive page covers: pages keep
// the archived versions near one size, whatever the graph's.
const pageNodes = 250

// planPages renders a plan as archive pages: after a header, one line
// per version with its materialization and its stored in-deltas.
func planPages(g *versioning.Graph, problem string, constraint int64, materialized, stored []bool) [][]string {
	in := make([][]string, g.N())
	for id, e := range g.Edges() {
		if stored[id] {
			in[e.To] = append(in[e.To], fmt.Sprintf("%d<-%d", id, e.From))
		}
	}
	var pages [][]string
	for lo := 0; lo < g.N(); lo += pageNodes {
		page := []string{fmt.Sprintf("graph %s problem %s constraint %d page %d", g.Name, problem, constraint, lo/pageNodes)}
		for v := lo; v < min(lo+pageNodes, g.N()); v++ {
			line := strconv.Itoa(v)
			if materialized[v] {
				line += " materialized"
			}
			if len(in[v]) > 0 {
				line += " " + strings.Join(in[v], " ")
			}
			page = append(page, line)
		}
		pages = append(pages, page)
	}
	return pages
}

// answer is one solve's outcome.
type answer struct {
	res versioning.PortfolioResult
	d   time.Duration
}

// checkAnswer recomputes an answer's cost and holds it to its bound and,
// on small graphs, to the exhaustive optimum.
func checkAnswer(in instance, res versioning.PortfolioResult) error {
	p := res.Solution.Plan
	if p == nil || len(p.Materialized) != in.g.N() || len(p.Stored) != in.g.M() {
		return fmt.Errorf("%s: answer is not a plan of the graph", in.name)
	}
	ev := evalPlan(in.g, p.Materialized, p.Stored)
	rc := res.Solution.Cost
	if !ev.Feasible {
		return fmt.Errorf("%s: answer leaves versions unretrievable", in.name)
	}
	if ev.Storage != rc.Storage || ev.SumRetrieval != rc.SumRetrieval || ev.MaxRetrieval != rc.MaxRetrieval {
		return fmt.Errorf("%s: %s reports cost %d/%d/%d, evaluates to %d/%d/%d", in.name, res.Winner,
			rc.Storage, rc.SumRetrieval, rc.MaxRetrieval, ev.Storage, ev.SumRetrieval, ev.MaxRetrieval)
	}
	switch in.problem {
	case versioning.ProblemMSR:
		if ev.Storage > in.constraint {
			return fmt.Errorf("%s: storage %d exceeds the budget", in.name, ev.Storage)
		}
		if in.exact != nil && ev.SumRetrieval < in.exact.MSR {
			return fmt.Errorf("%s: total retrieval %d beats the exhaustive optimum %d", in.name, ev.SumRetrieval, in.exact.MSR)
		}
	case versioning.ProblemBMR:
		if ev.MaxRetrieval > in.constraint {
			return fmt.Errorf("%s: max retrieval %d exceeds the bound", in.name, ev.MaxRetrieval)
		}
		if in.exact != nil && ev.Storage < in.exact.BMR {
			return fmt.Errorf("%s: storage %d beats the exhaustive optimum %d", in.name, ev.Storage, in.exact.BMR)
		}
		if in.exact != nil && in.biTree && ev.Storage != in.exact.BMR {
			return fmt.Errorf("%s: storage %d on a bidirectional tree, exhaustive optimum %d", in.name, ev.Storage, in.exact.BMR)
		}
	}
	return nil
}

// objective is what the instance's problem minimizes, over the
// minimum-storage plan's value of it.
func objective(in instance, c versioning.PlanCost) float64 {
	if in.problem == versioning.ProblemBMR {
		return ratio(c.Storage, in.mst.Storage)
	}
	return ratio(c.SumRetrieval, in.mst.SumRetrieval)
}

// planArchive keeps every answer as versions of a served repository,
// one chain per instance and page, rooted at the page of the graph's
// minimum-storage plan.
type planArchive struct {
	c    *corpus
	head map[string]int // instance name and page -> latest archived version
}

func pageKey(in instance, page int) string { return fmt.Sprintf("%s#%d", in.name, page) }

// preloadArchive lists the root versions set-up ingests: the pages of
// each large graph's minimum-storage plan.
func preloadArchive(set []instance) *planArchive {
	a := &planArchive{c: &corpus{}, head: map[string]int{}}
	root := map[*versioning.Graph]int{}
	for _, in := range set {
		if in.exact != nil {
			continue
		}
		first, ok := root[in.g]
		if !ok {
			first = len(a.c.versions)
			for _, page := range in.mstPages {
				a.c.versions = append(a.c.versions, version{lines: page})
			}
			root[in.g] = first
		}
		for k := range in.mstPages {
			a.head[pageKey(in, k)] = first + k
		}
	}
	a.c.preload = len(a.c.versions)
	return a
}

// archive commits each page of an answer on its chain, reads it back,
// and fetches the diff from the previous answer's page, checking each
// against the plan.
func (a *planArchive) archive(ctx context.Context, cl *client.Client, rec *recorder, in instance, res versioning.PortfolioResult) {
	p := res.Solution.Plan
	for k, lines := range planPages(in.g, in.problem.String(), in.constraint, p.Materialized, p.Stored) {
		parent := a.head[pageKey(in, k)]
		v := len(a.c.versions)
		a.c.versions = append(a.c.versions, version{lines: lines, parents: []versioning.NodeID{versioning.NodeID(parent)}})
		t := time.Now()
		err := commitVersion(ctx, cl, a.c, v)
		rec.done("commit", time.Since(t), err, parent, v)
		if err != nil {
			// The chain cannot continue past a lost commit: keep the
			// version out of the history the final checks rebuild.
			a.c.versions = a.c.versions[:v]
			return
		}
		a.head[pageKey(in, k)] = v
		d, err := readOp(ctx, cl, a.c, "checkout", v, 0)
		rec.done("checkout", d, err, v, 0)
		d, err = readOp(ctx, cl, a.c, "diff", parent, v)
		rec.done("diff", d, err, parent, v)
	}
}

// solveRound solves the whole set once, checking every answer, and
// returns the answers and the round's wall time.
func solveRound(ctx context.Context, eng *versioning.Engine, set []instance, rec *recorder) ([]answer, time.Duration) {
	out := make([]answer, len(set))
	start := time.Now()
	for i, in := range set {
		t := time.Now()
		res, err := eng.Solve(ctx, in.g, in.problem, in.constraint)
		out[i] = answer{res: res, d: time.Since(t)}
		if err == nil {
			err = checkAnswer(in, res)
		}
		rec.done("solve", out[i].d, err, i, 0)
	}
	return out, time.Since(start)
}

// archiveRounds is how many rounds archive their answers: a fixed
// count keeps the archive's history the same in every run.
const archiveRounds = 3

// planLoad runs whole solve rounds, archiving the answers of the first
// archiveRounds rounds, until the next round would end after dur (at
// least rounds rounds). It returns every round's answers, and the rate
// of ops over the archiving rounds: their op count is fixed, so the
// rate does not change with how many rounds fit into dur.
func planLoad(ctx context.Context, st *stack, eng *versioning.Engine, set []instance, arc *planArchive, dur time.Duration, rounds int, traced bool) (lr loadResult, roundTimes sample, answers [][]answer, rate float64) {
	ls := newLanes(st, traced)
	defer closeLanes(ls)
	runtime.GC() // start the phase from the same heap state
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	k := 0
	for r := 0; ; r++ {
		round, d := solveRound(ctx, eng, set, ls[0].rec)
		answers = append(answers, round)
		roundTimes = append(roundTimes, d.Seconds())
		for i, in := range set {
			if r < archiveRounds && in.exact == nil && round[i].res.Solution.Plan != nil {
				l := ls[k%len(ls)]
				k++
				arc.archive(ctx, l.cl, l.rec, in, round[i].res)
			}
		}
		if r+1 == archiveRounds {
			done := 0
			for _, l := range ls {
				for _, o := range l.rec.ops {
					done += o.attempted
				}
			}
			rate = float64(done) / time.Since(start).Seconds()
		}
		per := time.Since(start) / time.Duration(r+1)
		if r+1 >= rounds && time.Since(start)+per > dur {
			break
		}
	}
	lr = newLoadResult(ls)
	lr.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	lr.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	lr.gcs = ms1.NumGC - ms0.NumGC
	return lr, roundTimes, answers, rate
}

// runPlanSolve runs the plan-solve workload: the portfolio Engine with
// no result cache and no per-solver deadline, so no answer depends on
// timing, races the solve set round after round; each answer is then
// archived through the served stack.
func runPlanSolve(cfg config, r *report) error {
	ctx := context.Background()
	set, err := planSolveSet(cfg.seed)
	if err != nil {
		return err
	}
	eng := versioning.NewEngine(versioning.EngineOptions{CacheSize: -1, DisableILP: true})
	k := setupRepeats
	if cfg.trace {
		k = 1
	}
	arc := preloadArchive(set)
	st, times, err := setups(cfg, arc.c, k)
	if err != nil {
		return err
	}
	defer st.close()
	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return runPlanTraced(ctx, cfg, r, st, eng, set, arc, dur)
	}
	r.set("setup_s", "s", sample(times).median())
	r.notef("set-up times %v s", times)
	lr, rounds, answers, rate := planLoad(ctx, st, eng, set, arc, dur, archiveRounds, false)
	r.ops.merge(lr.rec)
	r.set("ops_per_s", "1/s", rate)
	r.set("solve_s", "s", rounds.median())
	var objs []float64
	last := answers[len(answers)-1]
	for i, in := range set {
		if in.exact == nil && last[i].res.Solution.Plan != nil {
			objs = append(objs, objective(in, last[i].res.Solution.Cost))
		}
	}
	r.set("plan_objective_ratio", "ratio", geomean(objs))
	r.latency("checkout", "checkout")
	r.latency("commit", "commit")
	r.latency("diff", "diff")
	n := len(arc.c.versions)
	fp, err := finishPlan(ctx, st, arc.c, n)
	r.ops.done("plan_check", 0, err, 0, 0)
	r.set("stored_bytes_ratio", "ratio", fp.storedRatio)
	r.set("retrieval_cost_mean", "bytes", fp.retrMean)
	r.notef("solve set: %d instances, %d rounds, round times %v s", len(set), len(rounds), rounds)
	reopens, err := reopen(ctx, st, arc.c, n, r.ops, reopenMax, reopenBudget)
	if err != nil {
		return err
	}
	r.set("reopen_s", "s", reopens.median())
	r.notef("%d restarts, fastest %.4f s, slowest %.4f s", len(reopens), slices.Min(reopens), slices.Max(reopens))
	return nil
}
