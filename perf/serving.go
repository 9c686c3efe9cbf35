package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/diff"
	"repro/versioning"
)

// opLog counts one op type's attempts, failures and latencies.
type opLog struct {
	attempted, failed int
	lat               sample // ms, successful ops only
	firstErr          error
}

// tracedOp is one op of a traced load phase, resolved against the
// server's trace and handler time once the phase ends.
type tracedOp struct {
	kind    string
	latMS   float64
	traceID string
	bytes   int64
	a, b    int // diff endpoints, commit parent and child
}

// recorder collects one goroutine's op outcomes.
type recorder struct {
	ops    map[string]*opLog
	traced []tracedOp
	hooks  *clientHooks // nil for an untraced lane
}

func newRecorder(hooks *clientHooks) *recorder {
	return &recorder{ops: map[string]*opLog{}, hooks: hooks}
}

func (r *recorder) log(kind string) *opLog {
	l := r.ops[kind]
	if l == nil {
		l = &opLog{}
		r.ops[kind] = l
	}
	return l
}

// done records an op: err is a failed request or a failed output check.
func (r *recorder) done(kind string, elapsed time.Duration, err error, a, b int) {
	l := r.log(kind)
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	ms := float64(elapsed) / float64(time.Millisecond)
	l.lat = append(l.lat, ms)
	if r.hooks != nil {
		id, n := r.hooks.take()
		r.traced = append(r.traced, tracedOp{kind: kind, latMS: ms, traceID: id, bytes: n, a: a, b: b})
	}
}

// merge folds o into r.
func (r *recorder) merge(o *recorder) {
	for k, v := range o.ops {
		l := r.log(k)
		l.attempted += v.attempted
		l.failed += v.failed
		l.lat = append(l.lat, v.lat...)
		if l.firstErr == nil {
			l.firstErr = v.firstErr
		}
	}
	r.traced = append(r.traced, o.traced...)
}

// readerMix picks the reader's next op given how many versions are
// committed: a kind and the versions it reads.
type readerMix func(rng *rand.Rand, c *corpus, known int) (kind string, a, b int)

// zipfS is dsvload's default popularity skew (-zipf-s 1.2).
const zipfS = 1.2

// zipfRecent picks a version the way dsvload's -dist zipf does: Zipf
// popularity over recency, rank 0 the newest version.
func zipfRecent(rng *rand.Rand, known int) int {
	if known <= 1 {
		return 0
	}
	z := rand.NewZipf(rng, zipfS, 1, uint64(known-1))
	return known - 1 - int(z.Uint64())
}

// treeMix: full (60 %) and path-scoped (30 %) checkouts of Zipf-popular
// versions, and diffs (10 %) of any version against an ancestor 1 to 3
// first-parent steps back. Diffs stay few because each allocates 10 to
// 13 MB in diff.Compute, and the garbage collection that drives made the
// other ops' latencies swing between runs.
func treeMix(rng *rand.Rand, c *corpus, known int) (string, int, int) {
	switch r := rng.Float64(); {
	case r < 0.60:
		return "checkout", zipfRecent(rng, known), 0
	case r < 0.90:
		return "path_checkout", zipfRecent(rng, known), rng.Intn(treeFiles)
	default:
		// Diffs pick uniformly over the whole history, so few pairs
		// repeat often enough to be served from the response cache.
		b := 1 + rng.Intn(max(1, known-1))
		a := b
		for steps := 1 + rng.Intn(3); steps > 0 && len(c.versions[a].parents) > 0; steps-- {
			a = int(c.versions[a].parents[0])
		}
		return "diff", a, b
	}
}

// churnDiffShare is the share of commit-churn's reads that are diffs.
// It is this benchmark's choice, not derived from a trace: enough to
// give diff_p50_ms a few hundred samples per run while checkouts stay
// the reader's work.
const churnDiffShare = 0.1

// churnMix: Zipf checkouts, and one read in ten a diff whose endpoints
// are picked as dsvload's diff mix picks them, one by popularity and
// the other uniformly over the rest of the history.
func churnMix(rng *rand.Rand, c *corpus, known int) (string, int, int) {
	if rng.Float64() >= churnDiffShare {
		return "checkout", zipfRecent(rng, known), 0
	}
	a := zipfRecent(rng, known)
	b := rng.Intn(known - 1) // known > 1: the preload is committed
	if b >= a {
		b++
	}
	return "diff", a, b
}

// commitVersion commits version v of the corpus and checks the id the
// server assigned.
func commitVersion(ctx context.Context, cl *client.Client, c *corpus, v int) error {
	ver := c.versions[v]
	var res client.CommitResult
	var err error
	switch len(ver.parents) {
	case 0:
		res, err = cl.Commit(ctx, versioning.NoParent, ver.lines)
	case 1:
		res, err = cl.Commit(ctx, ver.parents[0], ver.lines)
	default:
		res, err = cl.CommitMerge(ctx, ver.parents, ver.lines)
	}
	if err != nil {
		return err
	}
	if int(res.ID) != v {
		return fmt.Errorf("commit %d was assigned id %d", v, res.ID)
	}
	return nil
}

// readOp performs one reader op and checks its output against the
// generator's copy.
func readOp(ctx context.Context, cl *client.Client, c *corpus, kind string, a, b int) (time.Duration, error) {
	switch kind {
	case "checkout":
		start := time.Now()
		lines, err := cl.Checkout(ctx, versioning.NodeID(a))
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		if err := sameLines(lines, c.versions[a].lines); err != nil {
			return d, fmt.Errorf("checkout %d: %w", a, err)
		}
		return d, nil
	case "path_checkout":
		start := time.Now()
		lines, err := cl.CheckoutPath(ctx, versioning.NodeID(a), c.paths[b])
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		want := versioning.EncodeManifest([]versioning.ManifestEntry{{Path: c.paths[b], Lines: c.versions[a].files[b]}})
		if err := sameLines(lines, want); err != nil {
			return d, fmt.Errorf("checkout %d path %s: %w", a, c.paths[b], err)
		}
		return d, nil
	case "diff":
		start := time.Now()
		res, err := cl.Diff(ctx, versioning.NodeID(a), versioning.NodeID(b))
		d := time.Since(start)
		if err != nil {
			return d, err
		}
		if int(res.A) != a || int(res.B) != b {
			return d, fmt.Errorf("diff %d..%d answered for %d..%d", a, b, res.A, res.B)
		}
		got, err := applyDiff(c.versions[a].lines, res.Ops)
		if err != nil {
			return d, fmt.Errorf("diff %d..%d: %w", a, b, err)
		}
		if err := sameLines(got, c.versions[b].lines); err != nil {
			return d, fmt.Errorf("diff %d..%d applied: %w", a, b, err)
		}
		return d, nil
	}
	return 0, fmt.Errorf("unknown op %q", kind)
}

// lane is one goroutine's client and recorder. A traced run gives each
// goroutine an untraced and a traced lane and alternates between them op
// by op, so both see the same history, caches and contention.
type lane struct {
	cl  *client.Client
	rec *recorder
}

func newLanes(st *stack, traced bool) []lane {
	ls := []lane{{st.newClient(nil), newRecorder(nil)}}
	if traced {
		h := &clientHooks{}
		ls = append(ls, lane{st.newClient(h), newRecorder(h)})
	}
	return ls
}

func closeLanes(ls []lane) {
	for _, l := range ls {
		l.cl.Close()
	}
}

// loadResult is one load phase's outcome.
type loadResult struct {
	rec      *recorder // every op
	untraced *recorder // the untraced lanes' ops
	traced   *recorder // the traced lanes' ops (empty when untraced)
	elapsed  time.Duration
	ops      int
	allocMB  float64 // bytes allocated by the process during the phase
	gcs      uint32
}

// newLoadResult folds the goroutines' lanes into a loadResult.
func newLoadResult(laneSets ...[]lane) loadResult {
	lr := loadResult{rec: newRecorder(nil), untraced: newRecorder(nil), traced: newRecorder(nil)}
	for _, ls := range laneSets {
		for i, l := range ls {
			lr.rec.merge(l.rec)
			if i == 0 {
				lr.untraced.merge(l.rec)
			} else {
				lr.traced.merge(l.rec)
			}
		}
	}
	for _, l := range lr.rec.ops {
		lr.ops += l.attempted
	}
	return lr
}

// runLoad runs the load phase: one client commits versions [from, to)
// in order while a second client issues reads from mix against the
// versions committed so far, each in a closed loop. With dur 0 the
// writer commits back to back and then waits for the maintenance passes
// its commits started, and the phase ends when they are done: the
// reader's ops overlap both. Otherwise the commits are spread evenly
// over dur (at once when behind) and the phase ends when dur has passed
// and the last commit is acknowledged.
func runLoad(st *stack, c *corpus, mix readerMix, seed int64, from, to int, dur time.Duration, traced bool) loadResult {
	ctx := context.Background()
	var known atomic.Int64
	known.Store(int64(from))
	wl, rl := newLanes(st, traced), newLanes(st, traced)
	defer closeLanes(wl)
	defer closeLanes(rl)

	runtime.GC() // start the phase from the same heap state
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	stop, written := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		interval := time.Duration(0)
		if n := to - from; n > 0 {
			interval = dur * 9 / 10 / time.Duration(n)
		}
		defer close(written)
		for v := from; v < to; v++ {
			if wait := time.Until(start.Add(time.Duration(v-from) * interval)); wait > 0 {
				time.Sleep(wait)
			}
			l := wl[(v-from)%len(wl)]
			t := time.Now()
			err := commitVersion(ctx, l.cl, c, v)
			l.rec.done("commit", time.Since(t), err, firstParent(c, v), v)
			known.Store(int64(v + 1))
		}
		if dur == 0 {
			if err := st.repo.WaitMaintenance(ctx); err != nil {
				wl[0].rec.done("maintenance", 0, err, 0, 0)
			}
		}
	}()
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			kind, a, b := mix(rng, c, int(known.Load()))
			l := rl[i%len(rl)]
			d, err := readOp(ctx, l.cl, c, kind, a, b)
			l.rec.done(kind, d, err, a, b)
		}
	}()
	// The writer's stream is fixed, so the phase lasts until both the
	// time is up and the stream is committed.
	<-written
	if rest := dur - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	close(stop)
	wg.Wait()
	lr := newLoadResult(wl, rl)
	lr.elapsed = time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	lr.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	lr.gcs = ms1.NumGC - ms0.NumGC
	return lr
}

func firstParent(c *corpus, v int) int {
	if len(c.versions[v].parents) == 0 {
		return -1
	}
	return int(c.versions[v].parents[0])
}

// rebuildGraph recomputes the version graph the repository must hold
// from the generator's history: one node per version weighed by its
// content bytes, and per parent a forward and a reverse delta weighed by
// the size of the edit script, in commit order.
func rebuildGraph(c *corpus, n int) *versioning.Graph {
	g := versioning.NewGraph("rebuilt")
	for v := 0; v < n; v++ {
		ver := c.versions[v]
		g.AddNode(contentBytes(ver.lines))
		for _, p := range ver.parents {
			fwd := diff.Compute(c.versions[p].lines, ver.lines).StorageCost()
			rev := diff.Compute(ver.lines, c.versions[p].lines).StorageCost()
			g.AddEdge(p, versioning.NodeID(v), fwd, fwd)
			g.AddEdge(versioning.NodeID(v), p, rev, rev)
		}
	}
	return g
}

// finalPlan is what the explicit replan after the load phase reports.
type finalPlan struct {
	storedRatio float64 // backend bytes per committed content byte
	retrMean    float64 // mean modelled R(v)
	objRatio    float64 // total retrieval over the minimum-storage plan's
	solveS      float64 // fresh solve of the same instance
	summary     versioning.PlanSummary
}

// finishPlan waits out background maintenance, forces one explicit
// replan, and checks the installed plan against the benchmark's own
// evaluation of the rebuilt graph.
func finishPlan(ctx context.Context, st *stack, c *corpus, n int) (finalPlan, error) {
	var fp finalPlan
	if err := st.repo.WaitMaintenance(ctx); err != nil {
		return fp, fmt.Errorf("waiting for maintenance: %w", err)
	}
	cl := st.newClient(nil)
	defer cl.Close()
	if _, err := cl.Replan(ctx); err != nil {
		return fp, fmt.Errorf("replan: %w", err)
	}
	sum, err := cl.Plan(ctx)
	if err != nil {
		return fp, fmt.Errorf("plan: %w", err)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		return fp, fmt.Errorf("stats: %w", err)
	}
	fp.summary = sum
	g := rebuildGraph(c, n)
	if sum.Versions != g.N() || sum.Deltas != g.M() {
		return fp, fmt.Errorf("plan covers %d versions and %d deltas, history has %d and %d", sum.Versions, sum.Deltas, g.N(), g.M())
	}
	mat, stored, err := summaryPlan(g, sum)
	if err != nil {
		return fp, err
	}
	ev := evalPlan(g, mat, stored)
	if !ev.Feasible {
		return fp, fmt.Errorf("installed plan leaves versions unretrievable")
	}
	if ev.Storage != sum.Storage || ev.SumRetrieval != sum.SumRetrieval || ev.MaxRetrieval != sum.MaxRetrieval {
		return fp, fmt.Errorf("plan reports cost %d/%d/%d, evaluates to %d/%d/%d",
			sum.Storage, sum.SumRetrieval, sum.MaxRetrieval, ev.Storage, ev.SumRetrieval, ev.MaxRetrieval)
	}
	if ev.Storage > sum.Constraint {
		return fp, fmt.Errorf("plan storage %d exceeds its budget %d", ev.Storage, sum.Constraint)
	}
	var content int64
	for v := 0; v < n; v++ {
		content += contentBytes(c.versions[v].lines)
	}
	fp.storedRatio = float64(stats.StoredBytes) / float64(content)
	fp.retrMean = float64(ev.SumRetrieval) / float64(n)
	mst, err := versioning.MinStoragePlan(g)
	if err != nil {
		return fp, fmt.Errorf("minimum-storage plan: %w", err)
	}
	fp.objRatio = ratio(ev.SumRetrieval, mst.Cost.SumRetrieval)
	// solve_s is the median wall time of a solve set run repeatedly with
	// a fresh engine (no result cache, no deadline): MSR at the installed
	// plan's budget and at three others, each at least the minimum
	// storage. The set runs at least three times, and up to 25 times
	// while the runs take less than three seconds in all.
	eng := versioning.NewEngine(versioning.EngineOptions{CacheSize: -1, DisableILP: true})
	var solves sample
	for t0 := time.Now(); len(solves) < 3 || (len(solves) < 25 && time.Since(t0) < 3*time.Second); {
		runtime.GC() // time every set from the same heap state
		t := time.Now()
		for _, f := range []float64{1, 0.6, 1.5, 2.5} {
			res, err := eng.SolveMSR(ctx, g, int64(float64(sum.Constraint)*f))
			if err != nil {
				return fp, fmt.Errorf("fresh solve: %w", err)
			}
			if f == 1 && res.Solution.Cost.SumRetrieval != ev.SumRetrieval {
				return fp, fmt.Errorf("installed plan retrieval %d differs from a fresh solve's %d (%s)",
					ev.SumRetrieval, res.Solution.Cost.SumRetrieval, res.Winner)
			}
		}
		solves = append(solves, time.Since(t).Seconds())
	}
	fp.solveS = solves.median()
	return fp, nil
}

// ratio of an objective to its minimum-storage reference; a zero
// reference (every version materialized) counts as parity.
func ratio(x, ref int64) float64 {
	if ref == 0 {
		if x == 0 {
			return 1
		}
		return float64(x)
	}
	return float64(x) / float64(ref)
}

// A restart is measured at least reopenMin times, and then while the
// count and the timed restarts' total stay under a given most and
// budget: reopenRoundMax and reopenRoundBudget in each commit-churn
// round, reopenMax and reopenBudget in the one reopen of every other
// workload. A 2 ms restart (as on plan-solve) runs in a fast and a slow
// mode on a shared host, in phases from tens of milliseconds to seconds
// long, so its median holds still only over many restarts spread over
// seconds.
const (
	reopenMin         = 3
	reopenRoundMax    = 15
	reopenRoundBudget = 0.5
	reopenMax         = 5001
	reopenBudget      = 2.0
)

// reopen measures restarts of the repository: it closes the stack, then
// opens the data directory, which replays the journal into a fresh
// backend, and checks out the newest version, timing that Open and
// checkout, as often as reopenMin, most and budget (seconds) allow.
// With rec set, every version must then read back as committed after
// the last one; failures are logged under "readback".
func reopen(ctx context.Context, st *stack, c *corpus, n int, rec *recorder, most int, budget float64) (sample, error) {
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("closing: %w", err)
	}
	// Return the load phase's heap to the system first, so the restarts
	// do not run beside the scavenger releasing it (plan-solve's heap is
	// 400 MB at this point).
	debug.FreeOSMemory()
	var times sample
	var total float64
	for more := true; more; {
		runtime.GC() // time every reopen from the same heap state
		start := time.Now()
		repo, err := versioning.Open("perf", repoOptions(st.dir))
		if err != nil {
			return nil, fmt.Errorf("reopening: %w", err)
		}
		lines, err := repo.Checkout(ctx, versioning.NodeID(n-1))
		times = append(times, time.Since(start).Seconds())
		total += times[len(times)-1]
		more = len(times) < reopenMin || (len(times) < most && total < budget)
		if err == nil {
			err = sameLines(lines, c.versions[n-1].lines)
		}
		if err == nil && repo.Versions() != n {
			err = fmt.Errorf("reopened with %d versions, committed %d", repo.Versions(), n)
		}
		if err == nil && !more && rec != nil {
			readBack(ctx, repo, c, n, rec)
		}
		if cerr := repo.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
	}
	return times, nil
}

// readBack checks that every version reads back as committed.
func readBack(ctx context.Context, repo *versioning.Repository, c *corpus, n int, rec *recorder) {
	for v := 0; v < n; v++ {
		t := time.Now()
		lines, err := repo.Checkout(ctx, versioning.NodeID(v))
		if err == nil {
			err = sameLines(lines, c.versions[v].lines)
		}
		if err != nil {
			err = fmt.Errorf("version %d after reopen: %w", v, err)
		}
		rec.done("readback", time.Since(t), err, v, v)
	}
}

// setupStack starts a stack in dir, ingests the corpus preload through
// the client and waits for the maintenance passes the preload started,
// returning the time taken.
func setupStack(dir string, c *corpus, traced bool) (*stack, float64, error) {
	runtime.GC() // start every set-up from the same heap state
	start := time.Now()
	st, err := startStack(dir, traced)
	if err != nil {
		return nil, 0, err
	}
	cl := st.newClient(nil)
	defer cl.Close()
	for v := 0; v < c.preload; v++ {
		if err := commitVersion(context.Background(), cl, c, v); err != nil {
			st.close()
			return nil, 0, fmt.Errorf("preloading version %d: %w", v, err)
		}
	}
	if err := st.repo.WaitMaintenance(context.Background()); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start).Seconds(), nil
}

// setups runs set-up at least k times and, while they take less than
// setupBudget in all, up to setupMax times, keeping the last stack; it
// reports each duration. Earlier stacks are closed and removed.
func setups(cfg config, c *corpus, k int) (*stack, []float64, error) {
	var times []float64
	var total float64
	for i := 0; ; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("setup%d", i))
		st, d, err := setupStack(dir, c, cfg.trace)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d)
		total += d
		if len(times) >= k && (total >= setupBudget || len(times) >= setupMax || cfg.trace) {
			return st, times, nil
		}
		if err := st.close(); err != nil {
			return nil, nil, err
		}
		if err := removeAll(dir); err != nil {
			return nil, nil, err
		}
	}
}
