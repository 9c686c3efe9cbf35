package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/diff"
	"repro/versioning"
)

// The traced run measures each layer from outside the program: a timing
// handler around serve.Server, a counting decorator on the store
// backend, request traces forced by the client and read back from the
// server's flight recorder, and diff.Compute timed on the workload's own
// content pairs. Every other op of the load phase goes through a second
// Server over the same repository that traces every request; the
// difference between the traced and the untraced ops is the tracing
// overhead.

// perLayer lists every per-layer metric a traced run reports, with its
// unit. A metric that does not apply to a workload reads 0.
var perLayer = []struct{ name, unit string }{
	{"client.checkout_residual_ms", "ms"},
	{"client.diff_residual_ms", "ms"},
	{"client.checkout_response_kb", "KB"},
	{"serve.checkout_handler_ms", "ms"},
	{"serve.diff_handler_ms", "ms"},
	{"serve.commit_handler_ms", "ms"},
	{"serve.respcache_hit_ratio", "ratio"},
	{"serve.singleflight_followers", "count"},
	{"versioning.commit_diff_ms", "ms"},
	{"versioning.commit_lock_ms", "ms"},
	{"versioning.commit_apply_ms", "ms"},
	{"versioning.wal_commits_per_batch", "ratio"},
	{"versioning.maintenance_passes", "count"},
	{"versioning.maintenance_pass_ms", "ms"},
	{"versioning.migration_mb", "MB"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.delta_applies_per_miss", "ratio"},
	{"store.backend_get_ms", "ms"},
	{"store.backend_gets_per_checkout", "ratio"},
	{"store.backend_put_mb", "MB"},
	{"diff.compute_ms", "ms"},
	{"diff.alloc_mb_per_call", "MB"},
	{"diff.edit_lines", "count"},
	{"portfolio.race_ms", "ms"},
	{"portfolio.winner_cpu_share", "ratio"},
	{"solver.LMG_ms", "ms"},
	{"solver.LMG.wins", "count"},
	{"solver.LMG-All_ms", "ms"},
	{"solver.LMG-All.wins", "count"},
	{"solver.DP-MSR_ms", "ms"},
	{"solver.DP-MSR.wins", "count"},
	{"solver.DP-BMR_ms", "ms"},
	{"solver.DP-BMR.wins", "count"},
	{"solver.MP_ms", "ms"},
	{"solver.MP.wins", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles", "count"},
	{"checkout.unattributed_ms", "ms"},
	{"diff.unattributed_ms", "ms"},
	{"commit.unattributed_ms", "ms"},
	{"trace.checkout_overhead_pct", "%"},
	{"trace.diff_overhead_pct", "%"},
	{"trace.commit_overhead_pct", "%"},
}

// tracedSolvers are the solvers with per-solver metrics.
var tracedSolvers = []string{"LMG", "LMG-All", "DP-MSR", "DP-BMR", "MP"}

func (r *report) zeroPerLayer() {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
}

// layers are the parts an op's latency is split into. Each is the self
// time of the spans of one module; client is the latency outside
// Server.ServeHTTP (wire, encode/decode, client waits); unattributed is
// handler time no span covers.
var layers = []string{"client", "serve", "versioning", "store", "diff", "unattributed"}

// spanLayer maps a span name to the module that records it.
func spanLayer(name string) string {
	switch {
	case name == "admission" || name == "cache.hit" || name == "checkout.filter" || strings.HasPrefix(name, "singleflight."):
		return "serve"
	case name == "diff.compute" || name == "commit.diff":
		return "diff"
	case strings.HasPrefix(name, "store."):
		return "store"
	default: // commit.lock, commit.apply, wal.*, maintenance.trigger
		return "versioning"
	}
}

// breakdown is one op type's per-layer split, summed over its resolved
// traced ops.
type breakdown struct {
	n          int
	unresolved int
	latency    float64
	parts      map[string]float64
	handler    sample
	residual   sample
	spans      map[string]sample // span name -> durations (ms)
	bytes      int64
}

// resolve splits every traced op into layers using the handler time and
// the server's trace for its trace ID.
func resolve(st *stack, ops []tracedOp) map[string]*breakdown {
	out := map[string]*breakdown{}
	rec := st.tracer.Recorder()
	for _, op := range ops {
		b := out[op.kind]
		if b == nil {
			b = &breakdown{parts: map[string]float64{}, spans: map[string]sample{}}
			out[op.kind] = b
		}
		h, okH := st.timer.handlerTime(op.traceID)
		td, okT := rec.Find(op.traceID)
		if op.traceID == "" || !okH || !okT {
			b.unresolved++
			continue
		}
		hms := float64(h) / float64(time.Millisecond)
		b.n++
		b.latency += op.latMS
		b.bytes += op.bytes
		b.handler = append(b.handler, hms)
		b.residual = append(b.residual, op.latMS-hms)
		b.parts["client"] += op.latMS - hms
		covered := 0.0
		children := map[uint64]float64{}
		for _, s := range td.Spans {
			if s.Parent != 0 {
				children[s.Parent] += s.DurationUS
			}
		}
		for _, s := range td.Spans {
			if s.ID == 1 {
				continue
			}
			ms := s.DurationUS / 1000
			b.spans[s.Name] = append(b.spans[s.Name], ms)
			self := (s.DurationUS - children[s.ID]) / 1000
			b.parts[spanLayer(s.Name)] += self
			if s.Parent == 1 {
				covered += ms
			}
		}
		b.parts["unattributed"] += hms - covered
	}
	return out
}

// printBreakdown prints each op type's mean latency split into layers;
// the parts add up to the latency.
func printBreakdown(bd map[string]*breakdown) {
	kinds := make([]string, 0, len(bd))
	for k := range bd {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("%-14s %6s %10s", "op (mean ms)", "n", "latency")
	for _, l := range layers {
		fmt.Printf(" %12s", l)
	}
	fmt.Println()
	for _, k := range kinds {
		b := bd[k]
		if b.n == 0 {
			fmt.Printf("%-14s %6d (no resolved traces, %d unresolved)\n", k, 0, b.unresolved)
			continue
		}
		fmt.Printf("%-14s %6d %10.3f", k, b.n, b.latency/float64(b.n))
		for _, l := range layers {
			fmt.Printf(" %12.3f", b.parts[l]/float64(b.n))
		}
		if b.unresolved > 0 {
			fmt.Printf("  (%d unresolved)", b.unresolved)
		}
		fmt.Println()
	}
}

// setOpLayers reports the per-op metrics of a traced load phase.
func (r *report) setOpLayers(bd map[string]*breakdown, untraced, traced *recorder) {
	get := func(k string) *breakdown {
		if b := bd[k]; b != nil {
			return b
		}
		return &breakdown{parts: map[string]float64{}, spans: map[string]sample{}}
	}
	co, di, cm := get("checkout"), get("diff"), get("commit")
	r.set("client.checkout_residual_ms", "ms", co.residual.median())
	r.set("client.diff_residual_ms", "ms", di.residual.median())
	if co.n > 0 {
		r.set("client.checkout_response_kb", "KB", float64(co.bytes)/1024/float64(co.n))
	}
	r.set("serve.checkout_handler_ms", "ms", co.handler.median())
	r.set("serve.diff_handler_ms", "ms", di.handler.median())
	r.set("serve.commit_handler_ms", "ms", cm.handler.median())
	r.set("versioning.commit_diff_ms", "ms", cm.spans["commit.diff"].median())
	r.set("versioning.commit_lock_ms", "ms", cm.spans["commit.lock"].median())
	r.set("versioning.commit_apply_ms", "ms", cm.spans["commit.apply"].median())
	for _, k := range []string{"checkout", "diff", "commit"} {
		if b := get(k); b.n > 0 {
			r.set(k+".unattributed_ms", "ms", b.parts["unattributed"]/float64(b.n))
		}
		if p0, p1 := untraced.log(k).lat.median(), traced.log(k).lat.median(); p0 > 0 && p1 > 0 {
			r.set("trace."+k+"_overhead_pct", "%", 100*(p1/p0-1))
		}
	}
}

// setRepoLayers reports the repository and store counters: stats0 and
// stats1 bracket the traced half, b0 and b1 the backend counters.
func (r *report) setRepoLayers(st *stack, stats0, stats1 versioning.RepositoryStats, b0, b1 backendSnapshot) {
	if stats1.WALBatches > 0 {
		r.set("versioning.wal_commits_per_batch", "ratio", float64(stats1.WALBatchedCommits)/float64(stats1.WALBatches))
	}
	r.set("versioning.maintenance_passes", "count", float64(stats1.PlanRecords))
	recs, _ := st.repo.PlanHistory()
	var passUS int64
	for _, rec := range recs {
		passUS += rec.TotalUS
	}
	if len(recs) > 0 {
		r.set("versioning.maintenance_pass_ms", "ms", float64(passUS)/1000/float64(len(recs)))
	}
	r.set("versioning.migration_mb", "MB", float64(stats1.MigrationBytes)/1e6)
	checkouts := stats1.Checkouts - stats0.Checkouts
	hits := stats1.CacheHits - stats0.CacheHits
	if checkouts > 0 {
		r.set("store.cache_hit_ratio", "ratio", float64(hits)/float64(checkouts))
	}
	if misses := checkouts - hits; misses > 0 {
		r.set("store.delta_applies_per_miss", "ratio", float64(stats1.DeltaApplies-stats0.DeltaApplies)/float64(misses))
	}
	d := b1.sub(b0)
	if d.gets > 0 {
		r.set("store.backend_get_ms", "ms", float64(d.getNanos)/1e6/float64(d.gets))
	}
	if checkouts > 0 {
		r.set("store.backend_gets_per_checkout", "ratio", float64(d.gets)/float64(checkouts))
	}
	r.set("store.backend_put_mb", "MB", float64(b1.putBytes)/1e6)

	sz := st.plain.StatszSnapshot()
	if rc := sz.RespCache; rc != nil && rc.Hits+rc.Misses > 0 {
		r.set("serve.respcache_hit_ratio", "ratio", float64(rc.Hits)/float64(rc.Hits+rc.Misses))
	}
	followers := sz.Endpoints["checkout"].Coalesced
	if st.traced != nil {
		followers += st.traced.StatszSnapshot().Endpoints["checkout"].Coalesced
	}
	r.set("serve.singleflight_followers", "count", float64(followers))

	// The repository's maintenance races, from the retained plan records
	// (cache hits repeat an earlier race and are skipped).
	var reps [][]versioning.SolverRaceReport
	var winners []string
	for _, rec := range recs {
		if !rec.CacheHit && !rec.Failed {
			reps = append(reps, rec.Reports)
			winners = append(winners, rec.Winner)
		}
	}
	if stats1.RaceLatency != nil {
		r.set("portfolio.race_ms", "ms", stats1.RaceLatency.MeanUS/1000)
	}
	r.setSolvers(reps, winners, stats1.SolverWins)
}

// setSolvers reports per-solver mean race time and wins, and the share
// of solver time spent by the winners.
func (r *report) setSolvers(races [][]versioning.SolverRaceReport, winners []string, wins map[string]int64) {
	total, won := 0.0, 0.0
	per := map[string]sample{}
	for i, race := range races {
		for _, rep := range race {
			ms := float64(rep.DurationUS) / 1000
			per[rep.Solver] = append(per[rep.Solver], ms)
			total += ms
			if rep.Solver == winners[i] {
				won += ms
			}
		}
	}
	if total > 0 {
		r.set("portfolio.winner_cpu_share", "ratio", won/total)
	}
	for _, s := range tracedSolvers {
		r.set("solver."+s+"_ms", "ms", per[s].mean())
		r.set("solver."+s+".wins", "count", float64(wins[s]))
	}
}

// setDiffLayer times diff.Compute on up to 32 of the phase's own content
// pairs (diff endpoints and commit parent/child), with the bytes each
// call allocates.
func (r *report) setDiffLayer(c *corpus, ops []tracedOp) {
	var ms, mb, edits sample
	var m0, m1 runtime.MemStats
	for _, op := range ops {
		if len(ms) == 32 {
			break
		}
		if (op.kind != "diff" && op.kind != "commit") || op.a < 0 || op.a >= len(c.versions) || op.b >= len(c.versions) {
			continue
		}
		a, b := c.versions[op.a].lines, c.versions[op.b].lines
		runtime.ReadMemStats(&m0)
		start := time.Now()
		d := diff.Compute(a, b)
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		ms = append(ms, float64(el)/float64(time.Millisecond))
		mb = append(mb, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		n := 0
		for _, cmd := range d.Cmds {
			switch cmd.Op {
			case diff.OpDelete:
				n += cmd.N
			case diff.OpInsert:
				n += len(cmd.Lines)
			}
		}
		edits = append(edits, float64(n))
	}
	r.set("diff.compute_ms", "ms", ms.median())
	r.set("diff.alloc_mb_per_call", "MB", mb.mean())
	r.set("diff.edit_lines", "count", edits.mean())
}

// setRuntime reports the load phase's allocation and GC work.
func (r *report) setRuntime(lr loadResult) {
	if lr.ops > 0 {
		r.set("runtime.alloc_mb_per_op", "MB", lr.allocMB/float64(lr.ops))
	}
	r.set("runtime.gc_cycles", "count", float64(lr.gcs))
}

// runServingTraced is the traced run of a serving workload.
func runServingTraced(ctx context.Context, cfg config, r *report, st *stack, c *corpus, mix readerMix, dur time.Duration) error {
	r.zeroPerLayer()
	n := len(c.versions)
	stats0, b0 := st.repo.Stats(), st.backend.snapshot()
	lr := runLoad(st, c, mix, cfg.seed+1, c.preload, n, dur, true)
	if err := st.repo.WaitMaintenance(ctx); err != nil {
		return err
	}
	stats1, b1 := st.repo.Stats(), st.backend.snapshot()
	r.ops.merge(lr.rec)
	bd := resolve(st, lr.traced.traced)
	printBreakdown(bd)
	r.setOpLayers(bd, lr.untraced, lr.traced)
	r.setRepoLayers(st, stats0, stats1, b0, b1)
	r.setDiffLayer(c, lr.traced.traced)
	r.setRuntime(lr)
	return finishChecks(ctx, st, c, n, r)
}

// finishChecks runs the final plan checks and the reopen read-back of a
// traced run, which reports no end-to-end metrics.
func finishChecks(ctx context.Context, st *stack, c *corpus, n int, r *report) error {
	_, err := finishPlan(ctx, st, c, n)
	r.ops.done("plan_check", 0, err, 0, 0)
	_, err = reopen(ctx, st, c, n, r.ops, reopenMin, 0)
	return err
}

// runPlanTraced is the traced run of plan-solve: solver metrics come
// from the races' own reports; the archive ops are traced like the
// serving workloads' ops.
func runPlanTraced(ctx context.Context, cfg config, r *report, st *stack, eng *versioning.Engine, set []instance, arc *planArchive, dur time.Duration) error {
	r.zeroPerLayer()
	stats0, b0 := st.repo.Stats(), st.backend.snapshot()
	lr, _, answers, _ := planLoad(ctx, st, eng, set, arc, dur, 1, true)
	if err := st.repo.WaitMaintenance(ctx); err != nil {
		return err
	}
	stats1, b1 := st.repo.Stats(), st.backend.snapshot()
	r.ops.merge(lr.rec)
	bd := resolve(st, lr.traced.traced)
	printBreakdown(bd)
	r.setOpLayers(bd, lr.untraced, lr.traced)
	r.setRepoLayers(st, stats0, stats1, b0, b1)
	r.setDiffLayer(arc.c, lr.traced.traced)
	r.setRuntime(lr)

	// Solver metrics from the solve set's own races (the last round).
	var races [][]versioning.SolverRaceReport
	var winners []string
	wins := map[string]int64{}
	var race sample
	for _, a := range answers[len(answers)-1] {
		var reps []versioning.SolverRaceReport
		for _, rep := range a.res.Reports {
			reps = append(reps, versioning.SolverRaceReport{Solver: rep.Solver, DurationUS: rep.Duration.Microseconds()})
		}
		races = append(races, reps)
		winners = append(winners, a.res.Winner)
		wins[a.res.Winner]++
		race = append(race, float64(a.d)/float64(time.Millisecond))
	}
	r.set("portfolio.race_ms", "ms", race.mean())
	r.setSolvers(races, winners, wins)
	return finishChecks(ctx, st, arc.c, len(arc.c.versions), r)
}
