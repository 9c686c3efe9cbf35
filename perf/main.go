// Command perf is the repository's benchmark. One run measures one
// workload against the full serving stack (versioning.Open, serve.New
// on a loopback listener, client.New with default Options) or against
// the portfolio Engine, checks every output against the benchmark's own
// computation, and prints one JSON result as its last line.
//
//	bash perf/run.sh --workload commit-churn --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a separate traced run. See
// perf/README.md for the workloads, the metrics and the reference
// figures.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root (for the source hash)
	work     string // this run's data directory
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics, op counts and notes.
type report struct {
	cfg     config
	metrics map[string]metric
	ops     *recorder
	notes   []string
}

func (r *report) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// latency reports an op's median, and prints its tail in the run
// report: the highest percentile with at least ten samples beyond it,
// with the sample count, for an op with at least minTailSamples samples.
// The tails are not in the result line: on a shared 2-core host their
// spread across runs is wider than any bound the benchmark may set (see
// README.md).
func (r *report) latency(prefix, kind string) {
	l := r.ops.log(kind)
	r.set(prefix+"_p50_ms", "ms", l.lat.median())
	if v, pct, ok := l.lat.tail(); ok {
		r.notef("%s_tail_ms %.4f ms: p%.1f of %d samples", prefix, v, pct, len(l.lat))
	} else {
		r.notef("%s_tail_ms not reported: %d samples, need %d", prefix, len(l.lat), minTailSamples)
	}
}

var workloads = map[string]func(cfg config, r *report) error{
	"tree-history": runTree,
	"commit-churn": runChurn,
	"plan-solve":   runPlanSolve,
}

func main() {
	var cfg config
	var traceFlag int
	var rundir string
	flag.StringVar(&cfg.workload, "workload", "", "tree-history | commit-churn | plan-solve")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 15, "load-phase length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&rundir, "rundir", ".bench_build", "directory for run data")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perf: need --workload tree-history|commit-churn|plan-solve, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg.work = filepath.Join(rundir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		os.Exit(1)
	}
	r := &report{cfg: cfg, metrics: map[string]metric{}, ops: newRecorder(nil)}
	err := run(cfg, r)
	if rerr := removeAll(cfg.work); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if !cfg.trace {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}
	res := r.finish()
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish prints the run report and returns the result line.
func (r *report) finish() result {
	res := result{Correct: true, Metrics: r.metrics}
	bi := buildinfo.Get()
	rev := bi.Revision
	if rev == "" {
		rev = "source-sha256:" + sourceHash(r.cfg.root)
	}
	fmt.Printf("workload %s seed %d seconds %d tracing %v\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Printf("GOMAXPROCS %d, %s, NumCPU %d, commit %s\n", runtime.GOMAXPROCS(0), runtime.Version(), runtime.NumCPU(), rev)
	kinds := make([]string, 0, len(r.ops.ops))
	for k := range r.ops.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("%-16s %9s %7s\n", "op", "attempted", "failed")
	for _, k := range kinds {
		l := r.ops.ops[k]
		fmt.Printf("%-16s %9d %7d\n", k, l.attempted, l.failed)
		res.Attempted += l.attempted
		res.Failed += l.failed
		if l.failed > 0 {
			res.Correct = false
			fmt.Printf("  first failure: %v\n", l.firstErr)
		}
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-36s %14.4f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	return res
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// sourceHash identifies the measured code when the build carries no VCS
// revision: a SHA-256 over the module's Go sources and go.mod files.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// removeAll deletes a run directory, retrying briefly in case a
// just-closed repository is still releasing its files.
func removeAll(dir string) error {
	var err error
	for i := 0; i < 5; i++ {
		if err = os.RemoveAll(dir); err == nil || errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return err
}

// runTree and runChurn run the two serving workloads.
func runTree(cfg config, r *report) error {
	return runServing(cfg, r, genTree(cfg.seed), treeMix)
}

// A commit-churn run makes at least churnMinRounds rounds, and more
// while the load phase's length has not passed.
const churnMinRounds = 3

// runChurn runs commit-churn in rounds. Each round sets a fresh stack
// up, commits the whole stream back to back and waits for the
// maintenance passes it started while the reader reads, and restarts
// the repository. The last round also makes the explicit replan and the
// plan checks, and reads every version back after its restarts. setup_s
// and reopen_s are the medians over the rounds; ops_per_s counts the
// load phases only.
func runChurn(cfg config, r *report) error {
	ctx := context.Background()
	c := genChurn(cfg.seed)
	n := len(c.versions)
	if cfg.trace {
		st, _, err := setupStack(filepath.Join(cfg.work, "round0"), c, true)
		if err != nil {
			return err
		}
		defer st.close()
		return runServingTraced(ctx, cfg, r, st, c, churnMix, 0)
	}
	dur := time.Duration(cfg.seconds) * time.Second
	var setupTimes, reopenTimes sample
	var loadTime time.Duration
	ops := 0
	start := time.Now()
	for i := 0; ; i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("round%d", i))
		st, d, err := setupStack(dir, c, false)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, d)
		lr := runLoad(st, c, churnMix, cfg.seed+1+int64(i), c.preload, n, 0, false)
		r.ops.merge(lr.rec)
		loadTime += lr.elapsed
		ops += lr.ops
		last := i+1 >= churnMinRounds && time.Since(start) >= dur
		var readback *recorder
		if last {
			fp, err := finishPlan(ctx, st, c, n)
			r.ops.done("plan_check", 0, err, 0, 0)
			r.set("stored_bytes_ratio", "ratio", fp.storedRatio)
			r.set("retrieval_cost_mean", "bytes", fp.retrMean)
			r.set("plan_objective_ratio", "ratio", fp.objRatio)
			r.set("solve_s", "s", fp.solveS)
			r.notef("final plan: winner %s, storage %d of budget %d, %d versions", fp.summary.Winner, fp.summary.Storage, fp.summary.Constraint, fp.summary.Versions)
			readback = r.ops
		}
		times, err := reopen(ctx, st, c, n, readback, reopenRoundMax, reopenRoundBudget)
		if err != nil {
			return err
		}
		reopenTimes = append(reopenTimes, times...)
		if err := removeAll(dir); err != nil {
			return err
		}
		if last {
			break
		}
	}
	r.set("setup_s", "s", setupTimes.median())
	r.set("reopen_s", "s", reopenTimes.median())
	r.set("ops_per_s", "1/s", float64(ops)/loadTime.Seconds())
	r.latency("checkout", "checkout")
	r.latency("commit", "commit")
	r.latency("diff", "diff")
	r.notef("%d rounds; set-up times %v s; reopen times %v s", len(setupTimes), setupTimes, reopenTimes)
	return nil
}

// A plan-solve run sets its stack up at least setupRepeats times, and
// more (up to setupMax) while the set-ups take less than setupBudget
// seconds in all; setup_s is the median. tree-history sets up once, as
// one of its set-ups alone takes longer than setupBudget, and
// commit-churn once per round.
const (
	setupRepeats = 3
	setupMax     = 31
	setupBudget  = 3.0
)

// runServing sets the stack up, runs the load phase, and finishes with
// the explicit replan, the plan checks and the timed reopen. Set-up
// repeats only while the set-ups take under setupBudget in all: a
// tree-history set-up ingests 75 MiB and takes longer than that alone.
func runServing(cfg config, r *report, c *corpus, mix readerMix) error {
	ctx := context.Background()
	st, times, err := setups(cfg, c, 1)
	if err != nil {
		return err
	}
	defer st.close()
	dur := time.Duration(cfg.seconds) * time.Second
	n := len(c.versions)
	if cfg.trace {
		return runServingTraced(ctx, cfg, r, st, c, mix, dur)
	}
	r.set("setup_s", "s", sample(times).median())
	r.notef("set-up times %v s", times)
	lr := runLoad(st, c, mix, cfg.seed+1, c.preload, n, dur, false)
	r.ops.merge(lr.rec)
	r.set("ops_per_s", "1/s", float64(lr.ops)/lr.elapsed.Seconds())
	r.latency("checkout", "checkout")
	r.latency("commit", "commit")
	r.latency("diff", "diff")
	fp, err := finishPlan(ctx, st, c, n)
	r.ops.done("plan_check", 0, err, 0, 0)
	r.set("stored_bytes_ratio", "ratio", fp.storedRatio)
	r.set("retrieval_cost_mean", "bytes", fp.retrMean)
	r.set("plan_objective_ratio", "ratio", fp.objRatio)
	r.set("solve_s", "s", fp.solveS)
	r.notef("final plan: winner %s, storage %d of budget %d, %d versions", fp.summary.Winner, fp.summary.Storage, fp.summary.Constraint, fp.summary.Versions)
	reopens, err := reopen(ctx, st, c, n, r.ops, reopenMax, reopenBudget)
	if err != nil {
		return err
	}
	r.set("reopen_s", "s", reopens.median())
	r.notef("%d restarts, fastest %.4f s, slowest %.4f s", len(reopens), slices.Min(reopens), slices.Max(reopens))
	return nil
}
