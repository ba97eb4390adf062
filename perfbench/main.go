// Command lphbench is the repository's load benchmark. It starts lphd
// nodes (service.New(...).Handler()) and, for routed-mixed, an
// lphrouter (router.New(...).Handler()) inside its own process on
// 127.0.0.1:0 listeners, drives them over loopback HTTP with a closed
// loop of one client per CPU, checks every answer against the verdict
// its instance has in closed form, and prints one JSON result line.
// It starts no child process; every listener, job engine, journal and
// temp dir it creates is released on every exit path.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload verify-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced
// closed loop; with --trace 1 it spends half the time on an untraced
// loop (for the program's own counters and phase histograms) and half
// on a traced replay that times each layer's public functions from
// outside, and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/service"
)

// runDeadline bounds one whole run; past it the run is abandoned,
// everything it started is released, and it exits non-zero.
const runDeadline = 170 * time.Second

// setupRounds is how many times a --trace 0 run sets up: generates its
// inputs, starts the pool and warms it. setup_s is the median of these
// set-ups; each pool but the last is closed right after its set-up, and
// the last one is measured.
const setupRounds = 5

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lphbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := fs.String("dir", ".bench_build", "scratch directory for temp journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: lphbench --workload NAME --seed N --seconds S --trace 0|1 [--dir DIR]")
		return 2
	}
	// SIGHUP and SIGPIPE (a write to a closed stdout or stderr) end the
	// run like SIGTERM: cancel, release everything, exit non-zero.
	// Unhandled, a broken pipe would kill the process before it could
	// remove its temp dirs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res, err := run(ctx, config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		clients:  runtime.NumCPU(),
		dir:      *dir,
		flip:     -1,
		log:      stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "lphbench:", err)
		return 1
	}
	cond, _ := json.Marshal(map[string]any{"conditions": res.conditions})
	fmt.Fprintln(stdout, string(cond))
	out, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(stderr, "lphbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.correct {
		return 1
	}
	return 0
}

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	trace    bool
	clients  int
	dir      string    // scratch base: temp dirs go under dir/tmp
	flip     int64     // negate the expected verdict of this measured op (-1 = none)
	log      io.Writer // progress lines: listeners bound, temp dirs made
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	conditions        map[string]any
}

// line is the JSON object printed as the run's last line.
func (r *result) line() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for name, v := range r.metrics {
		ms[name] = map[string]any{"value": v, "unit": unitOf(name)}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

// unitOf derives a metric's unit from its name; BENCHMARK.json lists
// the same units (the benchmark's test holds the two together).
func unitOf(name string) string {
	switch {
	case name == "qps":
		return "ops/s"
	case name == "setup_s":
		return "s"
	case name == "max_rss_mb":
		return "MiB"
	case name == "alloc_kb_per_op":
		return "KiB"
	case name == "router.misses_per_graph":
		return "misses/graph"
	case strings.HasSuffix(name, ".calls"):
		return "count"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	}
	return "ratio"
}

// run executes one benchmark run. Whatever it starts is released
// before it returns, on success, error, deadline or signal alike.
func run(ctx context.Context, cfg config) (*result, error) {
	rounds := setupRounds
	if cfg.trace {
		rounds = 1
	}
	var c *cluster
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	cpu0 := cpuTimes()
	var g *generator
	var setups []float64
	for i := 0; i < rounds; i++ {
		if c != nil {
			c.close()
			c = nil
		}
		t0 := time.Now()
		var err error
		if g, err = newGenerator(cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
		g.flip = cfg.flip
		if c, err = startCluster(g.routed, filepath.Join(cfg.dir, "tmp"), cfg.log); err != nil {
			return nil, err
		}
		if err := warmUp(ctx, c, g.warmup()); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res := &result{metrics: map[string]float64{}}
	var load *loadStats
	var err error
	if cfg.trace {
		if load, err = traced(ctx, cfg, g, c, res.metrics); err != nil {
			return nil, err
		}
	} else {
		if load, err = runLoad(ctx, c, g, cfg.clients, cfg.measure, "m"); err != nil {
			return nil, err
		}
		succeeded := load.attempted - load.failed
		res.metrics["qps"] = ratio(float64(succeeded), load.wall.Seconds())
		res.metrics["p50_ms"] = quantileMS(load.lat, 0.50)
		res.metrics["p99_ms"] = quantileMS(load.lat, 0.99)
		res.metrics["success_ratio"] = ratio(float64(succeeded), float64(load.attempted))
		res.metrics["setup_s"] = median(setups)
		res.metrics["max_rss_mb"] = median(load.rssMiB)
		res.metrics["alloc_kb_per_op"] = ratio(float64(load.allocBytes)/1024, float64(load.attempted))
	}
	res.correct = load.wrong == 0
	res.attempted, res.failed = load.attempted, load.failed
	res.conditions = conditions(cfg, load)
	res.conditions["cpu_steal_share"] = stealShare(cpu0, cpuTimes())
	return res, nil
}

// cpuTimes is the machine's aggregate CPU time counters (the "cpu" line
// of /proc/stat), or nil where there is none.
func cpuTimes() []float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	out := make([]float64, len(f)-1)
	for i, x := range f[1:] {
		out[i], _ = strconv.ParseFloat(x, 64)
	}
	return out
}

// stealShare is the share of CPU time the hypervisor gave to other
// guests between two cpuTimes readings (the 8th counter, "steal"): a
// run whose share is high was measured on a contended host.
func stealShare(a, b []float64) float64 {
	if len(a) < 8 || len(b) < 8 {
		return 0
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	return ratio(b[7]-a[7], total)
}

// traced is a --trace 1 run: an untraced closed loop for half the time,
// with the program's counters scraped around it, then a traced replay
// of the same op sequence for the other half. The returned stats fold
// the replay's failures into the loop's.
func traced(ctx context.Context, cfg config, g *generator, c *cluster, out map[string]float64) (*loadStats, error) {
	half := cfg.measure / 2
	before, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	load, err := runLoad(ctx, c, g, cfg.clients, half, "m")
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	var ops, failed int
	var wall time.Duration
	if g.routed {
		dir, err := c.tempDir("trace-journal-*", cfg.log)
		if err != nil {
			return nil, err
		}
		jnl, err := journal.Open(dir, journal.Options{})
		if err != nil {
			return nil, err
		}
		c.onClose(func() { _ = jnl.Close() })
		ops, wall, failed, err = replayRouted(ctx, c, g, rec, jnl, cfg.measure-half)
		if err != nil {
			return nil, err
		}
	} else if ops, wall, failed, err = replayDirect(ctx, g, rec, cfg.measure-half); err != nil {
		return nil, err
	}
	rec.layerMetrics(out)
	if err := rec.write(filepath.Join(cfg.dir, "spans-"+cfg.workload+".csv")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	counterMetrics(before, after, g, out)
	out["jobs.submit_to_done_p50_ms"] = quantileMS(load.writeLat, 0.50)
	untracedQPS := float64(load.attempted-load.failed) / load.wall.Seconds()
	out["obs.trace_overhead_ratio"] = ratio(float64(ops)/wall.Seconds(), untracedQPS)
	load.attempted += int64(ops)
	load.failed += int64(failed)
	load.wrong += int64(failed)
	return load, nil
}

// snapshot is the program's own counters at one moment: every node's
// /v1/stats and, when routed, the router's /v1/router/pool.
type snapshot struct {
	nodes []service.StatsResponse
	pool  router.PoolResponse
}

func scrape(ctx context.Context, c *cluster) (*snapshot, error) {
	s := &snapshot{nodes: make([]service.StatsResponse, len(c.urls))}
	for i, u := range c.urls {
		if err := c.getJSON(ctx, u+"/v1/stats", &s.nodes[i]); err != nil {
			return nil, err
		}
	}
	if c.router != "" {
		if err := c.getJSON(ctx, c.router+"/v1/router/pool", &s.pool); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// counterMetrics derives the ratio metrics, each over its base, from
// the counter deltas across the untraced loop, plus router affinity and
// the production phase means from the counters' totals.
func counterMetrics(before, after *snapshot, g *generator, out map[string]float64) {
	var cacheHits, cacheMisses, memoHits, memoMisses, memoWaits, acquired, shed, totalMisses float64
	phaseSum := map[string]float64{}
	phaseCount := map[string]float64{}
	for i, a := range after.nodes {
		b := before.nodes[i]
		cacheHits += float64(a.Cache.Hits - b.Cache.Hits)
		cacheMisses += float64(a.Cache.Misses - b.Cache.Misses)
		memoHits += float64(a.Memo.Hits - b.Memo.Hits)
		memoMisses += float64(a.Memo.Misses - b.Memo.Misses)
		memoWaits += float64(a.Memo.Waits - b.Memo.Waits)
		acquired += float64(a.Shed.Acquired - b.Shed.Acquired)
		shed += float64(a.Shed.Shed - b.Shed.Shed)
		totalMisses += float64(a.Cache.Misses)
		for _, p := range a.Phases {
			phaseSum[p.Phase] += p.SumSeconds
			phaseCount[p.Phase] += float64(p.Count)
		}
	}
	out["service.cache.hit_ratio"] = ratio(cacheHits, cacheHits+cacheMisses)
	out["core.memo.hit_ratio"] = ratio(memoHits, memoHits+memoMisses)
	out["core.memo.waits"] = ratio(memoWaits, memoHits+memoMisses)
	out["service.shed.throttled_ratio"] = ratio(shed, acquired+shed)
	out["router.retry_ratio"] = ratio(float64(after.pool.Retried-before.pool.Retried), float64(after.pool.Proxied-before.pool.Proxied))
	out["router.misses_per_graph"] = 0
	if g.routed {
		out["router.misses_per_graph"] = totalMisses / float64(len(g.ws))
	}
	for _, ph := range obs.Phases() {
		out["prod."+ph+".mean_us"] = ratio(phaseSum[ph]*1e6, phaseCount[ph])
	}
}

// ratio is a/b, or 0 when the base is empty.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantileMS is the q-quantile of the latencies in milliseconds,
// interpolated between the two nearest ranks; 0 for no samples.
func quantileMS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// maxRSSMiB is the process's peak resident set (VmHWM), falling back
// to the Go runtime's OS reservation where /proc is not available.
func maxRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// conditions records what a run's numbers depend on.
func conditions(cfg config, load *loadStats) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.measure.Seconds(),
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"commit":        commit(),
		"clients":       cfg.clients,
		"ops_attempted": load.attempted,
		"ops_succeeded": load.attempted - load.failed,
		"ops_failed":    load.failed,
	}
}

// commit is the VCS revision the binary was built from, as the Go
// toolchain stamped it; "unknown" when built outside a checkout with
// history.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
