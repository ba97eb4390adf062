package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/props"
	"repro/internal/service"
)

// TestMain lets the SIGTERM test run the benchmark as a real process:
// the test binary re-executes itself with LPHBENCH_ARGS set and becomes
// the benchmark.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("LPHBENCH_ARGS"); ok {
		os.Exit(cli(strings.Fields(args), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// syncBuffer collects the benchmark's progress lines while it runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var (
	listenLine = regexp.MustCompile(`lphbench: (?:node|router) listening (\S+)`)
	tempLine   = regexp.MustCompile(`lphbench: tempdir (\S+)`)
)

// assertReleased checks what a finished run leaves behind: nothing
// accepts connections on an address it listened on, and none of its
// temp dirs exists.
func assertReleased(t *testing.T, log string) {
	t.Helper()
	addrs := listenLine.FindAllStringSubmatch(log, -1)
	dirs := tempLine.FindAllStringSubmatch(log, -1)
	if len(addrs) == 0 {
		t.Fatalf("no listener lines in the run's log:\n%s", log)
	}
	for _, m := range addrs {
		if conn, err := net.DialTimeout("tcp", m[1], 500*time.Millisecond); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections after the run", m[1])
		}
	}
	for _, m := range dirs {
		if _, err := os.Stat(m[1]); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("temp dir %s still exists after the run (stat: %v)", m[1], err)
		}
	}
}

func quickConfig(t *testing.T, workload string, trace bool, secs float64, log io.Writer) config {
	return config{
		workload: workload, seed: 7, measure: time.Duration(secs * float64(time.Second)),
		trace: trace, clients: 2, dir: t.TempDir(), flip: -1, log: log,
	}
}

// TestSIGTERMReleasesEverything sends SIGTERM to a benchmark process in
// the middle of its measured phase and checks that it exits without a
// result, closes every listener it bound and removes its temp dirs.
func TestSIGTERMReleasesEverything(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"LPHBENCH_ARGS=--workload routed-mixed --seed 3 --seconds 15 --trace 0 --dir "+t.TempDir())
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the last set-up round's router: the measured phase starts
	// once that round's warm-up (about 0.6 s) is done.
	var log strings.Builder
	routers := 0
	sc := bufio.NewScanner(stderr)
	for routers < setupRounds && sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if strings.Contains(sc.Text(), "router listening") {
			routers++
		}
	}
	time.Sleep(1500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stderr)
	log.Write(rest)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("benchmark still running 30s after SIGTERM; log:\n%s", log.String())
	}
	if err == nil {
		t.Errorf("benchmark exited 0 after SIGTERM")
	}
	if strings.Contains(stdout.String(), `"metrics"`) {
		t.Errorf("benchmark printed a result after SIGTERM: %s", stdout.String())
	}
	if routers != setupRounds {
		t.Fatalf("saw %d router start-ups before SIGTERM, want %d; log:\n%s", routers, setupRounds, log.String())
	}
	assertReleased(t, log.String())
}

// TestDeadlineReleasesEverything ends a run at its deadline and checks
// the same release.
func TestDeadlineReleasesEverything(t *testing.T) {
	var log syncBuffer
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err := run(ctx, quickConfig(t, "routed-mixed", false, 60, &log))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run = %v, want the deadline", err)
	}
	assertReleased(t, log.String())
}

// TestFlippedVerdictFails flips the expected verdict of one measured op
// and checks the run reports it: the output check can fail.
func TestFlippedVerdictFails(t *testing.T) {
	for _, w := range []string{"verify-cold", "routed-mixed"} {
		t.Run(w, func(t *testing.T) {
			var log syncBuffer
			cfg := quickConfig(t, w, false, 1, &log)
			cfg.flip = 5
			res, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.correct || res.failed != 1 {
				t.Errorf("correct=%v failed=%d, want false and 1", res.correct, res.failed)
			}
			if res.metrics["success_ratio"] >= 1 {
				t.Errorf("success_ratio = %v, want < 1", res.metrics["success_ratio"])
			}
			assertReleased(t, log.String())
		})
	}
}

// benchmarkJSON reads the repository's BENCHMARK.json.
func benchmarkJSON(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// assertMetricSet checks that a run reported exactly the metrics
// BENCHMARK.json lists, with the units it lists.
func assertMetricSet(t *testing.T, got map[string]float64, want map[string]string) {
	t.Helper()
	var missing, extra []string
	for name, unit := range want {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		} else if unitOf(name) != unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, unitOf(name), unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	if len(missing)+len(extra) > 0 {
		t.Errorf("metrics differ from BENCHMARK.json: missing %v, extra %v", missing, extra)
	}
}

// TestEndToEndMetrics runs each workload briefly untraced and checks
// every end-to-end metric is reported, non-zero, with its unit.
func TestEndToEndMetrics(t *testing.T) {
	e2e, _ := benchmarkJSON(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			var log syncBuffer
			res, err := run(context.Background(), quickConfig(t, w, false, 1, &log))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.correct, res.attempted, res.failed)
			}
			assertMetricSet(t, res.metrics, e2e)
			for name, v := range res.metrics {
				if v <= 0 {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
			assertReleased(t, log.String())
		})
	}
}

// TestWorkloadsExerciseWhatTheyClaim runs each workload's traced pass
// briefly and checks it exercises the layers it is meant to and
// bypasses the ones it is meant to bypass, so no workload silently
// times a cache hit.
func TestWorkloadsExerciseWhatTheyClaim(t *testing.T) {
	_, layers := benchmarkJSON(t)
	results := map[string]map[string]float64{}
	for _, w := range workloadNames {
		var log syncBuffer
		res, err := run(context.Background(), quickConfig(t, w, true, 2, &log))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.correct || res.failed != 0 {
			t.Errorf("%s: correct=%v failed=%d", w, res.correct, res.failed)
		}
		assertMetricSet(t, res.metrics, layers)
		assertReleased(t, log.String())
		results[w] = res.metrics
	}
	check := func(w, name string, ok func(float64) bool, want string) {
		t.Helper()
		if v := results[w][name]; !ok(v) {
			t.Errorf("%s: %s = %v, want %s", w, name, v, want)
		}
	}
	below := func(x float64) func(float64) bool { return func(v float64) bool { return v < x } }
	above := func(x float64) func(float64) bool { return func(v float64) bool { return v > x } }
	zero := func(v float64) bool { return v == 0 }

	check("verify-cold", "service.cache.hit_ratio", below(0.05), "< 0.05 (every graph is new)")
	check("verify-cold", "core.memo.hit_ratio", below(0.05), "< 0.05 (every key is new)")
	check("verify-cold", "graph.ids.calls", above(0), "> 0")
	check("verify-warm", "core.memo.hit_ratio", above(0.9), "> 0.9 (hot set)")
	check("verify-warm", "core.engine.calls", zero, "0 (every verdict comes from a memo tier)")
	check("verify-warm", "service.cache.hit_ratio", above(0.95), "> 0.95 (hot set fits the cache)")
	check("verify-warm", "graph.ids.calls", zero, "0 (identifier assignment bypassed)")
	check("verify-warm", "simulate.prepare.calls", zero, "0 (preparation bypassed)")
	check("verify-warm", "graphio.decode.calls", above(0), "> 0 (re-serialized share reaches the canonical tier)")
	check("game-engine", "core.engine.busy_share", above(0.5), "> 0.5 (the engine does most of the work)")
	check("routed-mixed", "router.misses_per_graph", func(v float64) bool { return v >= 1 && v < 1.1 },
		fmt.Sprintf("in [1, 1.1) (affinity; retry ratio %v, throttled ratio %v; with neither, the rendezvous hash put more than 128 graphs on one node)",
			results["routed-mixed"]["router.retry_ratio"], results["routed-mixed"]["service.shed.throttled_ratio"]))
	check("routed-mixed", "router.hop.calls", above(0), "> 0")
	check("routed-mixed", "journal.append.calls", above(0), "> 0")
	check("routed-mixed", "jobs.queue_wait.calls", above(0), "> 0")
	for _, w := range []string{"verify-cold", "verify-warm", "game-engine"} {
		for _, l := range []string{"router.hop", "journal.append", "jobs.queue_wait"} {
			check(w, l+".calls", zero, "0 (no router or jobs on a direct workload)")
		}
	}
}

// TestClosedFormVerdicts checks the generators' closed-form verdicts
// against the props package's direct evaluation, and that a seed
// reproduces its ops.
func TestClosedFormVerdicts(t *testing.T) {
	oracle := map[string]func(g *graph.Graph) bool{
		"2-colorable":      props.TwoColorable,
		"3-colorable":      func(g *graph.Graph) bool { return props.KColorable(g, 3) },
		"4-colorable":      func(g *graph.Graph) bool { return props.KColorable(g, 4) },
		"all-selected":     props.AllSelected,
		"eulerian":         props.Eulerian,
		"one-selected":     props.OneSelected,
		"not-all-selected": props.NotAllSelected,
	}
	for _, w := range workloadNames {
		g, err := newGenerator(w, 11)
		if err != nil {
			t.Fatal(err)
		}
		g2, _ := newGenerator(w, 11)
		seen := map[bool]int{}
		for i := uint64(0); i < 200; i++ {
			o := g.op(streamMeasure, i, "m")
			if o2 := g2.op(streamMeasure, i, "m"); !bytes.Equal(o.body, o2.body) || o.want != o2.want {
				t.Fatalf("%s op %d differs between two generators of one seed", w, i)
			}
			if o.kind == "job" {
				continue
			}
			req, err := service.DecodeRequest(bytes.NewReader(o.body))
			if err != nil {
				t.Fatal(err)
			}
			gr, err := req.DecodeGraph()
			if err != nil {
				t.Fatal(err)
			}
			if got := oracle[o.prop](gr); got != o.want {
				t.Fatalf("%s op %d: %s closed form %v, props says %v", w, i, o.prop, o.want, got)
			}
			seen[o.want]++
		}
		if seen[true] == 0 || seen[false] == 0 {
			t.Errorf("%s: verdicts %v, want both to occur", w, seen)
		}
	}
}
