package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one executed op reports.
type outcome struct {
	ok    bool // 2xx and the verdict or job result as expected
	wrong bool // answered, but with a verdict or result other than expected
	// Set on job writes: the submit time and the time the worker took
	// the job up, both read from the job's events timeline.
	submitted, running time.Time
	// id is the job id of a write.
	id string
}

// pollEvery is how long a job write waits between status polls.
const pollEvery = 500 * time.Microsecond

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
	Events []struct {
		T     time.Time `json:"t"`
		Phase string    `json:"phase"`
	} `json:"events"`
}

// execute runs one op against base and checks its output. A non-2xx
// answer (429 included), a transport error, a verdict other than the
// closed form, or a job that is not done with the expected result all
// make the op fail; only the last two count as wrong.
func (c *cluster) execute(ctx context.Context, base string, o op) outcome {
	if o.kind != "job" {
		status, b, err := c.post(ctx, base+"/v1/"+o.kind, o.body, "")
		if err != nil || status != http.StatusOK {
			return outcome{}
		}
		var v struct {
			Holds bool `json:"holds"`
		}
		if json.Unmarshal(b, &v) != nil {
			return outcome{}
		}
		return outcome{ok: v.Holds == o.want, wrong: v.Holds != o.want}
	}
	status, b, err := c.post(ctx, base+"/v1/jobs", o.body, o.idem)
	if err != nil || (status != http.StatusAccepted && status != http.StatusOK) {
		return outcome{}
	}
	var st jobStatus
	if json.Unmarshal(b, &st) != nil || st.ID == "" {
		return outcome{}
	}
	for st.State != "done" {
		if st.State == "failed" || st.State == "cancelled" || st.State == "expired" {
			return outcome{wrong: true, id: st.ID}
		}
		t := time.NewTimer(pollEvery)
		select {
		case <-ctx.Done():
			t.Stop()
			return outcome{}
		case <-t.C:
		}
		status, b, err := c.get(ctx, base+"/v1/jobs/"+st.ID)
		if err != nil || status != http.StatusOK || json.Unmarshal(b, &st) != nil {
			return outcome{}
		}
	}
	out := outcome{id: st.ID}
	for _, e := range st.Events {
		switch e.Phase {
		case "submit":
			out.submitted = e.T
		case "running":
			out.running = e.T
		}
	}
	right := o.checkJob(st.Result)
	out.ok, out.wrong = right, !right
	return out
}

// loadStats is one closed-loop phase's record.
type loadStats struct {
	attempted, failed, wrong int64
	lat                      []time.Duration // every attempted op
	writeLat                 []time.Duration // job writes only, submit → done
	wall                     time.Duration
	allocBytes               uint64    // runtime TotalAlloc delta over the phase
	rssMiB                   []float64 // the process's peak RSS in each window of the phase
}

// runLoad drives a closed loop: each of clients goroutines sends its
// next op only when the previous one has completed, taking op indices
// from one shared counter that starts at 0, until d has elapsed. Ops in
// flight at the deadline complete and count. It returns ctx's error if
// ctx ends first.
func runLoad(ctx context.Context, c *cluster, g *generator, clients int, d time.Duration, tag string) (*loadStats, error) {
	var next atomic.Uint64
	var mu sync.Mutex
	st := &loadStats{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	stopRSS := make(chan struct{})
	rssDone := make(chan []float64, 1)
	go func() { rssDone <- windowPeaks(start, stopRSS) }()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat, writeLat []time.Duration
			var failed, wrong int64
			for ctx.Err() == nil && time.Now().Before(deadline) {
				o := g.op(streamMeasure, next.Add(1)-1, tag)
				t0 := time.Now()
				out := c.execute(ctx, c.front, o)
				el := time.Since(t0)
				lat = append(lat, el)
				if o.kind == "job" {
					writeLat = append(writeLat, el)
				}
				if !out.ok {
					failed++
				}
				if out.wrong {
					wrong++
				}
			}
			mu.Lock()
			st.lat = append(st.lat, lat...)
			st.writeLat = append(st.writeLat, writeLat...)
			st.failed += failed
			st.wrong += wrong
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	close(stopRSS)
	st.rssMiB = <-rssDone
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st.allocBytes = after.TotalAlloc - before.TotalAlloc
	st.attempted = int64(len(st.lat))
	return st, nil
}

// window is the length of the windows whose peak RSS the run takes the
// median of. The process's peak over a whole run depends on where the
// garbage collector's cycles fall against the largest allocations: on
// game-engine it spread 0.19–0.31 (IQR/median over ten seeds) against
// 0.05–0.07 for the median of one-second peaks.
const window = time.Second

// windowPeaks reports the process's peak RSS in each window until stop
// closes: it resets the kernel's high-water mark at every window
// boundary and reads it at the next. Where the mark cannot be reset it
// reports the whole-process peak once.
func windowPeaks(start time.Time, stop <-chan struct{}) []float64 {
	if !resetPeakRSS() {
		<-stop
		return []float64{maxRSSMiB()}
	}
	var peaks []float64
	for k := 1; ; k++ {
		t := time.NewTimer(time.Until(start.Add(time.Duration(k) * window)))
		select {
		case <-stop:
			t.Stop()
			if len(peaks) == 0 {
				peaks = append(peaks, maxRSSMiB())
			}
			return peaks
		case <-t.C:
		}
		peaks = append(peaks, maxRSSMiB())
		resetPeakRSS()
	}
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) of this
// process to its current RSS.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// warmUp runs ops sequentially before timing and fails on the first op
// that is not answered as expected: a run whose warm-up fails would
// time the wrong thing.
func warmUp(ctx context.Context, c *cluster, ops []op) error {
	for _, o := range ops {
		if err := ctx.Err(); err != nil {
			return err
		}
		if out := c.execute(ctx, c.front, o); !out.ok {
			if err := ctx.Err(); err != nil {
				return err
			}
			return fmt.Errorf("warm-up %s %s not answered as expected: %.120s", o.kind, o.prop, o.body)
		}
	}
	return nil
}
