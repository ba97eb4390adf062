package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/journal"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simulate"
)

// Layers of the traced run, named <module>.<phase>. layerOp is the op
// itself, the parent of every layer span.
const (
	layerOp int8 = iota
	layerServiceDecode
	layerGraphioDecode
	layerGraphHash
	layerGraphIDs
	layerSimulatePrepare
	layerCoreEngine
	layerCoreMemo
	layerServiceEncode
	layerRouterHop
	layerJournalAppend
	layerJobsQueueWait
	layerCount
)

var layerNames = [layerCount]string{
	"op", "service.decode", "graphio.decode", "graph.hash", "graph.ids", "simulate.prepare",
	"core.engine", "core.memo", "service.encode", "router.hop", "journal.append", "jobs.queue_wait",
}

// span is one timed call: which op it belongs to, the span it ran
// inside (-1 for an op span), and its interval in nanoseconds since
// the recorder's start.
type span struct {
	op, parent int32
	layer      int8
	start, end int64
}

// recorder keeps the traced run's spans in memory; write dumps them
// when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
	cur   int32 // innermost open span, -1 when none
	op    int32
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), cur: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span inside the innermost open one.
func (r *recorder) begin(l int8) int32 {
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{op: r.op, parent: r.cur, layer: l, start: r.now()})
	r.cur = i
	return i
}

// end closes span i, which must be the innermost open one.
func (r *recorder) end(i int32) {
	r.spans[i].end = r.now()
	r.cur = r.spans[i].parent
}

// add records a span measured elsewhere — a duration read from the
// program's own timeline, or a difference of two timings — under
// parent, ending now.
func (r *recorder) add(l int8, parent int32, d time.Duration) {
	e := r.now()
	r.spans = append(r.spans, span{op: r.op, parent: parent, layer: l, start: e - int64(d), end: e})
}

// write dumps the spans as CSV: op, parent span, layer, start, end.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,parent,layer,start_ns,end_ns")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.op, s.parent, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics turns the spans into <layer>.calls, <layer>.p50_us (of
// self time: the span minus the part its child spans cover) and
// <layer>.busy_share (summed self time ÷ summed op time).
func (r *recorder) layerMetrics(out map[string]float64) {
	child := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var self [layerCount][]int64
	var opSum int64
	for i, s := range r.spans {
		if s.layer == layerOp {
			opSum += s.end - s.start
			continue
		}
		self[s.layer] = append(self[s.layer], s.end-s.start-child[i])
	}
	for l := layerOp + 1; l < layerCount; l++ {
		name := layerNames[l]
		xs := self[l]
		var sum int64
		for _, x := range xs {
			sum += x
		}
		out[name+".calls"] = float64(len(xs))
		out[name+".p50_us"] = medianInt64(xs) / 1e3
		out[name+".busy_share"] = 0
		if opSum > 0 {
			out[name+".busy_share"] = float64(sum) / float64(opSum)
		}
	}
}

func medianInt64(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return float64(s[len(s)/2])
	}
	return (float64(s[len(s)/2-1]) + float64(s[len(s)/2])) / 2
}

// prepLRU stands in for service.Cache in the replay: an LRU of Prepared
// instances keyed by canonical hash with the node's capacity. The
// service cache fuses identifier assignment and preparation into one
// call, so the replay keeps its own to time graph.ids and
// simulate.prepare apart.
type prepLRU struct {
	cap   int
	order *list.List // front = most recent; values are *prepEntry
	byKey map[string]*list.Element
}

type prepEntry struct {
	key  string
	prep *simulate.Prepared
}

func newPrepLRU(capacity int) *prepLRU {
	return &prepLRU{cap: capacity, order: list.New(), byKey: make(map[string]*list.Element)}
}

func (c *prepLRU) get(key string) *simulate.Prepared {
	el, ok := c.byKey[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*prepEntry).prep
}

func (c *prepLRU) put(key string, prep *simulate.Prepared) {
	c.byKey[key] = c.order.PushFront(&prepEntry{key, prep})
	for c.order.Len() > c.cap {
		lru := c.order.Back()
		c.order.Remove(lru)
		delete(c.byKey, lru.Value.(*prepEntry).key)
	}
}

// replayer re-runs direct-workload ops by calling each layer's public
// function in the order a node's verify/decide handler does, against a
// core.Memo and a Prepared LRU with the node's capacities. opts carries
// the node's whole worker budget; each op clamps it to the workers its
// request asks for, as the handler does.
type replayer struct {
	rec   *recorder
	memo  *core.Memo
	cache *prepLRU
	opts  search.Options
	buf   bytes.Buffer
}

func newReplayer(ctx context.Context, rec *recorder) *replayer {
	cfg := nodeConfig(nil)
	return &replayer{
		rec:   rec,
		memo:  core.NewMemo(cfg.MemoSize),
		cache: newPrepLRU(cfg.CacheSize),
		opts:  search.Options{Workers: runtime.GOMAXPROCS(0), Ctx: ctx},
	}
}

// run replays one op and reports whether its verdict is the expected
// one. The request-level memo key is built exactly as the handler
// builds it.
func (p *replayer) run(o op) (bool, error) {
	rec := p.rec
	opSpan := rec.begin(layerOp)
	defer rec.end(opSpan)

	s := rec.begin(layerServiceDecode)
	req, err := service.DecodeRequest(bytes.NewReader(o.body))
	rec.end(s)
	if err != nil {
		return false, err
	}
	opts := p.opts
	if req.Workers > 0 && req.Workers < opts.Workers {
		opts.Workers = req.Workers
	}
	computed, prepCached := false, false
	m := rec.begin(layerCoreMemo)
	sum := sha256.Sum256(req.Graph)
	key := "req/" + o.kind + "/" + req.Property + "/" + hex.EncodeToString(sum[:])
	holds, err := p.memo.Do(opts.Ctx, key, func() (bool, error) {
		computed = true
		s := rec.begin(layerGraphioDecode)
		g, err := req.DecodeGraph()
		rec.end(s)
		if err != nil {
			return false, err
		}
		s = rec.begin(layerGraphHash)
		h := g.Hash()
		rec.end(s)
		prep := p.cache.get(h)
		prepCached = prep != nil
		if prep == nil {
			s = rec.begin(layerGraphIDs)
			id := graph.SmallLocallyUnique(g, service.RadiusID)
			rec.end(s)
			s = rec.begin(layerSimulatePrepare)
			prep, err = simulate.Prepare(g, id)
			rec.end(s)
			if err != nil {
				return false, err
			}
			p.cache.put(h, prep)
		}
		// The game-level memo sits inside VerifyMemo/DecideMemo: a call
		// that adds no memo miss was answered by the table, not the
		// engine, and is attributed to core.memo.
		misses := p.memo.Stats().Misses
		s = rec.begin(layerCoreEngine)
		var holds bool
		if o.kind == "decide" {
			holds, err = service.DecideMemo(prep, req.Property, opts, p.memo)
		} else {
			holds, err = service.VerifyMemo(prep, req.Property, opts, p.memo)
		}
		rec.end(s)
		if p.memo.Stats().Misses == misses {
			rec.spans[s].layer = layerCoreMemo
		}
		return holds, err
	})
	rec.end(m)
	if err != nil {
		return false, err
	}
	s = rec.begin(layerServiceEncode)
	p.buf.Reset()
	err = json.NewEncoder(&p.buf).Encode(service.VerdictResponse{
		Op: o.kind, Name: req.Property, Holds: holds, Cached: prepCached || !computed, Workers: opts.Workers,
	})
	rec.end(s)
	return holds == o.want, err
}

// replayDirect is the traced pass of a direct workload: warm the
// replay's memo and cache with the warm-up ops, then replay the
// measured op sequence from index 0 until d has elapsed or maxOps ran.
// It returns the ops replayed, the wall time, and how many verdicts
// were not the expected one.
func replayDirect(ctx context.Context, g *generator, rec *recorder, d time.Duration) (ops int, wall time.Duration, failed int, err error) {
	p := newReplayer(ctx, rec)
	for _, o := range g.warmup() {
		if _, err := p.run(o); err != nil {
			return 0, 0, 0, err
		}
	}
	rec.spans = rec.spans[:0]
	start := time.Now()
	for i := uint64(0); i < maxReplayOps && time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		rec.op = int32(i)
		ok, err := p.run(g.op(streamMeasure, i, "trace"))
		if err != nil {
			return 0, 0, 0, err
		}
		if !ok {
			failed++
		}
		ops++
	}
	return ops, time.Since(start), failed, nil
}

// maxReplayOps caps a traced pass so the in-memory spans stay small.
const maxReplayOps = 20000

// replayRouted is the traced pass of routed-mixed, one op at a time
// over HTTP. A read is timed through the router and then sent again
// directly to the node that answered it (the one whose memo counters
// moved); router.hop is the difference. A write is timed submit → done;
// jobs.queue_wait is read from the job's events, and journal.append
// times one Append of the job's submit record on a journal the
// benchmark owns.
func replayRouted(ctx context.Context, c *cluster, g *generator, rec *recorder, jnl *journal.Journal, d time.Duration) (ops int, wall time.Duration, failed int, err error) {
	memoCalls := func() []uint64 {
		out := make([]uint64, len(c.nodes))
		for i, n := range c.nodes {
			ms := n.Memo().Stats()
			out[i] = ms.Hits + ms.Misses + ms.Waits
		}
		return out
	}
	start := time.Now()
	for i := uint64(0); i < maxReplayOps && time.Since(start) < d; i++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, err
		}
		rec.op = int32(i)
		o := g.op(streamMeasure, i, "trace")
		before := memoCalls()
		opSpan := rec.begin(layerOp)
		out := c.execute(ctx, c.front, o)
		rec.end(opSpan)
		ops++
		if !out.ok {
			if err := ctx.Err(); err != nil {
				return 0, 0, 0, err
			}
			failed++
			continue
		}
		if o.kind == "job" {
			if !out.running.IsZero() {
				rec.add(layerJobsQueueWait, opSpan, out.running.Sub(out.submitted))
			}
			t := time.Now()
			err := jnl.Append(journal.Record{
				Type: journal.TypeSubmit, ID: out.id, Kind: "job", Spec: o.body, Idem: o.idem, Time: t.UnixNano(),
			})
			if err != nil {
				return 0, 0, 0, fmt.Errorf("journal append: %w", err)
			}
			rec.add(layerJournalAppend, opSpan, time.Since(t))
			continue
		}
		if o.fresh {
			continue // the routed call filled the raw-bytes tier; a direct repeat would not be the same warm request
		}
		after := memoCalls()
		home := -1
		for n := range after {
			if after[n] != before[n] {
				home = n
			}
		}
		if home < 0 {
			continue
		}
		t0 := time.Now()
		if direct := c.execute(ctx, c.urls[home], o); !direct.ok {
			failed++
			continue
		}
		routed := time.Duration(rec.spans[opSpan].end - rec.spans[opSpan].start)
		rec.add(layerRouterHop, opSpan, routed-time.Since(t0))
	}
	return ops, time.Since(start), failed, nil
}
