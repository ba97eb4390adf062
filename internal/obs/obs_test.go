package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"log/slog"
)

// fakeClock is a hand-advanced clock: deterministic span timings.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestParseTraceparent(t *testing.T) {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tp, ok := ParseTraceparent(valid)
	if !ok {
		t.Fatalf("valid header rejected: %s", valid)
	}
	if tp.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tp.SpanID != "00f067aa0ba902b7" ||
		tp.Version != "00" || tp.Flags != "01" {
		t.Fatalf("parsed fields wrong: %+v", tp)
	}

	invalid := []string{
		"",
		"00",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // version 00 with trailing junk
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // all-zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // all-zero span id
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"0g-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex version
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
	}
	for _, s := range invalid {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("invalid header accepted: %q", s)
		}
	}

	// Future versions: exact 55 chars parse, "-"-suffixed extra data
	// parses, glued extra data does not.
	future := "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, ok := ParseTraceparent(future); !ok {
		t.Errorf("future version rejected: %q", future)
	}
	if _, ok := ParseTraceparent(future + "-extra"); !ok {
		t.Errorf("future version with suffix rejected")
	}
	if _, ok := ParseTraceparent(future + "extra"); ok {
		t.Errorf("future version with glued junk accepted")
	}

	if got := FormatTraceparent(tp.TraceID, tp.SpanID); got != valid {
		t.Fatalf("FormatTraceparent round-trip: got %q want %q", got, valid)
	}
}

func TestTraceAdoptsInboundContext(t *testing.T) {
	clk := newFakeClock()
	tr := NewTracer(TracerConfig{Now: clk.now}).Start("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if tr.ID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("inbound trace id not adopted: %s", tr.ID())
	}
	out, ok := ParseTraceparent(tr.Traceparent())
	if !ok || out.TraceID != tr.ID() {
		t.Fatalf("outbound traceparent broken: %q", tr.Traceparent())
	}
	if out.SpanID == "00f067aa0ba902b7" {
		t.Fatalf("outbound parent must be our root span, not the inbound one")
	}
}

func TestTraceFreshOnInvalidHeader(t *testing.T) {
	clk := newFakeClock()
	tc := NewTracer(TracerConfig{Now: clk.now})
	a, b := tc.Start("garbage"), tc.Start("")
	for _, tr := range []*Trace{a, b} {
		if len(tr.ID()) != 32 || !isLowerHex(tr.ID()) || allZero(tr.ID()) {
			t.Fatalf("fresh trace id malformed: %q", tr.ID())
		}
	}
	if a.ID() == b.ID() {
		t.Fatalf("two fresh traces share an id")
	}
}

func TestSpansFeedRingAndHistograms(t *testing.T) {
	clk := newFakeClock()
	tc := NewTracer(TracerConfig{Now: clk.now, RingSize: 4})
	tr := tc.Start("")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatalf("context round-trip lost the trace")
	}

	sp := StartSpan(ctx, PhaseEngine)
	clk.advance(30 * time.Millisecond)
	sp.End()
	clk.advance(10 * time.Millisecond)
	tr.Finish("POST /v1/verify", 200)

	recs := tc.Traces(0, "")
	if len(recs) != 1 {
		t.Fatalf("ring has %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Route != "POST /v1/verify" || rec.Status != 200 || rec.Trace != tr.ID() {
		t.Fatalf("record fields wrong: %+v", rec)
	}
	if rec.DurationMS != 40 {
		t.Fatalf("trace duration = %v ms, want 40", rec.DurationMS)
	}
	if len(rec.Spans) != 1 || rec.Spans[0].Phase != PhaseEngine ||
		rec.Spans[0].StartMS != 0 || rec.Spans[0].DurationMS != 30 {
		t.Fatalf("span record wrong: %+v", rec.Spans)
	}

	// The span must have landed in the engine phase histogram.
	var engine *PhaseStats
	for _, ps := range tc.PhaseStats() {
		if ps.Phase == PhaseEngine {
			engine = &ps
			break
		}
	}
	if engine == nil || engine.Count != 1 || engine.SumSeconds != 0.03 {
		t.Fatalf("engine histogram wrong: %+v", engine)
	}
	if p50, ok := tc.P50(PhaseEngine); !ok || p50 != 0.1 {
		// 30ms falls in the (0.025, 0.1] bucket; P50 reports its bound.
		t.Fatalf("P50 = %v/%v, want 0.1/true", p50, ok)
	}
	if _, ok := tc.P50(PhaseCache); ok {
		t.Fatalf("P50 on empty phase must report !ok")
	}
}

// TestPhaseBucketsResolveMicroseconds pins the sub-100µs buckets: a
// 20µs and a 90µs phase land in different buckets, and P50 reports the
// faster one's bound.
func TestPhaseBucketsResolveMicroseconds(t *testing.T) {
	tc := NewTracer(TracerConfig{Now: newFakeClock().now})
	tc.Observe(PhasePrepare, 20*time.Microsecond)
	tc.Observe(PhasePrepare, 90*time.Microsecond)
	for _, ps := range tc.PhaseStats() {
		if ps.Phase != PhasePrepare {
			continue
		}
		want := map[string]uint64{"1e-05": 0, "2.5e-05": 1, "5e-05": 1, "0.0001": 2}
		for _, b := range ps.Buckets {
			if c, ok := want[b.LE]; ok && b.Count != c {
				t.Fatalf("bucket le=%s count %d, want %d: %+v", b.LE, b.Count, c, ps.Buckets)
			}
			delete(want, b.LE)
		}
		if len(want) != 0 {
			t.Fatalf("buckets %v missing from %+v", want, ps.Buckets)
		}
	}
	if p50, ok := tc.P50(PhasePrepare); !ok || p50 != 0.000025 {
		t.Fatalf("P50 = %v/%v, want 2.5e-05/true", p50, ok)
	}
}

func TestAllCanonicalPhasesPreRegistered(t *testing.T) {
	tc := NewTracer(TracerConfig{Now: newFakeClock().now})
	have := map[string]bool{}
	for _, ps := range tc.PhaseStats() {
		have[ps.Phase] = true
		if len(ps.Buckets) != len(PhaseBuckets)+1 {
			t.Fatalf("phase %s has %d buckets", ps.Phase, len(ps.Buckets))
		}
		if ps.Buckets[len(ps.Buckets)-1].LE != "+Inf" {
			t.Fatalf("phase %s last bucket LE = %q", ps.Phase, ps.Buckets[len(ps.Buckets)-1].LE)
		}
	}
	for _, want := range Phases() {
		if !have[want] {
			t.Fatalf("phase %s not pre-registered", want)
		}
	}
}

func TestRingBoundAndFilters(t *testing.T) {
	clk := newFakeClock()
	tc := NewTracer(TracerConfig{Now: clk.now, RingSize: 3})
	routes := []string{"a", "b", "a", "c", "a"}
	ids := make([]string, len(routes))
	for i, route := range routes {
		tr := tc.Start("")
		ids[i] = tr.ID()
		tr.Finish(route, 200)
	}
	recs := tc.Traces(0, "")
	if len(recs) != 3 {
		t.Fatalf("ring retained %d, want 3", len(recs))
	}
	// Newest first: the last three finishes, reversed.
	for i, want := range []string{ids[4], ids[3], ids[2]} {
		if recs[i].Trace != want {
			t.Fatalf("ring order wrong at %d: %+v", i, recs)
		}
	}
	if recs := tc.Traces(1, ""); len(recs) != 1 || recs[0].Trace != ids[4] {
		t.Fatalf("limit=1 wrong: %+v", recs)
	}
	if recs := tc.Traces(0, "a"); len(recs) != 2 || recs[0].Trace != ids[4] || recs[1].Trace != ids[2] {
		t.Fatalf("route filter wrong: %+v", recs)
	}
}

func TestSpanCapCountsDropped(t *testing.T) {
	clk := newFakeClock()
	tc := NewTracer(TracerConfig{Now: clk.now})
	tr := tc.Start("")
	ctx := NewContext(context.Background(), tr)
	for i := 0; i < maxSpans+7; i++ {
		sp := StartSpan(ctx, PhaseCache)
		sp.End()
	}
	tr.Finish("b", 200)
	rec := tc.Traces(1, "")[0]
	if len(rec.Spans) != maxSpans || rec.DroppedSpans != 7 {
		t.Fatalf("spans=%d dropped=%d, want %d/7", len(rec.Spans), rec.DroppedSpans, maxSpans)
	}
	// Dropped spans still count in the histogram.
	for _, ps := range tc.PhaseStats() {
		if ps.Phase == PhaseCache && ps.Count != uint64(maxSpans+7) {
			t.Fatalf("cache histogram count = %d, want %d", ps.Count, maxSpans+7)
		}
	}
}

func TestRequestLogLineAndSlowPromotion(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tc := NewTracer(TracerConfig{Now: clk.now, Logger: logger, SlowRequest: 100 * time.Millisecond})

	// Fast request: one INFO line, no span dump.
	tr := tc.Start("")
	ctx := NewContext(context.Background(), tr)
	sp := StartSpan(ctx, PhaseEngine)
	clk.advance(20 * time.Millisecond)
	sp.End()
	tr.Finish("POST /v1/verify", 200)

	line := buf.String()
	if strings.Count(line, "\n") != 1 {
		t.Fatalf("want exactly one log line, got: %q", line)
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(line), &entry); err != nil {
		t.Fatalf("log line is not JSON: %v", err)
	}
	if entry["level"] != "INFO" || entry["trace"] != tr.ID() ||
		entry["route"] != "POST /v1/verify" || entry["status"] != float64(200) {
		t.Fatalf("log fields wrong: %v", entry)
	}
	if ph, _ := entry["phases"].(string); !strings.Contains(ph, "engine=20.000ms") {
		t.Fatalf("phase breakdown wrong: %v", entry["phases"])
	}
	if _, hasSpans := entry["spans"]; hasSpans {
		t.Fatalf("fast request must not dump spans")
	}

	// Slow request: WARN with the span dump.
	buf.Reset()
	tr = tc.Start("")
	clk.advance(250 * time.Millisecond)
	tr.Finish("POST /v1/verify", 200)
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v", err)
	}
	if entry["level"] != "WARN" || entry["msg"] != "slow request" {
		t.Fatalf("slow request not promoted: %v", entry)
	}
	if _, hasSpans := entry["spans"]; !hasSpans {
		t.Fatalf("slow request must dump spans")
	}
}

func TestNilSafety(t *testing.T) {
	var tc *Tracer
	if tr := tc.Start("whatever"); tr != nil {
		t.Fatalf("nil tracer must start nil traces")
	}
	var tr *Trace
	if tr.ID() != "" || tr.Traceparent() != "" {
		t.Fatalf("nil trace ids must be empty")
	}
	tr.Finish("r", 200) // must not panic
	sp := StartSpan(context.Background(), PhaseEngine)
	if sp != (Span{}) {
		t.Fatalf("span without a trace must be the inert zero Span")
	}
	sp.End() // must not panic
	tc.Observe(PhaseEngine, time.Second)
	if tc.PhaseStats() != nil || tc.Traces(0, "") != nil {
		t.Fatalf("nil tracer snapshots must be nil")
	}
	if ctx := NewContext(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatalf("nil trace must not be stored in the context")
	}
}
