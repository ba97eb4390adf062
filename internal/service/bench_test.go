package service_test

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/service"
	"repro/internal/simulate"
)

// verifyBody builds a /v1/verify request for an n-cycle. Even n makes
// 2-colorable hold, so the game is one strategy-guided machine run and
// the per-request cost is dominated by setup — exactly what the
// Prepared cache amortizes.
func verifyBody(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"graph":{"n":%d,"edges":[`, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "[%d,%d]", i, (i+1)%n)
	}
	b.WriteString(`]},"property":"2-colorable","workers":1}`)
	return b.String()
}

// BenchmarkServiceVerify measures one full service round —
// decode, cache lookup, game evaluation, encode — through the handler,
// cold (cache and memo disabled: every request re-prepares and replays
// the game) versus warm (cache hit + transposition-table hit: the game
// verdict is a lookup and the request cost is decode/hash/encode). See
// DESIGN.md for recorded numbers.
func BenchmarkServiceVerify(b *testing.B) {
	body := verifyBody(256)
	run := func(b *testing.B, srv *service.Server) {
		b.Helper()
		h := srv.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body))
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"holds":true`) {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		run(b, service.New(service.Config{Workers: 1, CacheSize: 0}))
	})
	b.Run("warm", func(b *testing.B) {
		srv := service.New(service.Config{Workers: 1, CacheSize: 8, MemoSize: 4096})
		// Prime the cache and the memo so every measured request hits.
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("warmup failed: %s", w.Body.String())
		}
		run(b, srv)
	})
}

// BenchmarkTracedVerify prices the tracing subsystem on the warm
// verify path — the request whose real work is cheapest, so the
// instrumentation share is largest. untraced runs with tracing
// disabled outright (TraceRing: -1: no trace, no spans, no phase
// histograms); traced runs the full pipeline — inbound traceparent
// parse, span starts/ends through shed/memo/cache, histogram
// observation, ring push, and a JSON log line to io.Discard. Both
// arms send the same traceparent header so the client-side cost of
// setting it cancels out and the delta is the server's tracing work.
// `make bench-delta` gates traced at most 10% over untraced within
// one recorded file. See DESIGN.md for recorded numbers.
func BenchmarkTracedVerify(b *testing.B) {
	body := verifyBody(256)
	run := func(b *testing.B, cfg service.Config) {
		b.Helper()
		srv := service.New(cfg)
		defer srv.Close()
		h := srv.Handler()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("warmup failed: %s", w.Body.String())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/verify", strings.NewReader(body))
			r.Header.Set("traceparent", fixedTraceparent)
			h.ServeHTTP(w, r)
			if w.Code != http.StatusOK {
				b.Fatalf("status %d: %s", w.Code, w.Body.String())
			}
		}
	}
	b.Run("untraced", func(b *testing.B) {
		run(b, service.Config{Workers: 1, CacheSize: 8, MemoSize: 4096, TraceRing: -1})
	})
	b.Run("traced", func(b *testing.B) {
		run(b, service.Config{
			Workers: 1, CacheSize: 8, MemoSize: 4096,
			Logger: slog.New(slog.NewJSONHandler(io.Discard, nil)),
		})
	})
}

// gameTrees is the game-engine corpus: 16 seeded attachment trees of
// 5–7 nodes with seeded labels, each paired with the Σ3 property it
// plays. Even entries play not-all-selected with at least one node left
// unselected; odd entries play one-selected with zero to three nodes
// selected, so both yes- and no-instances appear.
func gameTrees() []struct {
	prep *simulate.Prepared
	prop string
} {
	rng := rand.New(rand.NewSource(16))
	out := make([]struct {
		prep *simulate.Prepared
		prop string
	}, 16)
	for i := range out {
		n := 5 + rng.Intn(3)
		edges := make([]graph.Edge, 0, n-1)
		for u := 1; u < n; u++ {
			edges = append(edges, graph.Edge{U: rng.Intn(u), V: u})
		}
		labels := make([]string, n)
		for u := range labels {
			labels[u] = "0"
		}
		if i%2 == 0 {
			out[i].prop = "not-all-selected"
			keep := rng.Intn(n)
			for u := range labels {
				if u != keep && rng.Intn(2) == 0 {
					labels[u] = "1"
				}
			}
		} else {
			out[i].prop = "one-selected"
			for _, u := range rng.Perm(n)[:[]int{1, 1, 0, 2, 3}[rng.Intn(5)]] {
				labels[u] = "1"
			}
		}
		prep, err := service.Prepare(graph.MustNew(n, edges, labels))
		if err != nil {
			panic(err)
		}
		out[i].prep = prep
	}
	return out
}

// BenchmarkVerifyGame is the core.engine layer benchmark of the
// game-engine load shape: one op plays the Σ3 not-all-selected or
// one-selected verify on each of the 16 gameTrees instances (Eve's
// forest and charge strategies against every challenge of Adam), with
// no memo, so ns/op and allocs/op are 16 whole games. The sequential
// arm runs one worker; the parallel arm fans Adam's level out across
// two.
func BenchmarkVerifyGame(b *testing.B) {
	games := gameTrees()
	for _, arm := range []struct {
		name string
		opts search.Options
	}{
		{"sequential", search.Sequential()},
		{"parallel", search.Parallel(2)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, gm := range games {
					if _, err := service.Verify(gm.prep, gm.prop, arm.opts); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
