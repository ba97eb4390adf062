package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graphio"
	"repro/internal/search"
	"repro/internal/service"
)

const (
	triangleJSON = `{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","1","1"]}`
	c5JSON       = `{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[4,0]]}`
)

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func getStats(t *testing.T, ts *httptest.Server) service.StatsResponse {
	t.Helper()
	_, body := get(t, ts, "/v1/stats")
	var st service.StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("stats: %v in %q", err, body)
	}
	return st
}

// TestServiceGolden runs golden request/response pairs through every
// verdict-shaped route, in a deliberate order so the cached flags also
// pin the cache behavior (decide warms the instance verify then hits).
func TestServiceGolden(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 4, CacheSize: 8})
	cases := []struct {
		name, path, body, want string
	}{
		{"decide-all-selected-cold", "/v1/decide",
			`{"graph":` + triangleJSON + `,"property":"all-selected"}`,
			`{"op":"decide","name":"all-selected","holds":true,"cached":false,"workers":4}`},
		{"verify-3col-triangle-warm", "/v1/verify",
			`{"graph":` + triangleJSON + `,"property":"3-colorable"}`,
			`{"op":"verify","name":"3-colorable","holds":true,"cached":true,"workers":4}`},
		{"verify-3col-c5-cold", "/v1/verify",
			`{"graph":` + c5JSON + `,"property":"3-colorable"}`,
			`{"op":"verify","name":"3-colorable","holds":true,"cached":false,"workers":4}`},
		{"verify-2col-c5-warm", "/v1/verify",
			`{"graph":` + c5JSON + `,"property":"2-colorable"}`,
			`{"op":"verify","name":"2-colorable","holds":false,"cached":true,"workers":4}`},
		{"decide-eulerian-c5-warm", "/v1/decide",
			`{"graph":` + c5JSON + `,"property":"eulerian"}`,
			`{"op":"decide","name":"eulerian","holds":true,"cached":true,"workers":4}`},
		{"workers-clamped-to-budget", "/v1/verify",
			`{"graph":` + c5JSON + `,"property":"3-colorable","workers":64}`,
			`{"op":"verify","name":"3-colorable","holds":true,"cached":true,"workers":4}`},
		{"workers-below-budget-honored", "/v1/verify",
			`{"graph":` + c5JSON + `,"property":"3-colorable","workers":2}`,
			`{"op":"verify","name":"3-colorable","holds":true,"cached":true,"workers":2}`},
		{"game-figure1", "/v1/game",
			`{"game":"figure1","workers":1}`,
			`{"op":"game","name":"figure1","workers":1,"results":[` +
				`{"graph":"Figure 1a","three_colorable":true,"three_round_three_colorable":false},` +
				`{"graph":"Figure 1b","three_colorable":true,"three_round_three_colorable":true}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts, tc.path, tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			if body != tc.want+"\n" {
				t.Fatalf("body:\n%s\nwant:\n%s", body, tc.want)
			}
		})
	}
	t.Run("healthz", func(t *testing.T) {
		status, body := get(t, ts, "/v1/healthz")
		if status != http.StatusOK || body != `{"ok":true}`+"\n" {
			t.Fatalf("healthz: %d %q", status, body)
		}
	})
}

// TestServiceReduce covers /v1/reduce for every reduction: the response
// must be byte-identical to the one built from the shared ops layer,
// proving server and CLI run the same code path.
func TestServiceReduce(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 8})
	inputs := map[string]string{
		"eulerian":       triangleJSON,
		"hamiltonian":    triangleJSON,
		"co-hamiltonian": `{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","0","1"]}`,
	}
	for name, in := range inputs {
		t.Run(name, func(t *testing.T) {
			g, err := graphio.Decode(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			res, err := service.Reduce(g, name, search.Sequential())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := graphio.Encode(&buf, res.Out); err != nil {
				t.Fatal(err)
			}
			wantBytes, err := json.Marshal(service.ReduceResponse{
				Op: "reduce", Name: name, Graph: buf.Bytes(), ClusterOf: res.ClusterOf,
			})
			if err != nil {
				t.Fatal(err)
			}
			status, body := post(t, ts, "/v1/reduce", `{"graph":`+in+`,"reduction":"`+name+`"}`)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, body)
			}
			if body != string(wantBytes)+"\n" {
				t.Fatalf("body:\n%s\nwant:\n%s", body, wantBytes)
			}
			// The reduced graph must decode and validate against the input.
			var rr service.ReduceResponse
			if err := json.Unmarshal([]byte(body), &rr); err != nil {
				t.Fatal(err)
			}
			out, err := graphio.Decode(bytes.NewReader(rr.Graph))
			if err != nil {
				t.Fatalf("reduced graph does not decode: %v", err)
			}
			if out.N() != len(rr.ClusterOf) {
				t.Fatalf("cluster map covers %d of %d nodes", len(rr.ClusterOf), out.N())
			}
		})
	}
}

// TestServiceErrors pins the HTTP error contract: 400 for client
// mistakes, 404/405 from routing, and an {"error":...} body throughout.
func TestServiceErrors(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2})
	post400 := []struct{ name, path, body string }{
		{"not-json", "/v1/decide", `not json`},
		{"trailing-data", "/v1/decide", `{"graph":` + triangleJSON + `,"property":"all-selected"} extra`},
		{"unknown-field", "/v1/decide", `{"graf":` + triangleJSON + `}`},
		{"missing-graph", "/v1/decide", `{"property":"all-selected"}`},
		{"negative-workers", "/v1/decide", `{"graph":` + triangleJSON + `,"property":"all-selected","workers":-1}`},
		{"unknown-property", "/v1/decide", `{"graph":` + triangleJSON + `,"property":"nope"}`},
		{"unknown-verify", "/v1/verify", `{"graph":` + triangleJSON + `,"property":"nope"}`},
		{"unknown-reduction", "/v1/reduce", `{"graph":` + triangleJSON + `,"reduction":"nope"}`},
		{"unknown-game", "/v1/game", `{"game":"nope"}`},
		{"bad-graph", "/v1/verify", `{"graph":{"n":2,"edges":[]},"property":"2-colorable"}`},
		{"escaped-unknown-field", "/v1/decide", `{"graph":` + triangleJSON + `,"propert\u0079s":"all-selected"}`},
		{"float-workers", "/v1/decide", `{"graph":` + triangleJSON + `,"property":"all-selected","workers":2.0}`},
		{"over-deep-graph", "/v1/decide", `{"graph":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"property":"all-selected"}`},
	}
	for _, tc := range post400 {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts, tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", status, body)
			}
			var e map[string]string
			if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
				t.Fatalf("error body %q", body)
			}
		})
	}
	t.Run("unknown-name-skips-cache", func(t *testing.T) {
		// A bogus property must be rejected before graph preparation, so
		// it neither pays setup cost nor occupies a cache slot.
		_, ts2 := newTestServer(t, service.Config{Workers: 2, CacheSize: 2})
		fresh := `{"n":4,"edges":[[0,1],[1,2],[2,3]]}`
		if status, _ := post(t, ts2, "/v1/verify", `{"graph":`+fresh+`,"property":"nope"}`); status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", status)
		}
		if st := getStats(t, ts2); st.Cache.Size != 0 || st.Cache.Misses != 0 || st.Cache.Hits != 0 {
			t.Fatalf("bogus name touched the cache: %+v", st.Cache)
		}
	})
	t.Run("unknown-route", func(t *testing.T) {
		if status, _ := get(t, ts, "/v1/nope"); status != http.StatusNotFound {
			t.Fatalf("status %d, want 404", status)
		}
	})
	t.Run("wrong-method", func(t *testing.T) {
		if status, _ := get(t, ts, "/v1/decide"); status != http.StatusMethodNotAllowed {
			t.Fatalf("status %d, want 405", status)
		}
	})
}

// TestCatalogMembership: the Has* checks answer from name sets built
// once, and must agree with the catalogs evaluation uses.
func TestCatalogMembership(t *testing.T) {
	for _, tc := range []struct {
		names []string
		has   func(string) bool
	}{
		{service.DecideNames(), service.HasDecide},
		{service.VerifyNames(), service.HasVerify},
		{service.ReduceNames(), service.HasReduce},
		{service.GameNames(), service.HasGame},
	} {
		if len(tc.names) == 0 {
			t.Fatal("empty catalog")
		}
		for _, name := range tc.names {
			if !tc.has(name) {
				t.Errorf("catalog name %q not a member", name)
			}
		}
		for _, bogus := range []string{"", "nope", strings.ToUpper(tc.names[0])} {
			if tc.has(bogus) {
				t.Errorf("%q is a member", bogus)
			}
		}
	}
}

// TestServiceStats drives a known request sequence and asserts the full
// bookkeeping reconciles: request counters, cache hit/miss/size, and the
// operation catalog.
func TestServiceStats(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 3, CacheSize: 2})
	post(t, ts, "/v1/decide", `{"graph":`+triangleJSON+`,"property":"all-selected"}`) // miss
	post(t, ts, "/v1/decide", `{"graph":`+triangleJSON+`,"property":"all-equal"}`)    // hit
	post(t, ts, "/v1/verify", `{"graph":`+c5JSON+`,"property":"3-colorable"}`)        // miss
	post(t, ts, "/v1/decide", `{"graph":`+triangleJSON+`,"property":"nope"}`)         // failure, no cache lookup
	post(t, ts, "/v1/reduce", `{"graph":`+triangleJSON+`,"reduction":"eulerian"}`)    // no cache use
	st := getStats(t, ts)
	if st.WorkersBudget != 3 {
		t.Fatalf("budget %d", st.WorkersBudget)
	}
	if st.Requests.Total != 5 || st.Requests.Failures != 1 || st.Requests.Canceled != 0 {
		t.Fatalf("requests %+v", st.Requests)
	}
	if st.Cache.Capacity != 2 || st.Cache.Size != 2 || st.Cache.Misses != 2 || st.Cache.Hits != 1 || st.Cache.Evictions != 0 {
		t.Fatalf("cache %+v", st.Cache)
	}
	if int(st.Cache.Misses)-int(st.Cache.Evictions) != st.Cache.Size {
		t.Fatalf("cache bookkeeping does not reconcile: %+v", st.Cache)
	}
	for _, want := range []struct {
		kind string
		name string
	}{
		{"decide", "all-selected"}, {"verify", "hamiltonian"}, {"reduce", "3color"}, {"game", "figure1"},
	} {
		found := false
		for _, n := range st.Catalog[want.kind] {
			if n == want.name {
				found = true
			}
		}
		if !found {
			t.Fatalf("catalog[%s] = %v misses %s", want.kind, st.Catalog[want.kind], want.name)
		}
	}
}

// slowVerifyBody is a hamiltonian verification that takes several
// seconds uncanceled (C12: 3^12 universal challenges), used to prove
// cancellation reaches the game mid-search.
func slowVerifyBody() string {
	var b strings.Builder
	b.WriteString(`{"graph":{"n":12,"edges":[`)
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "[%d,%d]", i, (i+1)%12)
	}
	b.WriteString(`]},"property":"hamiltonian","workers":2}`)
	return b.String()
}

// TestServiceClientDisconnectCancels aborts the client connection
// mid-evaluation and asserts the server observes the cancellation (the
// canceled counter moves) far sooner than the uncanceled game would
// finish.
func TestServiceClientDisconnectCancels(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify",
		strings.NewReader(slowVerifyBody()))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded despite cancellation")
	}
	// The handler sees the disconnect asynchronously; it must record the
	// canceled evaluation well before the ~9s the full game would take.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStats(t, ts)
		if st.Requests.Canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled counter never moved; stats %+v", st.Requests)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("cancellation took %v — evaluation was not aborted", elapsed)
	}
}

// TestServiceTimeout bounds an evaluation by the server-wide deadline:
// the slow game must come back 503 quickly with the canceled counter up.
func TestServiceTimeout(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 2, Timeout: 200 * time.Millisecond})
	start := time.Now()
	status, body := post(t, ts, "/v1/verify", slowVerifyBody())
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", status, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Fatalf("body %q does not name the deadline", body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout answered after %v", elapsed)
	}
	if st := getStats(t, ts); st.Requests.Canceled != 1 {
		t.Fatalf("canceled counter %d, want 1", st.Requests.Canceled)
	}
}

// TestServiceConcurrentClients hammers one cached graph from many
// goroutines mixing decide, verify, and stats — run under -race by make
// check — and reconciles the cache bookkeeping afterwards.
func TestServiceConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, service.Config{Workers: 2, CacheSize: 4})
	const clients, perClient = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				var path, body, want string
				switch i % 3 {
				case 0:
					path, body = "/v1/verify", `{"graph":`+c5JSON+`,"property":"3-colorable","workers":2}`
					want = `"holds":true`
				case 1:
					path, body = "/v1/decide", `{"graph":`+c5JSON+`,"property":"eulerian"}`
					want = `"holds":true`
				case 2:
					path, body = "/v1/verify", `{"graph":`+c5JSON+`,"property":"2-colorable","workers":1}`
					want = `"holds":false`
				}
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), want) {
					errs <- fmt.Errorf("client %d req %d: %d %s", c, i, resp.StatusCode, b)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cs := s.Cache().Stats()
	if cs.Hits+cs.Misses != clients*perClient {
		t.Fatalf("cache lookups %d+%d, want %d", cs.Hits, cs.Misses, clients*perClient)
	}
	if cs.Size != 1 || cs.Evictions != 0 {
		t.Fatalf("one graph must occupy one slot: %+v", cs)
	}
	if cs.Misses < 1 || cs.Hits < uint64(clients*perClient-clients) {
		t.Fatalf("cache did not absorb the hammering: %+v", cs)
	}
}
