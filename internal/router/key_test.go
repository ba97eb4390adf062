package router

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestAffinityKeys pins the routing key of every route shape: graph
// routes key by the canonical graph hash (so two serializations of one
// graph share a node), anything the router cannot parse falls back to
// the raw body, batches key by their ordered graph list, keyed job
// submits by the Idempotency-Key, and reads carry no key at all.
func TestAffinityKeys(t *testing.T) {
	const (
		tri    = `{"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","0","1"]}`
		triAlt = `{ "labels":["1","0","1"], "edges":[[2,0],[2,1],[1,0]], "n":3 }`
		path   = `{"n":3,"edges":[[0,1],[1,2]]}`
	)
	key := func(method, route, body string, header ...string) (string, bool) {
		t.Helper()
		r := httptest.NewRequest(method, route, strings.NewReader(body))
		for i := 0; i+1 < len(header); i += 2 {
			r.Header.Set(header[i], header[i+1])
		}
		return affinity(r, []byte(body))
	}
	post := func(route, body string) string {
		t.Helper()
		k, write := key(http.MethodPost, route, body)
		if !write {
			t.Fatalf("POST %s %s is not a write", route, body)
		}
		return k
	}
	prefixed := func(k, prefix string) {
		t.Helper()
		if !strings.HasPrefix(k, prefix) || len(k) == len(prefix) {
			t.Fatalf("key %q, want a %q key", k, prefix)
		}
	}

	t.Run("graph-serializations-share-a-key", func(t *testing.T) {
		a := post("/v1/verify", `{"graph":`+tri+`,"property":"3-colorable"}`)
		b := post("/v1/decide", `{"property":"all-selected","graph":`+triAlt+`}`)
		prefixed(a, "graph/")
		if a != b {
			t.Fatalf("one graph, two keys: %q vs %q", a, b)
		}
		if c := post("/v1/reduce", `{"graph":`+path+`,"reduction":"eulerian"}`); c == a {
			t.Fatalf("distinct graphs share key %q", a)
		}
		// The probe is lenient: fields it does not read are not
		// validated, that is the node's job.
		if c := post("/v1/decide", `{"graph":`+tri+`,"property":7,"extra":[]}`); c != a {
			t.Fatalf("lenient probe key %q, want %q", c, a)
		}
	})
	t.Run("unparseable-falls-back-to-body", func(t *testing.T) {
		for _, body := range []string{
			`{"graph":` + tri,                        // malformed JSON
			`{"graph":{"n":2,"edges":[[0,5]]}}`,      // invalid graph
			`{"graph":{"n":2,"edges":[]}}`,           // disconnected graph
			`{"property":"all-selected"}`,            // no graph
			`{"graph":` + tri + `,"property":"x"} x`, // trailing data
		} {
			k := post("/v1/decide", body)
			prefixed(k, "body/")
			if k != post("/v1/decide", body) {
				t.Fatalf("body key of %q not deterministic", body)
			}
		}
		if post("/v1/decide", `{"graph":{"n":2,"edges":[[0,5]]}}`) == post("/v1/decide", `{"graph":{"n":2,"edges":[[0,6]]}}`) {
			t.Fatal("distinct bodies share a body key")
		}
	})
	t.Run("batch-keys-depend-on-order", func(t *testing.T) {
		ab := post("/v1/batch", `{"op":"decide","graphs":[`+tri+`,`+path+`]}`)
		abAlt := post("/v1/batch", `{"graphs":[`+triAlt+`,`+path+`],"op":"verify"}`)
		ba := post("/v1/batch", `{"op":"decide","graphs":[`+path+`,`+tri+`]}`)
		prefixed(ab, "batch/")
		if ab != abAlt {
			t.Fatalf("same ordered graphs, two keys: %q vs %q", ab, abAlt)
		}
		if ab == ba {
			t.Fatalf("reordered batch kept key %q", ab)
		}
		prefixed(post("/v1/batch", `{"graphs":[]}`), "body/")
		prefixed(post("/v1/batch", `{"graphs":[`+tri+`,{"n":0}]}`), "body/")
	})
	t.Run("game", func(t *testing.T) {
		if k := post("/v1/game", `{"game":"figure1","workers":2}`); k != "game/figure1" {
			t.Fatalf("game key %q", k)
		}
		prefixed(post("/v1/game", `{"workers":2}`), "body/")
	})
	t.Run("jobs", func(t *testing.T) {
		body := `{"job":"experiment","name":"figure5"}`
		k, write := key(http.MethodPost, "/v1/jobs", body, "Idempotency-Key", "retry-1")
		if k != "idem/retry-1" || !write {
			t.Fatalf("keyed submit: key %q write %v", k, write)
		}
		prefixed(post("/v1/jobs", body), "body/")
	})
	t.Run("reads-and-deletes-carry-no-key", func(t *testing.T) {
		for _, rt := range []struct{ method, route string }{
			{http.MethodGet, "/v1/jobs/j1"},
			{http.MethodGet, "/v1/stats"},
			{http.MethodGet, "/v1/decide"},
			{http.MethodDelete, "/v1/jobs/j1"},
		} {
			if k, write := key(rt.method, rt.route, ""); k != "" || write {
				t.Fatalf("%s %s: key %q write %v", rt.method, rt.route, k, write)
			}
		}
	})
	t.Run("drain-is-an-unkeyed-write", func(t *testing.T) {
		if k := post("/v1/admin/drain", ""); k != "" {
			t.Fatalf("drain key %q", k)
		}
	})
}
