package service

import (
	"bytes"
	"errors"
	"net/http"
	"strings"
	"testing"

	"repro/internal/graphio"
)

// requestSeeds is the request-decoder corpus shared by FuzzDecodeRequest
// and TestDecodeRequestMutations. It wraps the graphio fuzz corpus —
// well-formed graphs plus the malformed-JSON inputs behind cmd/lph's
// exit-2 handling — into request bodies, alongside request-specific
// malformations (unknown fields, trailing data, negative workers) and
// the encoding/json corners the one-pass decoder must reproduce
// (folded and escaped keys, duplicates, nulls, workers forms, invalid
// UTF-8, lone surrogates, whitespace, batch graphs).
func requestSeeds() [][]byte {
	var seeds [][]byte
	// The graphio corpus, embedded as request graph fields.
	for _, g := range []string{
		`{"n":3,"edges":[[0,1],[1,2]],"labels":["1","0","1"]}`,
		`{"n":1}`,
		`{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}`,
		`{"n":2,"edges":[[0,1]]} trailing garbage`,
		`{"n":2,"edges":[[0,1]]}{"n":1}`,
		`{"n":2,"edges":[[0,1]`,
		`{"n":2,"edges":[[0,5]]}`,
		`{"n":0}`,
		`null`,
		`[[0,1]]`,
		`{"n":-1,"edges":[[0,1]]}`,
		`{"n":2,"edges":[[0,1]],"labels":["2",""]}`,
	} {
		seeds = append(seeds,
			[]byte(`{"graph":`+g+`,"property":"all-selected","workers":2}`),
			[]byte(`{"graph":`+g+`,"reduction":"eulerian"}`))
	}
	// Request-shaped malformations and encoding/json corners.
	for _, req := range []string{
		``,
		`not json`,
		`{}`,
		`{"game":"figure1"}`,
		`{"property":"all-selected"}`,
		`{"graph":{"n":1},"property":"x"} trailing`,
		`{"graph":{"n":1}}{"graph":{"n":1}}`,
		`{"graf":{"n":1}}`,
		`{"graph":{"n":1},"workers":-5}`,
		`{"graph":{"n":1},"workers":1e9}`,
		`{"graph":null,"property":"all-selected"}`,
		`{"graph":{"n":1},"property":"all-selected","workers":2,"property":"eulerian"}`,
		`[{"graph":{"n":1}}]`,
		`null`,
		` { "GRAPH" : {"n":1} , "Property":"all-selected", "WORKERS":1 } `,
		"{\"workerſ\":1,\"wor\u212aers\":2}",
		`{"gr\u0061ph":{"n":1},"pr\u006fperty":"all-\u0073elected"}`,
		`{"op":"verify","property":"2-colorable","graphs":[{"n":1},null,{"n":2,"edges":[[0,1]]}]}`,
		`{"graphs":[],"graphs":null,"job":"sweep","name":null,"workers":null}`,
		`{"workers":-0,"workers":1.0}`,
		`{"workers":9223372036854775807}`,
		`{"workers":9223372036854775808}`,
		"{\"name\":\"\xff\\ud800\\ud83d\\ude00\\/\\t\"}",
		"{\"graph\":[{\"a\":[true,false,null,-1.5e+3,\"\\\"\"]}]}\t\r\n",
	} {
		seeds = append(seeds, []byte(req))
	}
	return seeds
}

// FuzzDecodeRequest fuzzes the service's JSON request decoder against
// its encoding/json oracle (request_oracle_test.go). The invariant:
// DecodeRequest never panics, agrees with the oracle on accept/reject
// and on the decoded Request, wraps every rejection in ErrBadRequest,
// never returns both a request and an error, never accepts negative
// workers, and any graph it accepts survives a graphio round trip
// unchanged.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range requestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeAgainstOracle(t, data)
		if err != nil {
			return
		}
		if req.Workers < 0 {
			t.Fatalf("decoder accepted negative workers %d", req.Workers)
		}
		g, err := req.DecodeGraph()
		if err != nil {
			if g != nil {
				t.Fatalf("DecodeGraph returned both a graph and %v", err)
			}
			return
		}
		// Accepted graphs must round-trip, mirroring FuzzReadGraph.
		var buf bytes.Buffer
		if err := graphio.Encode(&buf, g); err != nil {
			t.Fatalf("accepted graph does not re-encode: %v", err)
		}
		h, err := graphio.Decode(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-encoded graph does not decode: %v", err)
		}
		if !g.Equal(h) {
			t.Fatalf("round trip changed the graph:\n%v\nvs\n%v", g, h)
		}
	})
}

// FuzzIdempotencyKey fuzzes the Idempotency-Key validator. The key is
// journaled verbatim and rebound at replay, so the contract is strict:
// accepted keys are non-empty visible ASCII of at most maxIdemKeyBytes
// bytes and come back unchanged (both from ValidateIdemKey and through
// a real http.Header), everything else is an ErrBadRequest — never a
// panic, never a silent truncation or normalization.
func FuzzIdempotencyKey(f *testing.F) {
	for _, key := range []string{
		"retry-1",
		strings.Repeat("k", maxIdemKeyBytes),   // exactly at the limit
		strings.Repeat("k", maxIdemKeyBytes+1), // one byte over
		"",
		" ",
		"has space",
		"tab\there",
		"new\nline",
		"café", // multi-byte UTF-8
		"\x7f", // DEL: first byte past visible ASCII
		"\x1f", // unit separator: last byte before it
		"!~",   // the visible-ASCII boundary characters
		"ключ", // non-Latin
		"null\x00byte",
	} {
		f.Add(key)
	}
	f.Fuzz(func(t *testing.T, key string) {
		got, err := ValidateIdemKey(key)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("reject of %q is not an ErrBadRequest: %v", key, err)
			}
			if got != "" {
				t.Fatalf("ValidateIdemKey(%q) returned both %q and %v", key, got, err)
			}
			return
		}
		if got != key {
			t.Fatalf("accepted key changed: %q -> %q", key, got)
		}
		if len(key) == 0 || len(key) > maxIdemKeyBytes {
			t.Fatalf("accepted key length %d outside (0,%d]", len(key), maxIdemKeyBytes)
		}
		for i := 0; i < len(key); i++ {
			if key[i] <= 0x20 || key[i] >= 0x7f {
				t.Fatalf("accepted key has non-visible byte %#x at %d", key[i], i)
			}
		}
		// The same key must survive a real header round trip — visible
		// ASCII is untouched by net/http's header handling.
		h := make(http.Header)
		h.Set("Idempotency-Key", key)
		if back, err := IdempotencyKey(h); err != nil || back != key {
			t.Fatalf("header round trip of %q: %q, %v", key, back, err)
		}
	})
}
