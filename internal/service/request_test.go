package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestDecodeRequestSizeLimit: the 4MB bound must reject oversized
// bodies outright — a bare LimitReader would silently truncate trailing
// garbage and accept the request.
func TestDecodeRequestSizeLimit(t *testing.T) {
	t.Parallel()
	small := `{"graph":{"n":1},"property":"all-selected"}`
	if _, err := DecodeRequest(strings.NewReader(small)); err != nil {
		t.Fatalf("small request rejected: %v", err)
	}
	t.Run("garbage-past-limit", func(t *testing.T) {
		body := small + strings.Repeat(" ", maxRequestBytes) + "garbage"
		if _, err := DecodeRequest(strings.NewReader(body)); err == nil {
			t.Fatal("oversized body with trailing garbage accepted")
		}
	})
	t.Run("valid-object-past-limit", func(t *testing.T) {
		// A syntactically valid request whose sheer size exceeds the
		// bound: padding with a huge ignored... no field is ignored
		// (unknown fields are rejected), so pad inside the graph labels.
		var b strings.Builder
		b.WriteString(`{"graph":{"n":1,"labels":["`)
		b.WriteString(strings.Repeat("1", maxRequestBytes))
		b.WriteString(`"]},"property":"all-selected"}`)
		if _, err := DecodeRequest(strings.NewReader(b.String())); err == nil {
			t.Fatal("body over the size bound accepted")
		}
	})
	t.Run("whitespace-padding-under-limit", func(t *testing.T) {
		body := small + strings.Repeat(" ", 1024)
		if _, err := DecodeRequest(strings.NewReader(body)); err != nil {
			t.Fatalf("trailing whitespace within the limit rejected: %v", err)
		}
	})
}

// decodeAgainstOracle decodes body with DecodeRequest and with the
// encoding/json oracle it replaced and fails t unless the two agree:
// both reject, or both accept with reflect.DeepEqual requests (so nil
// and empty Graphs differ). Every rejection must wrap ErrBadRequest and
// come without a request.
func decodeAgainstOracle(t testing.TB, body []byte) (*Request, error) {
	t.Helper()
	got, err := DecodeRequest(bytes.NewReader(body))
	want, werr := decodeRequestOracle(bytes.NewReader(body))
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("accept/reject disagree on %q:\n decoder: %v\n oracle:  %v", body, err, werr)
	case err != nil && !errors.Is(err, ErrBadRequest):
		t.Fatalf("rejection of %q is not an ErrBadRequest: %v", body, err)
	case err != nil && got != nil:
		t.Fatalf("DecodeRequest returned both a request and %v", err)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("requests differ on %q:\n decoder: %#v\n oracle:  %#v", body, got, want)
	}
	return got, err
}

// mutationTokens are what TestDecodeRequestMutations splices into
// bodies: JSON structure, whitespace in and out of the JSON set,
// number pieces, literals, escapes (lone and paired surrogates),
// invalid and multi-byte UTF-8 (the long s and the Kelvin sign fold to
// "s" and "k"), and keys and values the envelope treats specially.
var mutationTokens = []string{
	"{", "}", "[", "]", ",", ":", `"`, `\`, " ", "\t", "\n", "\r", "\f", "\v",
	"0", "1", "9", "-", "+", ".", "e", "E", "1.0", "1e2", "-0", "01",
	"9223372036854775808", "t", "true", "false", "null", "nul",
	`\u0041`, `\u006b`, `\ud800`, `\udc00`, `\ud83d\ude00`, `\n`, `\/`, `\x`,
	"\xff", "\xc3", "\xed\xa0\x80", "ſ", "\u212a", "é",
	`"graph":`, `"graphs":`, `"workers":`, `"Workers":`, `"property":`, `"name":`,
	`"GRAPH":null,`, `"workers":null,`, `"graphs":[],`, `"x":1,`,
}

// mutate returns a copy of body with one to three seeded edits: a token
// replaces a byte or is inserted, a span is deleted or repeated, the
// tail is spliced from another seed, or a letter changes case.
func mutate(r *rand.Rand, body []byte, seeds [][]byte) []byte {
	out := append([]byte(nil), body...)
	for range 1 + r.IntN(3) {
		at := 0
		if len(out) > 0 {
			at = r.IntN(len(out) + 1)
		}
		tok := mutationTokens[r.IntN(len(mutationTokens))]
		switch r.IntN(6) {
		case 0: // replace one byte
			if at < len(out) {
				out = append(out[:at], append([]byte(tok), out[at+1:]...)...)
			}
		case 1: // insert
			out = append(out[:at], append([]byte(tok), out[at:]...)...)
		case 2: // delete a span
			end := min(len(out), at+1+r.IntN(8))
			out = append(out[:at], out[end:]...)
		case 3: // repeat a span
			end := min(len(out), at+1+r.IntN(16))
			span := append([]byte(nil), out[at:end]...)
			out = append(out[:end], append(span, out[end:]...)...)
		case 4: // splice another seed's tail
			other := seeds[r.IntN(len(seeds))]
			out = append(out[:at], other[r.IntN(len(other)+1):]...)
		case 5: // flip the case of a letter (keys fold, values do not)
			if at < len(out) && ('a' <= out[at]|0x20 && out[at]|0x20 <= 'z') {
				out[at] ^= 0x20
			}
		}
	}
	return out
}

// TestDecodeRequestMutations is the deterministic differential check
// that plain `go test` runs (the fuzz target needs -fuzz to explore):
// seeded mutations of the fuzz corpus and of perfbench-shaped bodies,
// each decoded by DecodeRequest and by the encoding/json oracle, which
// must agree on accept/reject and on the decoded Request.
func TestDecodeRequestMutations(t *testing.T) {
	t.Parallel()
	seeds := requestSeeds()
	for _, n := range []int{8, 64} {
		for _, family := range layerFamilies {
			seeds = append(seeds, layerBody(family, n))
		}
	}
	r := rand.New(rand.NewPCG(14, 1))
	const rounds = 250000
	accepted := 0
	for range rounds {
		body := mutate(r, seeds[r.IntN(len(seeds))], seeds)
		if _, err := decodeAgainstOracle(t, body); err == nil {
			accepted++
		}
	}
	// Mutants that still decode are the ones that exercise field
	// semantics rather than syntax errors; a corpus that stopped
	// producing them would make this test vacuous.
	if accepted < rounds/20 {
		t.Fatalf("only %d of %d mutants decode", accepted, rounds)
	}
	t.Logf("%d of %d mutants decode", accepted, rounds)
}

// TestDecodeRequestEdgeCases pins the encoding/json semantics the
// one-pass decoder keeps, each case checked both against its expected
// outcome and against the oracle.
func TestDecodeRequestEdgeCases(t *testing.T) {
	t.Parallel()
	nested := func(depth int) string { // depth levels of arrays
		return strings.Repeat("[", depth) + strings.Repeat("]", depth)
	}
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	for _, tc := range []struct {
		name, body string
		want       *Request // nil: rejected
	}{
		// Keys fold like encoding/json's: ASCII case, the long s, the
		// Kelvin sign, and escapes spelling any of them.
		{"folded-keys", `{"GRAPH":1,"Property":"p","wORKERS":2}`, &Request{Graph: raw("1"), Property: "p", Workers: 2}},
		{"long-s", `{"workerſ":3,"graphſ":[]}`, &Request{Workers: 3, Graphs: []json.RawMessage{}}},
		{"kelvin", "{\"wor\u212aers\":4}", &Request{Workers: 4}},
		{"escaped-keys", `{"gr\u0061ph":1,"\u004Fp":"decide","wor\u212Aers":5}`, &Request{Graph: raw("1"), Op: "decide", Workers: 5}},
		{"escaped-unknown-key", `{"graph\u0073s":[]}`, nil},
		{"unknown-key", `{"graph":1,"extra":1}`, nil},
		{"non-folding-rune", `{"gråph":1}`, nil},
		// The last of repeated keys wins; null leaves strings and
		// workers alone, sets graphs to nil and graph to "null".
		{"duplicates", `{"property":"a","graph":1,"graph":[2],"property":"b","graphs":[1,2],"graphs":[3]}`,
			&Request{Graph: raw("[2]"), Property: "b", Graphs: []json.RawMessage{raw("3")}}},
		{"null-fields", `{"property":"a","property":null,"workers":3,"workers":null,"graphs":[1],"graphs":null,"graph":{},"graph":null}`,
			&Request{Graph: raw("null"), Property: "a", Workers: 3}},
		{"null-everywhere", `{"graph":null,"property":null,"reduction":null,"game":null,"graphs":null,"op":null,"job":null,"name":null,"workers":null}`,
			&Request{Graph: raw("null")}},
		{"graphs-empty", `{"graphs":[]}`, &Request{Graphs: []json.RawMessage{}}},
		{"graphs-elements", `{"graphs":[ null , "x" ,{"n" : 1} ]}`, &Request{Graphs: []json.RawMessage{raw("null"), raw(`"x"`), raw(`{"n" : 1}`)}}},
		{"graph-any-value", `{"graph": "x\u0041" }`, &Request{Graph: raw(`"x\u0041"`)}},
		// Type mismatches reject.
		{"string-wants-string", `{"property":1}`, nil},
		{"string-not-bool", `{"name":true}`, nil},
		{"job-not-array", `{"job":[]}`, nil},
		{"graphs-not-object", `{"graphs":{}}`, nil},
		{"graphs-not-string", `{"graphs":"x"}`, nil},
		{"workers-not-string", `{"workers":"1"}`, nil},
		{"workers-not-bool", `{"workers":true}`, nil},
		// workers is an in-range integer literal.
		{"workers-minus-zero", `{"workers":-0}`, &Request{}},
		{"workers-max", `{"workers":9223372036854775807}`, &Request{Workers: 9223372036854775807}},
		{"workers-overflow", `{"workers":9223372036854775808}`, nil},
		{"workers-fraction", `{"workers":1.0}`, nil},
		{"workers-exponent", `{"workers":1e2}`, nil},
		{"workers-negative", `{"workers":-1}`, nil},
		{"workers-leading-zero", `{"workers":01}`, nil},
		// Strings unquote like encoding/json: invalid UTF-8 and lone
		// surrogates become U+FFFD, pairs combine.
		{"invalid-utf8", "{\"name\":\"a\xffb\"}", &Request{Name: "a\uFFFDb"}},
		{"lone-surrogate", `{"name":"\ud800x"}`, &Request{Name: "\uFFFDx"}},
		{"surrogate-pair", `{"name":"\ud83d\ude00"}`, &Request{Name: "😀"}},
		{"escapes", `{"name":"\"\\\/\b\f\n\r\t"}`, &Request{Name: "\"\\/\b\f\n\r\t"}},
		{"utf8", `{"name":"ключ"}`, &Request{Name: "ключ"}},
		{"control-byte", "{\"name\":\"a\x01\"}", nil},
		{"bad-escape", `{"name":"\q"}`, nil},
		{"bad-unicode-escape", `{"graph":"\u12g4"}`, nil},
		// Nesting is bounded at 10000 levels, the envelope included.
		{"depth-10000", `{"graph":` + nested(9999) + `}`, &Request{Graph: raw(nested(9999))}},
		{"depth-10001", `{"graph":` + nested(10000) + `}`, nil},
		{"depth-10000-graphs", `{"graphs":[` + nested(9998) + `]}`, &Request{Graphs: []json.RawMessage{raw(nested(9998))}}},
		{"depth-10001-graphs", `{"graphs":[` + nested(9999) + `]}`, nil},
		// The body is one object, or null, and whitespace.
		{"empty-object", ` {} `, &Request{}},
		{"top-null", `null`, &Request{}},
		{"top-null-spaced", " \t\r\nnull\n", &Request{}},
		{"top-array", `[]`, nil},
		{"top-number", `1`, nil},
		{"top-string", `"x"`, nil},
		{"top-true", `true`, nil},
		{"empty", ``, nil},
		{"spaces-only", `   `, nil},
		{"trailing-object", `{}{}`, nil},
		{"trailing-null", `null null`, nil},
		{"trailing-byte", `{"graph":1}x`, nil},
		{"form-feed", "{\f}", nil},
		// JSON syntax inside the graph is validated in full.
		{"trailing-comma", `{"graph":[1,]}`, nil},
		{"member-without-value", `{"graph":{"a"}}`, nil},
		{"leading-zero", `{"graph":01}`, nil},
		{"lone-minus", `{"graph":-}`, nil},
		{"bare-fraction", `{"graph":1.}`, nil},
		{"bare-exponent", `{"graph":1e+}`, nil},
		{"number-forms", `{"graph":[0,-0,1.5,-2e10,3E-2,4e+1]}`, &Request{Graph: raw(`[0,-0,1.5,-2e10,3E-2,4e+1]`)}},
		{"short-literal", `{"graph":tru}`, nil},
		{"truncated", `{"graph":{"n":1`, nil},
		{"envelope-trailing-comma", `{"graph":1,}`, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := decodeAgainstOracle(t, []byte(tc.body))
			if tc.want == nil {
				if err == nil {
					t.Fatalf("accepted as %#v, want rejection", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %#v, want %#v", got, tc.want)
			}
		})
	}
	t.Run("size-bound", func(t *testing.T) {
		// Exactly maxRequestBytes decodes; one byte more does not.
		body := []byte(`{}` + strings.Repeat(" ", maxRequestBytes-2))
		if _, err := decodeAgainstOracle(t, body); err != nil {
			t.Fatalf("body of exactly %d bytes rejected: %v", maxRequestBytes, err)
		}
		if _, err := decodeAgainstOracle(t, append(body, ' ')); err == nil {
			t.Fatalf("body of %d bytes accepted", maxRequestBytes+1)
		}
	})
}

// TestRequestFieldTags: the scanner's key table (Request.field) must
// name every json tag of Request and point at that tag's field, so a
// field added to Request cannot be silently rejected as unknown.
func TestRequestFieldTags(t *testing.T) {
	var req Request
	v := reflect.ValueOf(&req).Elem()
	for i := range v.NumField() {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		want := v.Field(i).Addr().Interface()
		if got := req.field([]byte(name)); got != want {
			t.Errorf("key %q sets %v, want field %s", name, got, v.Type().Field(i).Name)
		}
	}
}

// layerFamilies are perfbench's graph families for the decode layer.
var layerFamilies = []string{"cycle", "grid", "tree"}

// layerBody builds a perfbench-shaped /v1/verify body: a cycle, grid or
// tree of about n nodes with "0"/"1" labels, deterministic in (family, n).
func layerBody(family string, n int) []byte {
	r := rand.New(rand.NewPCG(uint64(n), 0))
	var edges [][2]int
	switch family {
	case "cycle":
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n})
		}
	case "grid":
		rows := min(16, max(2, int(math.Round(math.Sqrt(float64(n))))))
		cols := max(2, n/rows)
		n = rows * cols
		for u := 0; u < n; u++ {
			if u%cols+1 < cols {
				edges = append(edges, [2]int{u, u + 1})
			}
			if u+cols < n {
				edges = append(edges, [2]int{u, u + cols})
			}
		}
	case "tree":
		for i := 1; i < n; i++ {
			edges = append(edges, [2]int{r.IntN(i), i})
		}
	}
	b := fmt.Appendf(nil, `{"graph":{"n":%d,"edges":[`, n)
	for k, e := range edges {
		if k > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "[%d,%d]", e[0], e[1])
	}
	b = append(b, `],"labels":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, strconv.Itoa(r.IntN(2)))
	}
	return append(b, `]},"property":"2-colorable","workers":1}`...)
}

// BenchmarkDecodeRequest times the service.decode layer on its own:
// DecodeRequest over perfbench-shaped bodies (cycle, grid and tree with
// "0"/"1" labels, n = 64/160/256), from the body bytes to the Request.
// See DESIGN.md for recorded numbers.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, family := range layerFamilies {
		for _, n := range []int{64, 160, 256} {
			body := layerBody(family, n)
			b.Run(fmt.Sprintf("%s-%d", family, n), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for b.Loop() {
					if _, err := DecodeRequest(bytes.NewReader(body)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
