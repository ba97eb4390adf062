package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/graph"
	"repro/internal/graphio"
)

// maxRequestBytes bounds one request body; a production front door must
// not buffer unbounded client JSON.
const maxRequestBytes = 4 << 20

// Request is the JSON body shared by every POST route of the service:
//
//	{"graph": {"n":3,"edges":[[0,1],[1,2],[2,0]],"labels":["1","1","1"]},
//	 "property": "all-selected", "workers": 4}
//
// The graph carries the graphio wire format. Exactly the field matching
// the route is consulted for the operation name — property for
// /v1/decide and /v1/verify, reduction for /v1/reduce, game for
// /v1/game — but the decoder is shared, so a body is either valid on
// every route or none.
type Request struct {
	Graph     json.RawMessage `json:"graph,omitempty"`
	Property  string          `json:"property,omitempty"`
	Reduction string          `json:"reduction,omitempty"`
	Game      string          `json:"game,omitempty"`
	// Graphs carries the instance list of /v1/batch: one op (Op +
	// Property) evaluated over every graph in a single request.
	Graphs []json.RawMessage `json:"graphs,omitempty"`
	// Op names the per-graph operation of /v1/batch: decide or verify.
	Op string `json:"op,omitempty"`
	// Job names the job kind for POST /v1/jobs (sweep, experiment,
	// game); Name carries the experiment slug for kind "experiment".
	Job  string `json:"job,omitempty"`
	Name string `json:"name,omitempty"`
	// Workers asks for a per-request worker budget; the server clamps it
	// to its own budget. 0 means "the server's budget", and negative
	// values are rejected at decode time.
	Workers int `json:"workers,omitempty"`
}

// ErrBadRequest is wrapped by every decode-side failure; handlers map it
// to HTTP 400.
var ErrBadRequest = errors.New("bad request")

// DecodeRequest reads one service request from r. Unknown fields,
// trailing data after the JSON object, bodies over maxRequestBytes, and
// negative worker counts are rejected — the strictness mirrors
// graphio.Decode so malformed traffic fails loudly at the door instead
// of defaulting its way into an evaluation.
//
// The body is read once and scanned once: the envelope is parsed by a
// validating scanner that finds the end of the graph values in the same
// pass and slices them out of the body, so a graph is never scanned
// twice and no reflection runs. It accepts exactly the bodies
// encoding/json's strict decoding into Request accepts, with the same
// result; the encoding/json decoder it replaced is kept as the test
// oracle (request_oracle_test.go).
func DecodeRequest(r io.Reader) (*Request, error) {
	body, err := readBody(r)
	if err != nil {
		return nil, err
	}
	var req Request
	if err := (&scanner{data: body}).request(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.Workers < 0 {
		return nil, fmt.Errorf("%w: negative workers %d", ErrBadRequest, req.Workers)
	}
	return &req, nil
}

// readBuffers lends readBody its growing read buffer. Buffers that grew
// past maxPooledRead are dropped rather than pooled, so one large body
// does not pin its memory.
var readBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRead = 64 << 10

// readBody reads the whole request body into a slice of exactly its
// size, which the decoded Request's graphs then alias. It reads one
// byte past the limit so an oversized body is rejected rather than
// silently truncated.
func readBody(r io.Reader) ([]byte, error) {
	buf := readBuffers.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledRead {
			buf.Reset()
			readBuffers.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(io.LimitReader(r, maxRequestBytes+1)); err != nil {
		return nil, fmt.Errorf("%w: reading request: %v", ErrBadRequest, err)
	}
	if buf.Len() > maxRequestBytes {
		return nil, fmt.Errorf("%w: request body exceeds %d bytes", ErrBadRequest, maxRequestBytes)
	}
	return bytes.Clone(buf.Bytes()), nil
}

// DecodeGraph decodes the request's graph through graphio, inheriting
// its validation (simplicity, connectivity, label alphabet).
func (req *Request) DecodeGraph() (*graph.Graph, error) {
	if len(req.Graph) == 0 {
		return nil, fmt.Errorf("%w: missing graph", ErrBadRequest)
	}
	g, err := graphio.Decode(bytes.NewReader(req.Graph))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return g, nil
}
