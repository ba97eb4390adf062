package service

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file keeps the encoding/json request decoder that DecodeRequest
// replaced, unchanged, as the equivalence oracle for the one-pass
// scanner: FuzzDecodeRequest, TestDecodeRequestMutations and
// TestDecodeRequestEdgeCases require both decoders to accept the same
// bodies and produce the same Request.

// countingReader counts the bytes handed to the JSON decoder so the
// size bound rejects oversized bodies instead of silently truncating
// them (a bare LimitReader would cut trailing garbage off and let the
// request through).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeRequestOracle reads one service request from r. Unknown fields,
// trailing data after the JSON object, bodies over maxRequestBytes, and
// negative worker counts are rejected — the strictness mirrors
// graphio.Decode so malformed traffic fails loudly at the door instead
// of defaulting its way into an evaluation.
func decodeRequestOracle(r io.Reader) (*Request, error) {
	// Read one byte past the limit: a fully-parsed request that consumed
	// more than maxRequestBytes is over the bound, and anything the
	// limit cut off mid-object fails the parse or the trailing check.
	cr := &countingReader{r: io.LimitReader(r, maxRequestBytes+1)}
	dec := json.NewDecoder(cr)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		// Exactly one object, as required.
	case err == nil:
		return nil, fmt.Errorf("%w: trailing data after request JSON", ErrBadRequest)
	default:
		return nil, fmt.Errorf("%w: trailing data after request JSON: %v", ErrBadRequest, err)
	}
	if cr.n > maxRequestBytes {
		return nil, fmt.Errorf("%w: request body exceeds %d bytes", ErrBadRequest, maxRequestBytes)
	}
	if req.Workers < 0 {
		return nil, fmt.Errorf("%w: negative workers %d", ErrBadRequest, req.Workers)
	}
	return &req, nil
}
