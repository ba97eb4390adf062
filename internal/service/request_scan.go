package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// maxNestingDepth is encoding/json's nesting bound, counted over the
// whole body: the request object itself is level 1.
const maxNestingDepth = 10000

// scanner is DecodeRequest's one-pass decoder: a validating JSON scanner
// over the whole body that fills a Request as it goes. It follows
// encoding/json's grammar and its Unmarshal rules for Request's field
// types. The one intricate rule, unquoting a string with escapes or
// invalid UTF-8, it leaves to json.Unmarshal on that single token.
type scanner struct {
	data []byte
	off  int
}

// request parses the whole body into req: one JSON object (or null,
// which leaves req zero, as in encoding/json) and nothing after it but
// whitespace.
func (s *scanner) request(req *Request) error {
	s.space()
	switch s.peek() {
	case '{':
		if err := s.object(req); err != nil {
			return err
		}
	case 'n':
		if err := s.literal("null"); err != nil {
			return err
		}
	default:
		return s.fail("request is not a JSON object")
	}
	s.space()
	if s.off != len(s.data) {
		return s.fail("trailing data after request JSON")
	}
	return nil
}

// object parses the request object. A repeated key overwrites the
// earlier value; an unknown key or a value of the wrong type rejects
// the body.
func (s *scanner) object(req *Request) error {
	s.off++ // '{'
	s.space()
	if s.consume('}') {
		return nil
	}
	for {
		key, err := s.key()
		if err != nil {
			return err
		}
		switch dst := req.field(key).(type) {
		case *json.RawMessage:
			*dst, err = s.raw(1)
		case *[]json.RawMessage:
			err = s.rawList(dst)
		case *string:
			err = s.str(dst)
		case *int:
			err = s.int(dst)
		default:
			return s.fail(fmt.Sprintf("unknown field %q", key))
		}
		if err != nil {
			return fmt.Errorf("field %q: %w", key, err)
		}
		s.space()
		if s.consume(',') {
			s.space()
			continue
		}
		if s.consume('}') {
			return nil
		}
		return s.unexpected()
	}
}

// field returns a pointer to the Request field an object key sets, or
// nil for an unknown key. Keys match the json tags the way
// encoding/json matches them: exactly or under case folding.
func (req *Request) field(key []byte) any {
	switch {
	case foldEqual(key, "graph"):
		return &req.Graph
	case foldEqual(key, "property"):
		return &req.Property
	case foldEqual(key, "reduction"):
		return &req.Reduction
	case foldEqual(key, "game"):
		return &req.Game
	case foldEqual(key, "graphs"):
		return &req.Graphs
	case foldEqual(key, "op"):
		return &req.Op
	case foldEqual(key, "job"):
		return &req.Job
	case foldEqual(key, "name"):
		return &req.Name
	case foldEqual(key, "workers"):
		return &req.Workers
	}
	return nil
}

// foldEqual reports whether an unquoted key matches a lower-case ASCII
// field name under encoding/json's folding (appendFoldedName): ASCII
// letters match either case, and a non-ASCII rune matches when the
// smallest rune of its case-fold orbit is the name's upper-case letter,
// so the long s matches "s" and the Kelvin sign "k".
func foldEqual(key []byte, name string) bool {
	i := 0
	for _, r := range string(key) {
		if i == len(name) {
			return false
		}
		c := name[i]
		i++
		upper := rune(c - 'a' + 'A')
		if r != rune(c) && r != upper && (r < utf8.RuneSelf || foldRune(r) != upper) {
			return false
		}
	}
	return i == len(name)
}

// foldRune returns the smallest rune of r's case-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// key scans an object key and the colon after it, leaving s.off at the
// member's value, and returns the key unquoted.
func (s *scanner) key() ([]byte, error) {
	if s.peek() != '"' {
		return nil, s.unexpected()
	}
	key, err := s.quoted()
	if err != nil {
		return nil, err
	}
	s.space()
	if !s.consume(':') {
		return nil, s.unexpected()
	}
	s.space()
	return key, nil
}

// raw validates one JSON value and returns its bytes, sliced out of the
// body with no spare capacity, so appending to it cannot overwrite the
// rest of the body. open counts the containers around the value.
func (s *scanner) raw(open int) (json.RawMessage, error) {
	start := s.off
	if err := s.skipValue(open); err != nil {
		return nil, err
	}
	return s.data[start:s.off:s.off], nil
}

// rawList decodes the graphs array: null sets it to nil, and an empty
// array to an empty, non-nil slice, as in encoding/json.
func (s *scanner) rawList(dst *[]json.RawMessage) error {
	switch s.peek() {
	case 'n':
		*dst = nil
		return s.literal("null")
	case '[':
	default:
		return s.wrongType("an array")
	}
	s.off++
	s.space()
	list := []json.RawMessage{}
	if !s.consume(']') {
		for {
			raw, err := s.raw(2)
			if err != nil {
				return err
			}
			list = append(list, raw)
			s.space()
			if s.consume(',') {
				s.space()
				continue
			}
			if s.consume(']') {
				break
			}
			return s.unexpected()
		}
	}
	*dst = list
	return nil
}

// str decodes a string field; null leaves the field unchanged.
func (s *scanner) str(dst *string) error {
	switch s.peek() {
	case 'n':
		return s.literal("null")
	case '"':
	default:
		return s.wrongType("a string")
	}
	b, err := s.quoted()
	if err != nil {
		return err
	}
	*dst = string(b)
	return nil
}

// quoted moves past the string at s.off and returns it unquoted: the
// body's own bytes when it has no escapes and is valid UTF-8, else
// encoding/json's unquoting of this one token (lone surrogates and
// invalid UTF-8 become U+FFFD).
func (s *scanner) quoted() ([]byte, error) {
	start := s.off
	end, escaped, ok := scanString(s.data, start)
	s.off = end
	if !ok {
		return nil, s.unexpected()
	}
	tok := s.data[start:end]
	if !escaped && utf8.Valid(tok) {
		return tok[1 : len(tok)-1], nil
	}
	var u string
	if err := json.Unmarshal(tok, &u); err != nil {
		return nil, err
	}
	return []byte(u), nil
}

// int decodes the workers field: an integer literal in range (no
// fraction, no exponent); null leaves the field unchanged.
func (s *scanner) int(dst *int) error {
	switch c := s.peek(); {
	case c == 'n':
		return s.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return s.wrongType("a number")
	}
	start := s.off
	end, ok := scanNumber(s.data, start)
	s.off = end
	if !ok {
		return s.unexpected()
	}
	n, err := strconv.Atoi(string(s.data[start:end]))
	if err != nil {
		return s.fail(fmt.Sprintf("number %s is not an int", s.data[start:end]))
	}
	*dst = n
	return nil
}

// skipValue validates the JSON value at s.off and moves past it. open
// counts the containers already open around the value, so the nesting
// bound holds over the whole body. It keeps the offset in a local: this
// loop runs over every byte of every graph.
func (s *scanner) skipValue(open int) error {
	d, i := s.data, s.off
	var buf [32]byte
	closers := buf[:0] // the closing byte of each container open inside this value
	ok := true
	for ok {
		// A value starts at i.
		if i >= len(d) {
			break
		}
		switch c := d[i]; {
		case c == '{' || c == '[':
			if open+len(closers)+1 > maxNestingDepth {
				s.off = i
				return s.fail("exceeded max depth")
			}
			end := closer(c)
			if i = skipSpace(d, i+1); i < len(d) && d[i] == end {
				i++
				break
			}
			closers = append(closers, end)
			if c == '{' {
				i, ok = scanMemberKey(d, i)
			}
			continue
		case '1' <= c && c <= '9':
			// Integers make up most of a graph: scan them here, and
			// rescan with the full grammar only when a fraction or an
			// exponent follows.
			start := i
			if i = digits(d, i+1); i < len(d) && (d[i] == '.' || d[i] == 'e' || d[i] == 'E') {
				i, ok = scanNumber(d, start)
			}
		case c == '-' || c == '0':
			i, ok = scanNumber(d, i)
		case c == '"':
			i, _, ok = scanString(d, i)
		case c == 't':
			i, ok = scanLiteral(d, i, "true")
		case c == 'f':
			i, ok = scanLiteral(d, i, "false")
		case c == 'n':
			i, ok = scanLiteral(d, i, "null")
		default:
			ok = false
		}
		// A value ended: close every container it completes, then move
		// on to the next element of the innermost open one.
		for ok {
			if len(closers) == 0 {
				s.off = i
				return nil
			}
			if i = skipSpace(d, i); i >= len(d) {
				ok = false
				break
			}
			end := closers[len(closers)-1]
			if d[i] == end {
				i++
				closers = closers[:len(closers)-1]
				continue
			}
			if d[i] != ',' {
				ok = false
				break
			}
			i = skipSpace(d, i+1)
			if end == '}' {
				i, ok = scanMemberKey(d, i)
			}
			break
		}
	}
	s.off = i
	return s.unexpected()
}

// closer returns the byte that closes the container c opens.
func closer(c byte) byte {
	if c == '{' {
		return '}'
	}
	return ']'
}

// The scanning primitives below take the body and the offset of the
// token they scan. They return the offset just past the token and
// whether it is valid JSON; on failure the offset is where it went
// wrong.

// skipSpace returns the offset of the first non-whitespace byte at or
// after i.
func skipSpace(d []byte, i int) int {
	for i < len(d) && d[i] <= ' ' && (d[i] == ' ' || d[i] == '\n' || d[i] == '\r' || d[i] == '\t') {
		i++
	}
	return i
}

// scanMemberKey scans an object key, its colon and the whitespace
// around it, up to the member's value.
func scanMemberKey(d []byte, i int) (int, bool) {
	if i >= len(d) || d[i] != '"' {
		return i, false
	}
	i, _, ok := scanString(d, i)
	if !ok {
		return i, false
	}
	i = skipSpace(d, i)
	if i >= len(d) || d[i] != ':' {
		return i, false
	}
	return skipSpace(d, i+1), true
}

// scanString scans the string whose opening quote is at i, reporting
// whether it has escapes.
func scanString(d []byte, i int) (end int, escaped, ok bool) {
	for i++; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			return i + 1, escaped, true
		case c == '\\':
			escaped = true
			if i+1 >= len(d) {
				return len(d), true, false
			}
			switch d[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for j := i + 2; j < i+6; j++ {
					if j >= len(d) || !isHex(d[j]) {
						return min(j, len(d)), true, false
					}
				}
				i += 6
			default:
				return i + 1, true, false
			}
		case c < ' ':
			return i, escaped, false
		default:
			i++
		}
	}
	return i, escaped, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber scans the number at i:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func scanNumber(d []byte, i int) (int, bool) {
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i+1)
	default:
		return i, false
	}
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			return j, false
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			return j, false
		}
		i = j
	}
	return i, true
}

// digits returns the offset of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// scanLiteral scans the literal lit (true, false or null) at i.
func scanLiteral(d []byte, i int, lit string) (int, bool) {
	if len(d)-i < len(lit) || string(d[i:i+len(lit)]) != lit {
		return i, false
	}
	return i + len(lit), true
}

// The envelope methods below wrap the primitives over s.off.

// literal moves past the literal lit at s.off.
func (s *scanner) literal(lit string) error {
	i, ok := scanLiteral(s.data, s.off, lit)
	if !ok {
		return s.unexpected()
	}
	s.off = i
	return nil
}

// space moves past JSON whitespace.
func (s *scanner) space() { s.off = skipSpace(s.data, s.off) }

// peek returns the byte at s.off, or 0 at the end of the body.
func (s *scanner) peek() byte {
	if s.off < len(s.data) {
		return s.data[s.off]
	}
	return 0
}

// consume moves past c if it is the byte at s.off.
func (s *scanner) consume(c byte) bool {
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("invalid request JSON at offset %d: %s", s.off, what)
}

// unexpected reports the byte at s.off, or the end of the body, as out
// of place.
func (s *scanner) unexpected() error {
	if s.off >= len(s.data) {
		return s.fail("unexpected end of JSON input")
	}
	return s.fail(fmt.Sprintf("invalid character %q", s.data[s.off]))
}

func (s *scanner) wrongType(want string) error {
	return s.fail("want " + want + " or null")
}
