package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"dsm/internal/exper"
)

// specParseBufPool recycles POST body read buffers: a spec encodes to well
// under 200 bytes, so one small pooled buffer per concurrent request
// replaces the decoder's per-request stream buffering. Buffers grown past
// the put-back bound (a near-limit body) are dropped to the GC rather than
// pinned in the pool.
var specParseBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

const (
	specParseBufMax = 16 << 10
	maxSpecBody     = 1 << 16 // larger POST bodies fail as http.MaxBytesReader fails them
)

// parseSpecBody decodes the POST form of a spec: readSpecBody, then
// parseSpecBytes. It lives apart from the GET path so the spec it returns
// never escapes.
func parseSpecBody(r *http.Request) (Spec, error) {
	bp := specParseBufPool.Get().(*[]byte)
	defer putSpecBuf(bp)
	body, err := readSpecBody(bp, r)
	if err != nil {
		return Spec{}, err
	}
	return parseSpecBytes(body)
}

// readSpecBody reads a POST body into the pooled buffer *bp, bounded at
// maxSpecBody the way http.MaxBytesReader bounds it. The bytes stay valid
// until bp goes back to the pool.
func readSpecBody(bp *[]byte, r *http.Request) ([]byte, error) {
	body, err := appendReadLimit((*bp)[:0], r.Body, maxSpecBody)
	*bp = body[:0]
	if err != nil {
		return nil, fmt.Errorf("bad spec JSON: %w", err)
	}
	return body, nil
}

// putSpecBuf returns a read buffer to the pool unless a near-limit body
// grew it past the put-back bound.
func putSpecBuf(bp *[]byte) {
	if cap(*bp) <= specParseBufMax {
		specParseBufPool.Put(bp)
	}
}

// parseSpecBytes decodes a spec body. scanSpec handles the flat object
// form every client in this tree sends without allocating; any other
// input goes to decodeSpecJSON, so the accepted inputs, the decoded Spec
// and the error text are exactly encoding/json's.
func parseSpecBytes(body []byte) (Spec, error) {
	if sp, ok := scanSpec(body); ok {
		return sp, nil
	}
	return decodeSpecJSON(body)
}

// decodeSpecJSON is the reference decode of a spec body: encoding/json
// with unknown fields refused, reading the first JSON value of the body.
// It is a function of its own because Decode(&sp) moves sp to the heap,
// which must not happen on scanSpec's path.
func decodeSpecJSON(body []byte) (Spec, error) {
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return sp, fmt.Errorf("bad spec JSON: %w", err)
	}
	return sp, nil
}

// appendReadLimit is io.ReadAll into a caller-provided buffer, bounded the
// way http.MaxBytesReader bounds a body: it reads at most limit+1 bytes,
// and a body longer than limit fails with *http.MaxBytesError.
func appendReadLimit(buf []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf, &http.MaxBytesError{Limit: int64(limit)}
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scanSpec decodes b when it is a spec in flat object form and reports
// whether it was. The form is an object whose keys are exactly Spec's JSON
// tags, whose values are strings without escapes or control bytes that
// are valid UTF-8, true/false, in-range integers (any JSON number for
// "a"), followed by nothing but whitespace. Within that form it agrees
// with encoding/json field for field, duplicate keys included (the last
// one wins). Anything else reports false, leaving the verdict and the
// error text to decodeSpecJSON.
func scanSpec(b []byte) (Spec, bool) {
	var sp Spec
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return sp, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return sp, skipSpace(b, i+1) == len(b)
	}
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return sp, false
		}
		j = skipSpace(b, j)
		if j == len(b) || b[j] != ':' {
			return sp, false
		}
		j = skipSpace(b, j+1)
		switch string(key) {
		case "app":
			sp.App, i, ok = scanName(b, j)
		case "policy":
			sp.Policy, i, ok = scanName(b, j)
		case "prim":
			sp.Prim, i, ok = scanName(b, j)
		case "cas":
			sp.Variant, i, ok = scanName(b, j)
		case "ldex":
			sp.LoadEx, i, ok = scanBool(b, j)
		case "drop":
			sp.Drop, i, ok = scanBool(b, j)
		case "procs":
			sp.Procs, i, ok = scanInt(b, j)
		case "c":
			sp.Contention, i, ok = scanInt(b, j)
		case "a":
			sp.WriteRun, i, ok = scanFloat(b, j)
		case "rounds":
			sp.Rounds, i, ok = scanInt(b, j)
		case "size":
			sp.Size, i, ok = scanInt(b, j)
		case "seed":
			sp.Seed, i, ok = scanUint(b, j)
		default:
			return sp, false
		}
		if !ok {
			return sp, false
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return sp, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return sp, skipSpace(b, i+1) == len(b)
		default:
			return sp, false
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i (JSON whitespace: space, tab, newline, carriage return).
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString returns the contents of the string starting at b[i] and the
// index just past its closing quote. It reports false for a string with
// escapes, control bytes or invalid UTF-8, whose decoded value would
// differ from its bytes.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s := b[i+1 : j]
			return s, j + 1, ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, i, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, i, false
}

// scanName scans a string value, returning one of the constant wire enum
// names when it spells one, so a well-formed spec decodes without
// allocating.
func scanName(b []byte, i int) (string, int, bool) {
	s, i, ok := scanString(b, i)
	if !ok {
		return "", i, false
	}
	if n, ok := exper.WireName(s); ok {
		return n, i, true
	}
	return string(s), i, true
}

// scanBool scans a true or false literal.
func scanBool(b []byte, i int) (bool, int, bool) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, i, false
}

// scanNumber returns the JSON number starting at b[i], the index just
// past it, and whether it is an integer (no fraction or exponent). It
// reports false when b[i:] does not start with a number.
func scanNumber(b []byte, i int) (num []byte, end int, integer, ok bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		j = skipDigits(b, j)
	default:
		return nil, i, false, false
	}
	integer = true
	if j < len(b) && b[j] == '.' {
		k := skipDigits(b, j+1)
		if k == j+1 {
			return nil, i, false, false
		}
		j, integer = k, false
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := skipDigits(b, j)
		if k == j {
			return nil, i, false, false
		}
		j, integer = k, false
	}
	return b[i:j], j, integer, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// scanInt scans an integer that fits an int. encoding/json refuses a
// fraction or an exponent in an integer field, so those report false.
func scanInt(b []byte, i int) (int, int, bool) {
	num, end, integer, ok := scanNumber(b, i)
	if !ok || !integer {
		return 0, i, false
	}
	n, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	return int(n), end, err == nil
}

// scanUint scans a non-negative integer that fits a uint64.
func scanUint(b []byte, i int) (uint64, int, bool) {
	num, end, integer, ok := scanNumber(b, i)
	if !ok || !integer {
		return 0, i, false
	}
	n, err := strconv.ParseUint(string(num), 10, 64)
	return n, end, err == nil
}

// scanFloat scans any JSON number that fits a float64, converted as
// encoding/json converts it.
func scanFloat(b []byte, i int) (float64, int, bool) {
	num, end, _, ok := scanNumber(b, i)
	if !ok {
		return 0, i, false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, end, err == nil
}
