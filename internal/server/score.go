package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"prodigy/internal/mat"
	"prodigy/internal/serve"
)

// Request-body limits for /api/score: enough for a full node-day of
// feature vectors, small enough that a hostile client cannot balloon the
// decoder. Vectors beyond the cap are rejected, not truncated.
const (
	maxScoreVectors   = 4096
	maxScoreBodyBytes = 8 << 20
)

// scoreResult is one vector's verdict.
type scoreResult struct {
	Score     float64 `json:"score"`
	Anomalous bool    `json:"anomalous"`
}

// bodyPool recycles request-body buffers across /api/score requests. The
// decoded rows never alias the buffer, so it is returned as soon as the
// body is parsed; a buffer grown past the body cap is dropped instead of
// pinning that much memory in the pool.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeScoreRequest reads and parses a score request body into the
// columns one deployed model reads. It is the server's untrusted-input
// surface, deliberately split from the handler so the fuzz target drives
// exactly what the network delivers. The accepted grammar is exactly
//
//	ws '{' ws '"vectors"' ws ':' ws '[' ws row (ws ',' ws row)* ws ']' ws '}' ws EOF
//	row = '[' ws number (ws ',' ws number)* ws ']'
//
// with JSON's number and whitespace grammar: one case-sensitive unescaped
// key, no other or repeated field, no null, no trailing data. The batch
// must hold 1 to maxScoreVectors vectors, each exactly len(cols) wide.
//
// cols is a snapshot's column map (core.Snapshot.Columns): full column j
// lands at position cols[j] of a selected row, or nowhere when cols[j] is
// -1, and selected is the selected width. Every token is grammar-checked
// and range-checked, selected or not, so a body is accepted or rejected
// the same under any map of its width; only selected tokens are
// converted, each to exactly what encoding/json would decode, bit for
// bit. The rows come back as one rows × selected matrix.
//
// The matrix is freshly allocated and owned by the caller: a request
// whose context ends may leave it queued in the serving tier, which
// still reads it at flush.
func decodeScoreRequest(r io.Reader, cols []int, selected int) (*mat.Matrix, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxScoreBodyBytes+bytes.MinRead {
			buf.Reset()
			bodyPool.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	return parseScoreBody(buf.Bytes(), cols, selected)
}

// scoreScanner walks a score request body once, left to right.
type scoreScanner struct {
	b []byte
	i int
}

func (s *scoreScanner) skipWS() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next skips whitespace and returns the next byte without consuming it
// (0 at end of input).
func (s *scoreScanner) next() byte {
	s.skipWS()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// expect consumes c after optional whitespace.
func (s *scoreScanner) expect(c byte) error {
	if s.next() != c {
		return s.errorf("want %q", c)
	}
	s.i++
	return nil
}

func (s *scoreScanner) errorf(format string, args ...any) error {
	at := "end of input"
	if s.i < len(s.b) {
		at = fmt.Sprintf("%q at offset %d", s.b[s.i], s.i)
	}
	return fmt.Errorf("invalid JSON: "+format+", found "+at, args...)
}

// row0Pool recycles the staging slice row 0 is parsed into. Its byte
// span, known only once every one of its tokens has parsed, sizes the
// flat array; row 0 is then copied in. A slice grown past the body cap
// is dropped rather than pinned.
var row0Pool = sync.Pool{New: func() any { return new([]float64) }}

// parseScoreBody parses a whole body (see decodeScoreRequest). Row 0 is
// staged first, so the one allocation of the flat array rests on
// numbers that parsed: remaining bytes over row 0's span estimate the
// row count. Later rows grow the array only if their text is denser than
// row 0's.
func parseScoreBody(b []byte, cols []int, selected int) (*mat.Matrix, error) {
	s := scoreScanner{b: b}
	if err := s.expect('{'); err != nil {
		return nil, err
	}
	const key = `"vectors"`
	if s.next() != '"' {
		return nil, s.errorf(`want field "vectors"`)
	}
	if !bytes.HasPrefix(b[s.i:], []byte(key)) {
		return nil, errUnknownField
	}
	s.i += len(key)
	if err := s.expect(':'); err != nil {
		return nil, err
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	if s.next() == ']' {
		return nil, errors.New("vectors must contain at least one vector")
	}

	stage := row0Pool.Get().(*[]float64)
	defer func() {
		if cap(*stage)*8 <= maxScoreBodyBytes {
			row0Pool.Put(stage)
		}
	}()
	if cap(*stage) < selected {
		*stage = make([]float64, selected)
	}
	row0 := s.i
	if err := s.row((*stage)[:selected], cols, 0); err != nil {
		return nil, err
	}
	rows := min(1+(len(b)-s.i)/(s.i-row0+1), maxScoreVectors)
	flat := append(make([]float64, 0, rows*selected), (*stage)[:selected]...)

	for rows = 1; s.next() == ','; rows++ {
		s.i++
		if rows == maxScoreVectors {
			return nil, fmt.Errorf("too many vectors: more than %d", maxScoreVectors)
		}
		n := len(flat)
		flat = slices.Grow(flat, selected)[:n+selected]
		if err := s.row(flat[n:], cols, rows); err != nil {
			return nil, err
		}
	}
	if err := s.expect(']'); err != nil {
		return nil, err
	}
	if s.next() == ',' {
		return nil, errUnknownField
	}
	if err := s.expect('}'); err != nil {
		return nil, err
	}
	if s.skipWS(); s.i != len(b) {
		return nil, errors.New("trailing data after request object")
	}
	return mat.NewFromData(rows, selected, flat), nil
}

// row parses vector idx at s.i, '[' ws number (ws ',' ws number)* ws ']'
// or an empty '[' ws ']', which must hold exactly len(cols) numbers.
// Number j is converted and stored at dst[cols[j]] when cols[j] ≥ 0, and
// only grammar- and range-checked otherwise; dst is the row's slot at
// the selected width, which an accepted row fills completely.
func (s *scoreScanner) row(dst []float64, cols []int, idx int) error {
	if err := s.expect('['); err != nil {
		return err
	}
	n := 0
	if s.next() != ']' {
		for ; ; n++ {
			s.skipWS()
			k := -1
			if n < len(cols) {
				k = cols[n]
			}
			v, err := s.number(k >= 0)
			if err != nil {
				return fmt.Errorf("vector %d feature %d: %w", idx, n, err)
			}
			if k >= 0 {
				dst[k] = v
			}
			if s.next() != ',' {
				n++
				break
			}
			s.i++
		}
	}
	if err := s.expect(']'); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("vector %d is empty", idx)
	}
	if n != len(cols) {
		if idx == 0 {
			return fmt.Errorf("vectors have %d features, deployed model expects %d", n, len(cols))
		}
		return fmt.Errorf("vector %d has %d features, deployed model expects %d", idx, n, len(cols))
	}
	return nil
}

// Parse errors. A token that is not a JSON number, or one whose
// magnitude overflows float64, is rejected as encoding/json does.
var (
	errUnknownField = errors.New(`unknown field: the request object holds only "vectors"`)
	errNumberSyntax = errors.New("invalid number")
	errNumberRange  = errors.New("number out of float64 range")
)

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// number scans one JSON number at s.i, validating its grammar and its
// float64 range, and with convert set returns it bit-identically to
// strconv.ParseFloat(tok, 64) — the call encoding/json makes. Clinger's
// fast path answers tokens whose decimal mantissa m ≤ 2^53 and exponent
// |e| ≤ 22: both m and 10^|e| are exact float64s, so m*10^e or m/10^-e
// is a single correctly rounded IEEE operation, which is by definition
// ParseFloat's result. Every other token goes to ParseFloat itself.
//
// Without convert the value is not computed, only whether ParseFloat
// would accept the token. It would unless
// the value rounds past MaxFloat64 (underflow rounds to zero without an
// error), so the decimal magnitude of the leading nonzero digit decides:
// below 10^308 the token fits, from 10^309 on it overflows, and only a
// token in [10^308, 10^309) — MaxFloat64 is 1.797…e308 — still goes to
// ParseFloat.
func (s *scoreScanner) number(convert bool) (float64, error) {
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	// A converted token's digits accumulate into mant as they are
	// scanned; past 19 of them it may have wrapped, and the token goes to
	// ParseFloat instead. A skipped token's digits are only stepped over.
	var mant uint64
	intStart := i
	if convert {
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
	} else {
		i = skipDigits(b, i)
	}
	intEnd := i
	if n := intEnd - intStart; n == 0 || n > 1 && b[intStart] == '0' {
		return 0, errNumberSyntax
	}
	fracStart, fracEnd := i, i
	if i < len(b) && b[i] == '.' {
		i++
		fracStart = i
		if convert {
			for ; i < len(b) && isDigit(b[i]); i++ {
				mant = mant*10 + uint64(b[i]-'0')
			}
		} else {
			i = skipDigits(b, i)
		}
		if i == fracStart {
			return 0, errNumberSyntax
		}
		fracEnd = i
	}
	e := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return 0, errNumberSyntax
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1<<20 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
	}
	s.i = i
	if !convert {
		// lead is the decimal exponent of the leading nonzero digit.
		lead := intEnd - intStart - 1
		if b[intStart] == '0' {
			k := fracStart
			for k < fracEnd && b[k] == '0' {
				k++
			}
			if k == fracEnd {
				return 0, nil // a zero
			}
			lead = fracStart - k - 1
		}
		switch lead += e; {
		case lead < 308:
			return 0, nil
		case lead > 308:
			return 0, errNumberRange
		}
	} else if exp := e - (fracEnd - fracStart); intEnd-intStart+fracEnd-fracStart <= 19 &&
		mant <= 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if exp >= 0 {
			f *= exactPow10[exp]
		} else {
			f /= exactPow10[-exp]
		}
		if b[start] == '-' {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, errNumberRange
	}
	return f, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// skipDigits returns the offset of the first byte at or after i that is
// not an ASCII digit, testing eight bytes per step. A byte c is a digit
// iff its high nibble is 3 and that of c+6 is still 3. Adding 6 to every
// byte of a word at once carries only out of a non-digit byte, into the
// bytes after it, so the lowest flagged byte is the first non-digit.
func skipDigits(b []byte, i int) int {
	const (
		nibble = 0xF0F0F0F0F0F0F0F0
		three  = 0x3030303030303030
		six    = 0x0606060606060606
	)
	for ; i+8 <= len(b); i += 8 {
		x := binary.LittleEndian.Uint64(b[i:])
		if t := (x&nibble ^ three) | ((x+six)&nibble ^ three); t != 0 {
			return i + bits.TrailingZeros64(t)/8
		}
	}
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// handleScore scores a batch of raw feature vectors: POST {"vectors":
// [[...], ...]} returns per-vector scores and verdicts plus the threshold
// they were judged against. The body is exactly one object with the one
// case-sensitive field "vectors": 1 to 4096 arrays of JSON numbers, each
// as wide as the deployed model's feature count, whitespace where JSON
// allows it, nothing after the object (no null, no other or repeated
// field; see decodeScoreRequest). Anything else is a 400. The handler
// routes first, then decodes only the columns the tier's model snapshot
// reads, straight into rows of the selected width; the coalescing
// serving tier micro-batches them with their concurrent company into one
// pipeline batch scored by that same snapshot (results are
// bit-identical to solo scoring), and overload answers 429 with
// Retry-After instead of queueing without bound.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST a JSON body to /api/score")
		return
	}
	var route serve.Route
	if s.Tier != nil {
		route = s.Tier.Route()
	}
	snap := route.Snapshot()
	if snap == nil {
		writeError(w, r, http.StatusServiceUnavailable, "no trained model deployed")
		return
	}
	cols, selected := snap.Columns()
	if cols == nil {
		writeError(w, r, http.StatusInternalServerError,
			"the deployed model's feature selection does not fit its %d-wide feature space", snap.Width())
		return
	}
	x, err := decodeScoreRequest(http.MaxBytesReader(w, r.Body, maxScoreBodyBytes), cols, selected)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad score request: %v", err)
		return
	}
	res, err := route.Submit(r.Context(), x)
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrStopped):
			// Shed, not failed: the client should back off and retry.
			w.Header().Set("Retry-After", "1")
			writeError(w, r, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, serve.ErrBatchTooLarge):
			writeError(w, r, http.StatusBadRequest, "%v; split the batch", err)
		case r.Context().Err() != nil:
			// The client went away while the request waited.
			writeError(w, r, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, r, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	results := make([]scoreResult, len(res.Scores))
	for i := range res.Scores {
		results[i] = scoreResult{Score: res.Scores[i], Anomalous: res.Preds[i] == 1}
	}
	writeJSON(w, map[string]interface{}{
		"threshold": res.Threshold,
		"results":   results,
	})
}
