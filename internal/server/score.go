package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

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

// decodeScoreRequest reads and parses a score request body into row views
// over one flat backing array. It is the server's untrusted-input
// surface, deliberately split from the handler so the fuzz target drives
// exactly what the network delivers. The accepted grammar is exactly
//
//	ws '{' ws '"vectors"' ws ':' ws '[' ws row (ws ',' ws row)* ws ']' ws '}' ws EOF
//	row = '[' ws number (ws ',' ws number)* ws ']'
//
// with JSON's number and whitespace grammar: one case-sensitive unescaped
// key, no other or repeated field, no null, no trailing data. The batch
// must hold 1 to maxScoreVectors vectors of one non-zero width. Every
// value equals what encoding/json would decode, bit for bit.
//
// The rows are freshly allocated and owned by the caller: a request
// whose context ends may leave them queued in the serving tier, which
// still reads them at flush.
func decodeScoreRequest(r io.Reader) ([][]float64, error) {
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
	return parseScoreBody(buf.Bytes())
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

// row0Pool recycles the staging slice row 0 is parsed into. Its width
// and byte span, known only once every one of its tokens has parsed,
// size the flat array; row 0 is then copied in. A slice grown past the
// body cap is dropped rather than pinned.
var row0Pool = sync.Pool{New: func() any { return new([]float64) }}

// parseScoreBody parses a whole body (see decodeScoreRequest). Row 0 is
// staged first, so the one allocation of the flat array rests on
// numbers that parsed: remaining bytes over row 0's span estimate the
// row count. Later rows append only if their text is denser than row
// 0's.
func parseScoreBody(b []byte) ([][]float64, error) {
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
			*stage = (*stage)[:0]
			row0Pool.Put(stage)
		}
	}()
	row0 := s.i
	var err error
	if *stage, err = s.row((*stage)[:0], 0, 0); err != nil {
		return nil, err
	}
	width := len(*stage)
	if width == 0 {
		return nil, errors.New("vectors must not be empty")
	}
	rows := min(1+(len(b)-s.i)/(s.i-row0+1), maxScoreVectors)
	flat := append(make([]float64, 0, rows*width), *stage...)

	for rows = 1; s.next() == ','; rows++ {
		s.i++
		if rows == maxScoreVectors {
			return nil, fmt.Errorf("too many vectors: more than %d", maxScoreVectors)
		}
		n := len(flat)
		if flat, err = s.row(flat, rows, width); err != nil {
			return nil, err
		}
		if got := len(flat) - n; got != width {
			return nil, fmt.Errorf("vector %d has %d features, vector 0 has %d", rows, got, width)
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

	out := make([][]float64, rows)
	for i := range out {
		out[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return out, nil
}

// row parses vector idx at s.i, '[' ws number (ws ',' ws number)* ws ']'
// or an empty '[' ws ']', appending its values to flat. A limit > 0
// rejects the row at its first value past limit.
func (s *scoreScanner) row(flat []float64, idx, limit int) ([]float64, error) {
	if err := s.expect('['); err != nil {
		return flat, err
	}
	if s.next() != ']' {
		for n := 0; ; n++ {
			s.skipWS()
			v, err := s.number()
			if err != nil {
				return flat, fmt.Errorf("vector %d feature %d: %w", idx, n, err)
			}
			if n == limit && limit > 0 {
				return flat, fmt.Errorf("vector %d has more features than vector 0 (%d)", idx, limit)
			}
			flat = append(flat, v)
			if s.next() != ',' {
				break
			}
			s.i++
		}
	}
	return flat, s.expect(']')
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

// number scans one JSON number at s.i, validating its grammar, and
// converts it bit-identically to strconv.ParseFloat(tok, 64) — the call
// encoding/json makes. Clinger's fast path answers tokens whose decimal
// mantissa m ≤ 2^53 and exponent |e| ≤ 22: both m and 10^|e| are exact
// float64s, so m*10^e or m/10^-e is a single correctly rounded IEEE
// operation, which is by definition ParseFloat's result. Every other
// token goes to ParseFloat itself.
func (s *scoreScanner) number() (float64, error) {
	b, i := s.b, s.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// Digits accumulate into mant unconditionally; past 19 of them it may
	// have wrapped, and the token goes to ParseFloat instead.
	var mant uint64
	intStart := i
	for ; i < len(b) && isDigit(b[i]); i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	digits := i - intStart
	if digits == 0 || digits > 1 && b[intStart] == '0' {
		return 0, errNumberSyntax
	}
	exp := 0
	if i < len(b) && b[i] == '.' {
		i++
		fracStart := i
		for ; i < len(b) && isDigit(b[i]); i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if i == fracStart {
			return 0, errNumberSyntax
		}
		digits += i - fracStart
		exp = fracStart - i
	}
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
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e < 1<<20 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	s.i = i
	if digits <= 19 && mant <= 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if exp >= 0 {
			f *= exactPow10[exp]
		} else {
			f /= exactPow10[-exp]
		}
		if neg {
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

// handleScore scores a batch of raw feature vectors: POST {"vectors":
// [[...], ...]} returns per-vector scores and verdicts plus the threshold
// they were judged against. The body is exactly one object with the one
// case-sensitive field "vectors": 1 to 4096 equal-width arrays of JSON
// numbers, whitespace where JSON allows it, nothing after the object (no
// null, no other or repeated field; see decodeScoreRequest). Anything
// else, or a width other than the deployed model's feature count, is a
// 400. Every request routes through the coalescing
// serving tier — single-row requests are micro-batched with their
// concurrent company into one pipeline batch (results are bit-identical
// to solo scoring) — and overload answers 429 with Retry-After instead
// of queueing without bound.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, r, http.StatusMethodNotAllowed, "POST a JSON body to /api/score")
		return
	}
	if s.Tier == nil || s.Prodigy == nil || !s.Prodigy.Trained() {
		writeError(w, r, http.StatusServiceUnavailable, "no trained model deployed")
		return
	}
	vectors, err := decodeScoreRequest(http.MaxBytesReader(w, r.Body, maxScoreBodyBytes))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad score request: %v", err)
		return
	}
	want := len(s.Prodigy.FeatureNames())
	if got := len(vectors[0]); got != want {
		writeError(w, r, http.StatusBadRequest,
			"vectors have %d features, deployed model expects %d", got, want)
		return
	}
	res, err := s.Tier.ScoreBatch(r.Context(), vectors)
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
