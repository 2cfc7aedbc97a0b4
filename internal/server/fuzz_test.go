package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// referenceRequest and referenceDecode are the encoding/json decoder
// /api/score used before its single-pass scanner, kept as the oracle the
// scanner is differentially fuzzed against. It is laxer than the scanner
// (null as 0, folded key case, last duplicate key wins, a trailing '}' or
// ']' ignored), never stricter.
type referenceRequest struct {
	Vectors [][]float64 `json:"vectors"`
}

func referenceDecode(body []byte) ([][]float64, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req referenceRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data")
	}
	if len(req.Vectors) == 0 || len(req.Vectors) > maxScoreVectors {
		return nil, fmt.Errorf("%d vectors", len(req.Vectors))
	}
	width := len(req.Vectors[0])
	if width == 0 {
		return nil, errors.New("empty vectors")
	}
	for _, v := range req.Vectors {
		if len(v) != width {
			return nil, errors.New("ragged batch")
		}
	}
	return req.Vectors, nil
}

// sameBits reports the first difference between two batches, comparing
// values by their IEEE bits so -0 and 0 differ.
func sameBits(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d vectors, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("vector %d has %d features, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				return fmt.Errorf("vector %d feature %d = %v (%#x), want %v (%#x)",
					i, j, got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]))
			}
		}
	}
	return nil
}

// fullWidthBody is a one-vector body at the deployed extractor's full
// width, the shape the score workload posts.
func fullWidthBody(width int) []byte {
	var b strings.Builder
	b.WriteString(`{"vectors":[[`)
	for j := 0; j < width; j++ {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v", float64(j)*0.1234567890123-float64(width)/7)
	}
	b.WriteString(`]]}`)
	return []byte(b.String())
}

// columnMap is a decoder column map over width columns that selects
// indices, in that order.
type columnMap struct {
	indices []int
	cols    []int
}

// identityMap selects every column in place: the full decode.
func identityMap(width int) columnMap {
	m := columnMap{cols: make([]int, width)}
	for j := range m.cols {
		m.cols[j] = j
		m.indices = append(m.indices, j)
	}
	return m
}

// sparseMap selects every stride-th column (0, stride, 2·stride, ...)
// in a seeded order, as a Chi-square ranking would; with a stride of 3,
// columns 1 and 2 of any body are never selected.
func sparseMap(width, stride int, seed int64) columnMap {
	m := columnMap{cols: make([]int, width)}
	for j := range m.cols {
		m.cols[j] = -1
		if j%stride == 0 {
			m.indices = append(m.indices, j)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(m.indices), func(a, b int) { m.indices[a], m.indices[b] = m.indices[b], m.indices[a] })
	for k, j := range m.indices {
		m.cols[j] = k
	}
	return m
}

// decode runs the decoder under m and returns the rows it decoded.
func (m columnMap) decode(body []byte) ([][]float64, error) {
	x, err := decodeScoreRequest(bytes.NewReader(body), m.cols, len(m.indices))
	if err != nil {
		return nil, err
	}
	if x.Cols != len(m.indices) || len(x.Data) != x.Rows*x.Cols {
		return nil, fmt.Errorf("decoded a %d×%d matrix over %d values for %d selected columns",
			x.Rows, x.Cols, len(x.Data), len(m.indices))
	}
	out := make([][]float64, x.Rows)
	for i := range out {
		out[i] = x.Row(i)
	}
	return out, nil
}

// pick returns the selected columns of full-width rows, in map order.
func (m columnMap) pick(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, v := range rows {
		for _, j := range m.indices {
			out[i] = append(out[i], v[j])
		}
	}
	return out
}

// row0Width counts the comma-separated items of a body's first vector:
// the width a deployed model must expect for the body to parse. It
// returns 1 when no first vector is recognisable, so a rejected body
// still gets a map to be rejected under.
func row0Width(body []byte) int {
	open := bytes.IndexByte(body, '[')
	if open < 0 {
		return 1
	}
	row := bytes.IndexByte(body[open+1:], '[')
	if row < 0 {
		return 1
	}
	rest := body[open+1+row+1:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return bytes.Count(rest, []byte(",")) + 1
}

// FuzzDecodeScoreRequest differentially tests the score wire decoder
// against the encoding/json reference. Every body is decoded under the
// identity map (the full decode) and under a seeded sparse map of the
// same width, which converts only every third column, never columns 1
// and 2:
//
//   - agreement: the two decodes accept and reject exactly the same
//     bodies, since unselected tokens are grammar- and range-checked too;
//   - soundness: whatever the decoder accepts, the reference accepts too,
//     with bit-identical values in every selected column;
//   - completeness: whatever the reference accepts, the decoder accepts
//     in json.Marshal's canonical form under both maps, with the same
//     bits.
func FuzzDecodeScoreRequest(f *testing.F) {
	for _, seed := range []string{
		`{"vectors":[[1,2],[3,4]]}`,
		`{"vectors":[]}`,
		`{}`,
		`{"vectors":[[1],[2,3]]}`,
		`{"vectors":[[1]]}{"vectors":[[2]]}`,
		`{"vectors":[[1]],"extra":true}`,
		`{"vectors":[[]]}`,
		`not json`,
		`{"vectors":[[1e308,-1e308,0.5]]}`,
		// Bodies encoding/json accepts and the scanner rejects.
		`{"vectors":[[1,null]]}`,
		`{"vectors":[[1]]}}`,
		`{"vectors":[[1]]}]`,
		`{"vectors":[[1]],"vectors":[[2,3]]}`,
		`{"VECTORS":[[1]]}`,
		// The fast path's edges: 2^53 ± 1, 17–20 significant digits,
		// 10^22 (exact) and 10^23 (not), signed zero, subnormals, overflow.
		`{"vectors":[[9007199254740991,9007199254740992,9007199254740993,-9007199254740993]]}`,
		`{"vectors":[[0.12345678901234568,1.2345678901234567e-5,12345678901234567890,1234567890.1234567890]]}`,
		`{"vectors":[[1e22,1e23,-1e22,1E+22,0.1e23,10e21]]}`,
		`{"vectors":[[-0,-0.0,0e5,-0e-400]]}`,
		`{"vectors":[[5e-324,4.9406564584124654e-324,2.2250738585072011e-308,1e-400]]}`,
		`{"vectors":[[1e309]]}`,
		`{"vectors":[[-1e309]]}`,
		" \t\n{ \"vectors\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } \r\n",
		// Out-of-range, null and malformed tokens in a column the sparse
		// map does not select (column 1), and the range rule's edges there:
		// [10^308, 10^309) goes to ParseFloat, zeros of any exponent fit.
		`{"vectors":[[0.5,1e309,2]]}`,
		`{"vectors":[[0.5,-1e309,2]]}`,
		`{"vectors":[[0.5,null,2]]}`,
		`{"vectors":[[0.5,01,2]]}`,
		`{"vectors":[[0.5,1.e3,2]]}`,
		`{"vectors":[[0.5,1.8e308,2],[1,2,3]]}`,
		`{"vectors":[[0.5,1.7976931348623157e308,2],[1,-17976931348623157e292,3]]}`,
		`{"vectors":[[0.5,0.00001e313,2],[1,100000e303,3]]}`,
		`{"vectors":[[0.5,0.0e99999,2],[1,-1e-99999,3]]}`,
		`{"vectors":[[0.5,99999999999999999999e289,2]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(fullWidthBody(5200))
	f.Fuzz(func(t *testing.T, body []byte) {
		ref, refErr := referenceDecode(body)
		width := row0Width(body)
		if refErr == nil {
			width = len(ref[0])
		}
		full, sparse := identityMap(width), sparseMap(width, 3, int64(len(body)))
		got, err := full.decode(body)
		pruned, perr := sparse.decode(body)
		if (err == nil) != (perr == nil) {
			t.Fatalf("full decode err %v, pruned decode err %v", err, perr)
		}
		if err == nil {
			if refErr != nil {
				t.Fatalf("accepted a body the reference rejects (%v)", refErr)
			}
			if d := sameBits(got, ref); d != nil {
				t.Fatalf("accepted body decodes differently from the reference: %v", d)
			}
			if d := sameBits(pruned, sparse.pick(ref)); d != nil {
				t.Fatalf("accepted body's selected columns differ from the reference: %v", d)
			}
		}
		if refErr != nil {
			return
		}
		canon, merr := json.Marshal(referenceRequest{Vectors: ref})
		if merr != nil {
			t.Fatal(merr)
		}
		for _, m := range []columnMap{full, sparse} {
			got, err := m.decode(canon)
			if err != nil {
				t.Fatalf("rejected canonical body %.200s: %v", canon, err)
			}
			if d := sameBits(got, m.pick(ref)); d != nil {
				t.Fatalf("canonical body decodes differently from the reference: %v", d)
			}
		}
	})
}
