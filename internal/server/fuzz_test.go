package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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

// FuzzDecodeScoreRequest differentially tests the score wire decoder
// against the encoding/json reference:
//
//   - soundness: whatever the scanner accepts, the reference accepts too,
//     with bit-identical values, and the rows are full-slice views (an
//     append to one row cannot overwrite the next);
//   - completeness: whatever the reference accepts, the scanner accepts
//     in json.Marshal's canonical form, with the same bits.
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
	} {
		f.Add([]byte(seed))
	}
	f.Add(fullWidthBody(5200))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeScoreRequest(bytes.NewReader(body))
		ref, refErr := referenceDecode(body)
		if err == nil {
			if refErr != nil {
				t.Fatalf("accepted a body the reference rejects (%v)", refErr)
			}
			if d := sameBits(got, ref); d != nil {
				t.Fatalf("accepted body decodes differently from the reference: %v", d)
			}
			for i, v := range got {
				if cap(v) != len(v) {
					t.Fatalf("vector %d has cap %d > len %d", i, cap(v), len(v))
				}
			}
		}
		if refErr != nil {
			return
		}
		canon, merr := json.Marshal(referenceRequest{Vectors: ref})
		if merr != nil {
			t.Fatal(merr)
		}
		got, err = decodeScoreRequest(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("rejected canonical body %.200s: %v", canon, err)
		}
		if d := sameBits(got, ref); d != nil {
			t.Fatalf("canonical body decodes differently from the reference: %v", d)
		}
	})
}
