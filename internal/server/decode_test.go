package server

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestDecodeScoreRequestStrict pins the score wire grammar: every body
// below is a 400, including the ones encoding/json silently accepted — a
// null feature scored as 0.0, a trailing '}' or ']', a duplicate
// "vectors" key smuggling a second batch, and a case-folded key.
func TestDecodeScoreRequestStrict(t *testing.T) {
	tooMany := `{"vectors":[` + strings.TrimSuffix(strings.Repeat("[1],", maxScoreVectors+1), ",") + `]}`
	for _, body := range []string{
		`{"vectors":[[1,null]]}`,
		`{"vectors":[[null]]}`,
		`{"vectors":[[1]]}}`,
		`{"vectors":[[1]]}]`,
		`{"vectors":[[1]],"vectors":[[2,3]]}`,
		`{"VECTORS":[[1]]}`,
		`{"Vectors":[[1]]}`,
		`{"vect\u006frs":[[1]]}`,
		`{"vectors":[[1]],"extra":true}`,
		`{"extra":true,"vectors":[[1]]}`,
		`{"vectors":[[1]]}{"vectors":[[2]]}`,
		`{"vectors":[[1]]} x`,
		`{}`,
		`{"vectors":null}`,
		`{"vectors":[]}`,
		`{"vectors":[[]]}`,
		`{"vectors":[[1],[]]}`,
		`{"vectors":[[1],[1,2]]}`,
		`{"vectors":[[1,2],[1]]}`,
		`{"vectors":[[1e309]]}`,
		`{"vectors":[[-1e309]]}`,
		`{"vectors":[[01]]}`,
		`{"vectors":[[1.]]}`,
		`{"vectors":[[.5]]}`,
		`{"vectors":[[+1]]}`,
		`{"vectors":[[1e]]}`,
		`{"vectors":[[-]]}`,
		`{"vectors":[[NaN]]}`,
		`{"vectors":[["1"]]}`,
		`{"vectors":[[1,]]}`,
		`{"vectors":[[1]],}`,
		`{"vectors":[[1]]`,
		`{"vectors":`,
		`[[1]]`,
		``,
		tooMany,
	} {
		m := identityMap(row0Width([]byte(body)))
		if _, err := m.decode([]byte(body)); err == nil {
			t.Errorf("accepted %.60q", body)
		}
	}

	// Whitespace anywhere JSON allows it, every number form, signed zero
	// and a subnormal all decode to ParseFloat's bits.
	got, err := identityMap(4).decode([]byte(
		" \t\n{ \"vectors\" : [ [ -0 , 1.5e+2 , 2E-3 , 5e-324 ] ,\r\n[0,-1,1e22,9007199254740993] ] } \n"))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{
		{math.Copysign(0, -1), 150, 0.002, math.SmallestNonzeroFloat64},
		{0, -1, 1e22, 9007199254740992},
	}
	if d := sameBits(got, want); d != nil {
		t.Fatal(d)
	}
}

// TestDecodeScoreRequestWidth pins the width rule: every vector must be
// exactly as wide as the model's column map, and the error names the
// width the deployed model expects.
func TestDecodeScoreRequestWidth(t *testing.T) {
	m := sparseMap(3, 3, 1)
	for body, want := range map[string]string{
		`{"vectors":[[1,2]]}`:           "vectors have 2 features, deployed model expects 3",
		`{"vectors":[[1,2,3,4]]}`:       "vectors have 4 features, deployed model expects 3",
		`{"vectors":[[1,2,3],[1,2]]}`:   "vector 1 has 2 features, deployed model expects 3",
		`{"vectors":[[1,2,3],[1e309]]}`: "vector 1 feature 0: number out of float64 range",
		`{"vectors":[[1,2,3],[]]}`:      "vector 1 is empty",
	} {
		_, err := m.decode([]byte(body))
		if err == nil || err.Error() != want {
			t.Errorf("%s: err %v, want %q", body, err, want)
		}
	}
}

// TestDecodePrunedChecksUnselected pins the pruned decode's strictness:
// a token in a column the model does not read is never converted, but a
// malformed or out-of-range one still rejects the body, and one that
// ParseFloat would accept never does.
func TestDecodePrunedChecksUnselected(t *testing.T) {
	m := sparseMap(3, 3, 1) // reads column 0 only
	for _, tok := range []string{
		"1e309", "-1e309", "1.8e308", "99999999999999999999e289", "0.1e310",
		"null", "01", "1.", ".5", "+1", "1e", "-", "NaN", `"1"`, "true", "",
	} {
		body := `{"vectors":[[7,` + tok + `,9]]}`
		if _, err := m.decode([]byte(body)); err == nil {
			t.Errorf("pruned decode accepted %s", body)
		}
	}
	for _, tok := range []string{
		"1.7976931348623157e308", "-1.7976931348623157e308", "17976931348623157e292",
		"0.00001e313", "1e-400", "-0", "0e99999", "0.000e-99999", "123456789012345678901234567890",
	} {
		body := `{"vectors":[[7,` + tok + `,9]]}`
		got, err := m.decode([]byte(body))
		if err != nil {
			t.Errorf("pruned decode rejected %s: %v", body, err)
			continue
		}
		if len(got) != 1 || len(got[0]) != 1 || got[0][0] != 7 {
			t.Errorf("%s decoded to %v, want [[7]]", body, got)
		}
	}
}

// TestDecodeScoreRequestConcurrent decodes bodies of different widths
// under different column maps from several goroutines at once, sharing
// the pooled body buffers and row-0 staging slices; every result must
// match the encoding/json reference bit for bit.
func TestDecodeScoreRequestConcurrent(t *testing.T) {
	widths := []int{3, 17, 100, 1000}
	bodies := make([][]byte, len(widths))
	for i, w := range widths {
		rng := rand.New(rand.NewSource(int64(w)))
		var b bytes.Buffer
		b.WriteString(`{"vectors":[`)
		for r := 0; r < 4; r++ {
			if r > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('[')
			for j := 0; j < w; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatFloat(rng.NormFloat64()*1e3, 'g', -1, 64))
			}
			b.WriteByte(']')
		}
		b.WriteString(`]}`)
		bodies[i] = b.Bytes()
	}
	var wg sync.WaitGroup
	for i, body := range bodies {
		m := sparseMap(widths[i], 3, int64(i))
		want, err := referenceDecode(body)
		if err != nil {
			t.Fatal(err)
		}
		want = m.pick(want)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := m.decode(body)
				if err == nil {
					err = sameBits(got, want)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDecodeScoreRequestAllocs pins the decoder's allocation profile,
// under the identity map and under a sparse one: a constant number of
// allocations whatever the batch size (the flat array and the matrix
// header; the body buffer and row 0's staging slice are pooled and
// numbers are converted in place), bytes within ~1.05× the decoded
// floats, and no body-sized allocation for a body that fails in row 0.
func TestDecodeScoreRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	const width = 1000
	rng := rand.New(rand.NewSource(1))
	body := func(rows int) []byte {
		var b bytes.Buffer
		b.WriteString(`{"vectors":[`)
		for i := 0; i < rows; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('[')
			for j := 0; j < width; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64))
			}
			b.WriteByte(']')
		}
		b.WriteString(`]}`)
		return b.Bytes()
	}
	// Measure the steady state, where the body buffer and row 0's
	// staging slice are reused: with one P the goroutine cannot migrate
	// away from the pool slot it filled, and with the collector off two
	// collections in a row cannot empty the pools.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rd := bytes.NewReader(nil)
	bodies := [][]byte{body(1), body(8)}
	full := identityMap(width)
	for _, m := range []columnMap{full, sparseMap(width, 3, 1)} {
		selected := len(m.indices)
		decode := func(b []byte) {
			rd.Reset(b)
			if _, err := decodeScoreRequest(rd, m.cols, selected); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range bodies {
			rows := bytes.Count(b, []byte("[")) - 1
			decode(b) // warm the pools
			allocs := testing.AllocsPerRun(20, func() { decode(b) })

			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				decode(b)
			}
			runtime.ReadMemStats(&after)
			perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
			floats := float64(rows * selected * 8)
			t.Logf("%d rows × %d of %d: %.1f allocs, %.0f B (%.3f× the floats)",
				rows, selected, width, allocs, perRun, perRun/floats)
			if allocs > 2 {
				t.Errorf("%d rows × %d: %.1f allocs/decode, want ≤ 2", rows, selected, allocs)
			}
			if limit := 1.05*floats + 512; perRun > limit {
				t.Errorf("%d rows × %d: %.0f B/decode, want ≤ %.0f", rows, selected, perRun, limit)
			}
		}
	}

	// A row of a megabyte of bare commas fails at its first token, before
	// the flat array is sized: only the error is allocated, not an
	// estimate scaled by the body. (The parser is called directly; the
	// pooled body buffer is not part of the decode.)
	hostile := []byte(`{"vectors":[[` + strings.Repeat(",", 1<<20) + `]]}`)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := parseScoreBody(hostile, full.cols, width); err == nil {
			t.Fatal("accepted a row of bare commas")
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("bare-comma row (%d B body): %.0f B/decode", len(hostile), perRun)
	if perRun > 256 {
		t.Errorf("bare-comma row: %.0f B/decode, want ≤ 256", perRun)
	}
}

// BenchmarkDecodeScoreRequest decodes one full-width (5,200-column) score
// body with the scanner converting every column, with the scanner
// converting the 100 columns a TopK=100 model reads, and with the
// encoding/json reference the scanner replaced.
func BenchmarkDecodeScoreRequest(b *testing.B) {
	const width = 5200
	body := fullWidthBody(width)
	rd := bytes.NewReader(nil)
	for _, c := range []struct {
		name string
		m    columnMap
	}{{"scanner", identityMap(width)}, {"pruned", sparseMap(width, width/100, 1)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if _, err := decodeScoreRequest(rd, c.m.cols, len(c.m.indices)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := referenceDecode(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
