// Package scale provides feature scalers with persistence, mirroring the
// Scaler module of the paper's DataPipeline (§4.2.1): fit on training data,
// transform train and test consistently, and serialize alongside the model
// so production inference reproduces the exact training-time transform.
package scale

import (
	"encoding/json"
	"fmt"
	"sort"

	"prodigy/internal/mat"
)

// Scaler fits column-wise statistics on a training matrix and applies the
// same transform to any matrix with matching width.
type Scaler interface {
	// Fit learns the per-column statistics from x.
	Fit(x *mat.Matrix)
	// TransformInto writes the scaled x into dst (reshaped as needed) and
	// returns dst; dst may alias x. Pass &mat.Matrix{} for a fresh copy.
	// It panics if called before Fit or if x has a different number of
	// columns than the fitted data.
	TransformInto(dst, x *mat.Matrix) *mat.Matrix
	// Kind returns the scaler's registered name ("minmax", "standard", "robust").
	Kind() string
}

// FitTransform fits s on x and returns the transformed copy.
func FitTransform(s Scaler, x *mat.Matrix) *mat.Matrix {
	s.Fit(x)
	return s.TransformInto(&mat.Matrix{}, x)
}

// MinMax scales each column to [0, 1] over the fitted range. Constant
// columns map to 0. This is the scaler the paper uses for Prodigy.
type MinMax struct {
	Mins   []float64 `json:"mins"`
	Ranges []float64 `json:"ranges"` // max - min; 0 for constant columns
}

// NewMinMax returns an unfitted MinMax scaler.
func NewMinMax() *MinMax { return &MinMax{} }

// Fit implements Scaler. One column buffer is reused across all columns.
func (s *MinMax) Fit(x *mat.Matrix) {
	s.Mins = make([]float64, x.Cols)
	s.Ranges = make([]float64, x.Cols)
	if x.Rows == 0 {
		return
	}
	col := make([]float64, x.Rows)
	for j := 0; j < x.Cols; j++ {
		x.ColInto(col, j)
		lo, hi := mat.Min(col), mat.Max(col)
		s.Mins[j] = lo
		s.Ranges[j] = hi - lo
	}
}

// TransformInto implements Scaler. Values outside the fitted range
// extrapolate beyond [0, 1]; anomaly detectors rely on that to see
// out-of-distribution magnitudes.
func (s *MinMax) TransformInto(dst, x *mat.Matrix) *mat.Matrix {
	s.check(x)
	out := mat.CopyInto(dst, x)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			if s.Ranges[j] > 0 {
				row[j] = (row[j] - s.Mins[j]) / s.Ranges[j]
			} else {
				row[j] = 0
			}
		}
	}
	return out
}

// Kind implements Scaler.
func (s *MinMax) Kind() string { return "minmax" }

func (s *MinMax) check(x *mat.Matrix) {
	if s.Mins == nil {
		panic("scale: TransformInto before Fit")
	}
	if x.Cols != len(s.Mins) {
		panic(fmt.Sprintf("scale: fitted on %d columns, got %d", len(s.Mins), x.Cols))
	}
}

// Standard scales each column to zero mean and unit variance. Constant
// columns map to 0.
type Standard struct {
	Means []float64 `json:"means"`
	Stds  []float64 `json:"stds"`
}

// NewStandard returns an unfitted Standard scaler.
func NewStandard() *Standard { return &Standard{} }

// Fit implements Scaler. One column buffer is reused across all columns.
func (s *Standard) Fit(x *mat.Matrix) {
	s.Means = make([]float64, x.Cols)
	s.Stds = make([]float64, x.Cols)
	if x.Rows == 0 {
		return
	}
	col := make([]float64, x.Rows)
	for j := 0; j < x.Cols; j++ {
		x.ColInto(col, j)
		s.Means[j] = mat.Mean(col)
		s.Stds[j] = mat.Std(col)
	}
}

// TransformInto implements Scaler.
func (s *Standard) TransformInto(dst, x *mat.Matrix) *mat.Matrix {
	if s.Means == nil {
		panic("scale: TransformInto before Fit")
	}
	if x.Cols != len(s.Means) {
		panic(fmt.Sprintf("scale: fitted on %d columns, got %d", len(s.Means), x.Cols))
	}
	out := mat.CopyInto(dst, x)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			if s.Stds[j] > 0 {
				row[j] = (row[j] - s.Means[j]) / s.Stds[j]
			} else {
				row[j] = 0
			}
		}
	}
	return out
}

// Kind implements Scaler.
func (s *Standard) Kind() string { return "standard" }

// Robust scales each column by subtracting the median and dividing by the
// interquartile range, resisting the heavy-tailed metrics HPC telemetry
// produces. Constant-IQR columns map to 0.
type Robust struct {
	Medians []float64 `json:"medians"`
	IQRs    []float64 `json:"iqrs"`
}

// NewRobust returns an unfitted Robust scaler.
func NewRobust() *Robust { return &Robust{} }

// Fit implements Scaler. Each column is copied into a reused buffer and
// sorted once; the median and both quartiles then read the sorted data
// directly instead of re-sorting per percentile.
func (s *Robust) Fit(x *mat.Matrix) {
	s.Medians = make([]float64, x.Cols)
	s.IQRs = make([]float64, x.Cols)
	if x.Rows == 0 {
		return
	}
	col := make([]float64, x.Rows)
	for j := 0; j < x.Cols; j++ {
		x.ColInto(col, j)
		sort.Float64s(col)
		s.Medians[j] = mat.MedianSorted(col)
		s.IQRs[j] = mat.PercentileSorted(col, 75) - mat.PercentileSorted(col, 25)
	}
}

// TransformInto implements Scaler.
func (s *Robust) TransformInto(dst, x *mat.Matrix) *mat.Matrix {
	if s.Medians == nil {
		panic("scale: TransformInto before Fit")
	}
	if x.Cols != len(s.Medians) {
		panic(fmt.Sprintf("scale: fitted on %d columns, got %d", len(s.Medians), x.Cols))
	}
	out := mat.CopyInto(dst, x)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			if s.IQRs[j] > 0 {
				row[j] = (row[j] - s.Medians[j]) / s.IQRs[j]
			} else {
				row[j] = 0
			}
		}
	}
	return out
}

// Kind implements Scaler.
func (s *Robust) Kind() string { return "robust" }

// persisted is the on-disk envelope: the kind tag selects the concrete type.
type persisted struct {
	Kind  string          `json:"kind"`
	State json.RawMessage `json:"state"`
}

// Marshal serializes any registered scaler to JSON.
func Marshal(s Scaler) ([]byte, error) {
	state, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	return json.Marshal(persisted{Kind: s.Kind(), State: state})
}

// Unmarshal restores a scaler serialized by Marshal.
func Unmarshal(data []byte) (Scaler, error) {
	var p persisted
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	var s Scaler
	switch p.Kind {
	case "minmax":
		s = &MinMax{}
	case "standard":
		s = &Standard{}
	case "robust":
		s = &Robust{}
	default:
		return nil, fmt.Errorf("scale: unknown scaler kind %q", p.Kind)
	}
	if err := json.Unmarshal(p.State, s); err != nil {
		return nil, err
	}
	return s, nil
}

// New returns an unfitted scaler of the given kind, or an error for an
// unknown kind.
func New(kind string) (Scaler, error) {
	switch kind {
	case "minmax":
		return NewMinMax(), nil
	case "standard":
		return NewStandard(), nil
	case "robust":
		return NewRobust(), nil
	}
	return nil, fmt.Errorf("scale: unknown scaler kind %q", kind)
}
