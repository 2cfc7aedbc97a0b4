package scale_test

import (
	"fmt"

	"prodigy/internal/mat"
	"prodigy/internal/scale"
)

func ExampleMinMax() {
	train := mat.FromRows([][]float64{{0, 100}, {10, 200}})
	s := scale.NewMinMax()
	scaled := scale.FitTransform(s, train)
	fmt.Println(scaled.Row(0), scaled.Row(1))

	// Unseen data extrapolates beyond [0, 1] — how anomalies stay visible.
	test := mat.FromRows([][]float64{{20, 150}})
	fmt.Println(s.TransformInto(&mat.Matrix{}, test).Row(0))
	// Output:
	// [0 0] [1 1]
	// [2 0.5]
}
