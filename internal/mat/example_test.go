package mat_test

import (
	"fmt"

	"prodigy/internal/mat"
)

func ExampleMatMulBiasInto() {
	a := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	b := mat.FromRows([][]float64{{5, 6}, {7, 8}})
	c := mat.MatMulBiasInto(&mat.Matrix{}, a, b, []float64{0, 0})
	fmt.Println(c.Row(0), c.Row(1))
	// Output: [19 22] [43 50]
}

func ExamplePercentile() {
	scores := []float64{0.01, 0.02, 0.02, 0.03, 0.5}
	fmt.Printf("%.3f\n", mat.Percentile(scores, 99))
	// Output: 0.481
}
