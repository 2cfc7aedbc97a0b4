package nn

import (
	"prodigy/internal/mat"
)

// MSELoss is mean squared error, averaged over all elements: the
// reconstruction loss the VAE and USAD trainers minimize.
type MSELoss struct{}

// ComputeInto returns the mean loss over the batch and dLoss/dPred, with
// the gradient drawn from ws so a steady-state training loop allocates
// nothing per step.
func (MSELoss) ComputeInto(pred, target *mat.Matrix, ws *mat.Workspace) (float64, *mat.Matrix) {
	checkSameShape(pred, target)
	grad := ws.Get(pred.Rows, pred.Cols)
	n := float64(len(pred.Data))
	loss := 0.0
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

func checkSameShape(a, b *mat.Matrix) {
	if !a.SameShape(b) {
		panic("nn: loss shape mismatch")
	}
}

// RowMAE returns the per-row mean absolute error between pred and target —
// the per-sample reconstruction error Prodigy thresholds on (§3.3).
func RowMAE(pred, target *mat.Matrix) []float64 {
	checkSameShape(pred, target)
	out := make([]float64, pred.Rows)
	for i := 0; i < pred.Rows; i++ {
		out[i] = mat.MAE(pred.Row(i), target.Row(i))
	}
	return out
}

// RowMSE returns the per-row mean squared error between pred and target.
func RowMSE(pred, target *mat.Matrix) []float64 {
	checkSameShape(pred, target)
	out := make([]float64, pred.Rows)
	for i := 0; i < pred.Rows; i++ {
		out[i] = mat.MSE(pred.Row(i), target.Row(i))
	}
	return out
}
