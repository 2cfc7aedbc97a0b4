// Package nn is a from-scratch dense neural network library: layers with
// reverse-mode gradients, losses, and SGD/Adam optimizers. It provides
// exactly what Prodigy's models need — small multilayer perceptrons over
// feature vectors — with batch-parallel matrix kernels from internal/mat.
//
// Every pass is destination-passing: outputs are drawn from a caller-owned
// mat.Workspace. Layers cache activations between ForwardInto and
// BackwardInto, so a single layer instance must not be shared across
// concurrent training loops. Inference through Layer.ApplyInto and
// Network.InferInto is stateless: it reads weights but never writes layer
// fields, so any number of goroutines, each with its own workspace, may
// score through one shared network as long as no goroutine is training it
// concurrently.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"prodigy/internal/mat"
)

// Param is one trainable tensor and its accumulated gradient.
type Param struct {
	Name  string
	Value *mat.Matrix
	Grad  *mat.Matrix
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	for i := range p.Grad.Data {
		p.Grad.Data[i] = 0
	}
}

// Layer is a differentiable module. ForwardInto consumes a batch (rows =
// samples) and BackwardInto consumes the gradient of the loss with respect
// to the layer's output, returning the gradient with respect to its input
// and accumulating parameter gradients. ApplyInto computes the same
// function as ForwardInto without caching anything on the layer: it must
// not write any layer field, so it is safe to call from many goroutines at
// once.
//
// Outputs are drawn from the caller-owned workspace ws, so steady-state
// loops reuse buffers instead of growing the heap. Returned matrices are
// valid until the caller resets or releases ws — they are workspace
// property, never to be retained past that (DESIGN.md §10).
// ForwardInto/BackwardInto cache activations and stay single-goroutine.
type Layer interface {
	ApplyInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix
	ForwardInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix
	BackwardInto(gradOut *mat.Matrix, ws *mat.Workspace) *mat.Matrix
	Params() []*Param
}

// Dense is a fully connected layer: out = x·W + b.
type Dense struct {
	W, B  *Param
	input *mat.Matrix // cached for BackwardInto
}

// NewDense creates a Dense layer with Glorot-uniform weights and zero
// biases, using rng for initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	limit := math.Sqrt(6.0 / float64(in+out))
	w := mat.New(in, out)
	for i := range w.Data {
		w.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return &Dense{
		W: &Param{Name: fmt.Sprintf("dense_%dx%d_w", in, out), Value: w, Grad: mat.New(in, out)},
		B: &Param{Name: fmt.Sprintf("dense_%dx%d_b", in, out), Value: mat.New(1, out), Grad: mat.New(1, out)},
	}
}

// In returns the input width of the layer.
func (d *Dense) In() int { return d.W.Value.Rows }

// Out returns the output width of the layer.
func (d *Dense) Out() int { return d.W.Value.Cols }

// ForwardInto implements Layer: the affine map, caching x for
// BackwardInto.
func (d *Dense) ForwardInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	d.input = x
	return d.ApplyInto(x, ws)
}

// ApplyInto implements Layer: out = x·W + b in one fused kernel, written
// into a workspace buffer, with no caching.
func (d *Dense) ApplyInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	out := ws.Get(x.Rows, d.Out())
	return mat.MatMulBiasInto(out, x, d.W.Value, d.B.Value.Data)
}

// BackwardInto implements Layer: dx = gradOut·Wᵀ drawn from ws, with no
// temporaries — parameter gradients accumulate in place.
func (d *Dense) BackwardInto(gradOut *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	d.backwardParams(gradOut)
	dx := ws.Get(gradOut.Rows, d.In())
	return mat.MatMulTInto(dx, gradOut, d.W.Value)
}

// BackwardParamsOnly accumulates parameter gradients without computing the
// input gradient. Network.BackwardParamsInto calls it on the innermost
// parametric layer, whose input gradient (with respect to the data) nobody
// consumes — skipping the largest dx matmul of the backward pass.
func (d *Dense) BackwardParamsOnly(gradOut *mat.Matrix) {
	d.backwardParams(gradOut)
}

// BackwardInputInto computes only the input gradient dx = gradOut·Wᵀ,
// leaving parameter gradients untouched — the frozen-layer backward used
// when gradients flow through this layer into an upstream model (USAD's
// adversarial phase). Unlike BackwardInto it needs no cached input, so it
// also composes with stateless forward passes.
func (d *Dense) BackwardInputInto(gradOut *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	dx := ws.Get(gradOut.Rows, d.In())
	return mat.MatMulTInto(dx, gradOut, d.W.Value)
}

// backwardParams accumulates dW = xᵀ·gradOut and db = column sums of
// gradOut directly into the parameter gradients.
func (d *Dense) backwardParams(gradOut *mat.Matrix) {
	if d.input == nil {
		panic("nn: Dense.BackwardInto before ForwardInto")
	}
	mat.TMatMulAccInto(d.W.Grad, d.input, gradOut)
	gradOut.SumRowsAccInto(d.B.Grad.Data)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Activation is an element-wise nonlinearity with its derivative expressed
// in terms of the cached forward output.
type Activation struct {
	Name string
	// F is the element-wise function.
	F func(float64) float64
	// DFromOut returns dF/dx given the forward *output* value F(x). For
	// sigmoid/tanh this avoids recomputing the function; for ReLU the output
	// carries enough sign information.
	DFromOut func(out float64) float64
	// bulk, when set, applies F over a whole slice. The built-in
	// activations provide it so the hot path calls math.Tanh (etc.)
	// directly instead of through the per-element F indirection — same
	// values, one call per batch instead of one per element.
	bulk func(dst, src []float64)
	// dbulk, when set, computes dst[i] = grad[i]·F′(out[i]) over whole
	// slices — the backward analogue of bulk, removing the per-element
	// DFromOut indirect call from the training hot path.
	dbulk  func(dst, grad, out []float64)
	output *mat.Matrix
}

// ForwardInto implements Layer: the element-wise map, caching its output.
// The cached activation is workspace property, so BackwardInto must run
// before the caller resets ws.
func (a *Activation) ForwardInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	a.output = a.ApplyInto(x, ws)
	return a.output
}

// ApplyInto implements Layer: the element-wise map into a workspace
// buffer, with no caching.
func (a *Activation) ApplyInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	out := ws.Get(x.Rows, x.Cols)
	if a.bulk != nil {
		a.bulk(out.Data, x.Data)
		return out
	}
	return x.ApplyInto(out, a.F)
}

// BackwardInto implements Layer: gradOut⊙F′ with the gradient drawn from
// ws.
func (a *Activation) BackwardInto(gradOut *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	if a.output == nil {
		panic("nn: Activation.BackwardInto before ForwardInto")
	}
	out := ws.Get(gradOut.Rows, gradOut.Cols)
	if a.dbulk != nil {
		a.dbulk(out.Data, gradOut.Data, a.output.Data)
		return out
	}
	for i, g := range gradOut.Data {
		out.Data[i] = g * a.DFromOut(a.output.Data[i])
	}
	return out
}

// Params implements Layer.
func (a *Activation) Params() []*Param { return nil }

// ReLU returns a rectified linear activation layer.
func ReLU() *Activation {
	return &Activation{
		Name: "relu",
		F: func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		},
		DFromOut: func(out float64) float64 {
			if out > 0 {
				return 1
			}
			return 0
		},
		bulk: func(dst, src []float64) {
			for i, v := range src {
				if v > 0 {
					dst[i] = v
				} else {
					dst[i] = 0
				}
			}
		},
		dbulk: func(dst, grad, out []float64) {
			for i, o := range out {
				if o > 0 {
					dst[i] = grad[i]
				} else {
					dst[i] = 0
				}
			}
		},
	}
}

// LeakyReLU returns a leaky rectified linear activation with slope alpha
// for negative inputs.
func LeakyReLU(alpha float64) *Activation {
	return &Activation{
		Name: "leaky_relu",
		F: func(x float64) float64 {
			if x > 0 {
				return x
			}
			return alpha * x
		},
		DFromOut: func(out float64) float64 {
			if out > 0 {
				return 1
			}
			return alpha
		},
		bulk: func(dst, src []float64) {
			for i, v := range src {
				if v > 0 {
					dst[i] = v
				} else {
					dst[i] = alpha * v
				}
			}
		},
		dbulk: func(dst, grad, out []float64) {
			for i, o := range out {
				if o > 0 {
					dst[i] = grad[i]
				} else {
					dst[i] = alpha * grad[i]
				}
			}
		},
	}
}

// Sigmoid returns a logistic activation layer.
func Sigmoid() *Activation {
	return &Activation{
		Name:     "sigmoid",
		F:        func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		DFromOut: func(out float64) float64 { return out * (1 - out) },
		bulk: func(dst, src []float64) {
			for i, v := range src {
				dst[i] = 1 / (1 + math.Exp(-v))
			}
		},
		dbulk: func(dst, grad, out []float64) {
			for i, o := range out {
				dst[i] = grad[i] * o * (1 - o)
			}
		},
	}
}

// Tanh returns a hyperbolic tangent activation layer.
func Tanh() *Activation {
	return &Activation{
		Name:     "tanh",
		F:        math.Tanh,
		DFromOut: func(out float64) float64 { return 1 - out*out },
		bulk: func(dst, src []float64) {
			for i, v := range src {
				dst[i] = math.Tanh(v)
			}
		},
		dbulk: func(dst, grad, out []float64) {
			for i, o := range out {
				dst[i] = grad[i] * (1 - o*o)
			}
		},
	}
}

// ActivationByName constructs an activation from its registered name,
// supporting model deserialization. Recognized: relu, leaky_relu, sigmoid,
// tanh.
func ActivationByName(name string) (*Activation, error) {
	switch name {
	case "relu":
		return ReLU(), nil
	case "leaky_relu":
		return LeakyReLU(0.01), nil
	case "sigmoid":
		return Sigmoid(), nil
	case "tanh":
		return Tanh(), nil
	}
	return nil, fmt.Errorf("nn: unknown activation %q", name)
}
