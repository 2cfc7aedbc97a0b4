package nn

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"prodigy/internal/mat"
)

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer
}

// NewMLP builds a multilayer perceptron with the given layer widths and an
// activation (by name) after every hidden layer. The output layer is linear
// unless outActivation is non-empty.
func NewMLP(widths []int, hiddenAct, outActivation string, rng *rand.Rand) (*Network, error) {
	if len(widths) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least input and output widths, got %v", widths)
	}
	n := &Network{}
	for i := 0; i < len(widths)-1; i++ {
		n.Layers = append(n.Layers, NewDense(widths[i], widths[i+1], rng))
		last := i == len(widths)-2
		actName := hiddenAct
		if last {
			actName = outActivation
		}
		if actName != "" {
			act, err := ActivationByName(actName)
			if err != nil {
				return nil, err
			}
			n.Layers = append(n.Layers, act)
		}
	}
	return n, nil
}

// ForwardInto runs the batch x through every layer, caching activations
// for BackwardInto, with all activations drawn from the caller-owned
// workspace: a steady-state training step allocates nothing once ws is
// warm. Cached activations are workspace property — run BackwardInto
// before resetting ws. Use only from the (single-goroutine) training loop;
// concurrent scoring goes through InferInto.
func (n *Network) ForwardInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	for _, l := range n.Layers {
		x = l.ForwardInto(x, ws)
	}
	return x
}

// InferInto runs the batch x through every layer without touching layer
// state: activations thread through locals, nothing is cached, and no
// BackwardInto is possible afterwards. Every activation comes from ws,
// intermediate buffers are recycled layer by layer, and the returned
// matrix belongs to ws (valid until Reset/Release). Safe for any number of
// concurrent callers sharing this network, each holding its own workspace,
// provided no goroutine is training it at the same time.
func (n *Network) InferInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	cur := x
	for _, l := range n.Layers {
		next := l.ApplyInto(cur, ws)
		if cur != x {
			ws.Put(cur)
		}
		cur = next
	}
	return cur
}

// BackwardInto propagates the loss gradient through every layer in
// reverse, accumulating parameter gradients in place, and returns the
// gradient with respect to the network input. Intermediate gradients are
// drawn from ws and recycled layer by layer.
func (n *Network) BackwardInto(grad *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	first := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		next := n.Layers[i].BackwardInto(grad, ws)
		if grad != first {
			ws.Put(grad)
		}
		grad = next
	}
	return grad
}

// BackwardParamsInto is BackwardInto for callers that never consume the
// input gradient (the network input is data, not an upstream activation):
// it accumulates every parameter gradient but skips the dx product of the
// innermost parametric layer — the single largest matrix multiply of a
// full backward pass — and computes nothing below it.
func (n *Network) BackwardParamsInto(grad *mat.Matrix, ws *mat.Workspace) {
	stop := 0
	for i, l := range n.Layers {
		if len(l.Params()) > 0 {
			stop = i
			break
		}
	}
	first := grad
	for i := len(n.Layers) - 1; i >= stop; i-- {
		if i == stop {
			if d, ok := n.Layers[i].(*Dense); ok {
				d.BackwardParamsOnly(grad)
				if grad != first {
					ws.Put(grad)
				}
				return
			}
		}
		next := n.Layers[i].BackwardInto(grad, ws)
		if grad != first {
			ws.Put(grad)
		}
		grad = next
	}
	if grad != first {
		ws.Put(grad)
	}
}

// BackwardInputInto propagates grad through the network treating every
// parameter as frozen: it returns d(loss)/d(input) without touching any
// parameter gradient. Dense layers need no cached input on this path;
// activations still read their cached forward output, so call it after a
// ForwardInto through the same network instance.
func (n *Network) BackwardInputInto(grad *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	first := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		var next *mat.Matrix
		if d, ok := n.Layers[i].(*Dense); ok {
			next = d.BackwardInputInto(grad, ws)
		} else {
			next = n.Layers[i].BackwardInto(grad, ws)
		}
		if grad != first {
			ws.Put(grad)
		}
		grad = next
	}
	return grad
}

// TrainReplica returns a training replica for data-parallel SGD
// (DESIGN.md §11): Dense layers share the root's parameter Values — a
// root optimizer step is immediately visible to every replica — but own
// fresh Grad matrices and private activation caches, so concurrent
// forward/backward passes through different replicas never race. Replica
// gradient matrices are scratch: the sharded train loop repoints them at
// per-shard accumulators and reduces those into the root's Grad before
// each optimizer step.
func (n *Network) TrainReplica() *Network {
	out := &Network{}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			out.Layers = append(out.Layers, &Dense{
				W: &Param{Name: v.W.Name, Value: v.W.Value, Grad: mat.New(v.W.Grad.Rows, v.W.Grad.Cols)},
				B: &Param{Name: v.B.Name, Value: v.B.Value, Grad: mat.New(v.B.Grad.Rows, v.B.Grad.Cols)},
			})
		case *Activation:
			act, err := ActivationByName(v.Name)
			if err != nil {
				panic(err) // activations constructed by this package always round-trip
			}
			out.Layers = append(out.Layers, act)
		default:
			panic(fmt.Sprintf("nn: cannot replicate layer of type %T", l))
		}
	}
	return out
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Value.Data)
	}
	return total
}

// layerSpec is the serialized form of one layer.
type layerSpec struct {
	Kind string    `json:"kind"` // "dense" or "activation"
	Name string    `json:"name,omitempty"`
	In   int       `json:"in,omitempty"`
	Out  int       `json:"out,omitempty"`
	W    []float64 `json:"w,omitempty"`
	B    []float64 `json:"b,omitempty"`
}

// netSpec is the serialized form of a network.
type netSpec struct {
	Layers []layerSpec `json:"layers"`
}

// MarshalJSON serializes the network architecture and weights.
func (n *Network) MarshalJSON() ([]byte, error) {
	spec := netSpec{}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			spec.Layers = append(spec.Layers, layerSpec{
				Kind: "dense", In: v.In(), Out: v.Out(),
				W: v.W.Value.Data, B: v.B.Value.Data,
			})
		case *Activation:
			spec.Layers = append(spec.Layers, layerSpec{Kind: "activation", Name: v.Name})
		default:
			return nil, fmt.Errorf("nn: cannot serialize layer of type %T", l)
		}
	}
	return json.Marshal(spec)
}

// UnmarshalJSON restores a network serialized by MarshalJSON.
func (n *Network) UnmarshalJSON(data []byte) error {
	var spec netSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	n.Layers = nil
	width := 0 // output width of the last dense layer; activations keep it
	for i, ls := range spec.Layers {
		switch ls.Kind {
		case "dense":
			if ls.In <= 0 || ls.Out <= 0 {
				return fmt.Errorf("nn: dense layer %d has shape %dx%d", i, ls.In, ls.Out)
			}
			if width != 0 && ls.In != width {
				return fmt.Errorf("nn: dense layer %d takes %d inputs, previous dense layer gives %d", i, ls.In, width)
			}
			width = ls.Out
			if len(ls.W) != ls.In*ls.Out {
				return fmt.Errorf("nn: dense layer has %d weights for %dx%d", len(ls.W), ls.In, ls.Out)
			}
			if len(ls.B) != ls.Out {
				return fmt.Errorf("nn: dense layer has %d biases for out=%d", len(ls.B), ls.Out)
			}
			d := &Dense{
				W: &Param{Value: mat.NewFromData(ls.In, ls.Out, ls.W), Grad: mat.New(ls.In, ls.Out)},
				B: &Param{Value: mat.NewFromData(1, ls.Out, ls.B), Grad: mat.New(1, ls.Out)},
			}
			n.Layers = append(n.Layers, d)
		case "activation":
			act, err := ActivationByName(ls.Name)
			if err != nil {
				return err
			}
			n.Layers = append(n.Layers, act)
		default:
			return fmt.Errorf("nn: unknown layer kind %q", ls.Kind)
		}
	}
	return nil
}

// Clone returns a deep copy of the network (weights copied, gradients fresh).
func (n *Network) Clone() *Network {
	out := &Network{}
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Dense:
			out.Layers = append(out.Layers, &Dense{
				W: &Param{Name: v.W.Name, Value: v.W.Value.Clone(), Grad: mat.New(v.W.Grad.Rows, v.W.Grad.Cols)},
				B: &Param{Name: v.B.Name, Value: v.B.Value.Clone(), Grad: mat.New(v.B.Grad.Rows, v.B.Grad.Cols)},
			})
		case *Activation:
			act, err := ActivationByName(v.Name)
			if err != nil {
				panic(err) // activations constructed by this package always round-trip
			}
			out.Layers = append(out.Layers, act)
		default:
			panic(fmt.Sprintf("nn: cannot clone layer of type %T", l))
		}
	}
	return out
}
