package nn

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"prodigy/internal/mat"
)

// Test shorthands over the workspace API. Each call draws its buffers from
// a fresh workspace that is never reset, so the returned matrices — and the
// activations ForwardInto caches for a following backward — stay valid for
// the rest of the test.
func forward(n *Network, x *mat.Matrix) *mat.Matrix  { return n.ForwardInto(x, mat.NewWorkspace()) }
func backward(n *Network, g *mat.Matrix) *mat.Matrix { return n.BackwardInto(g, mat.NewWorkspace()) }
func infer(n *Network, x *mat.Matrix) *mat.Matrix    { return n.InferInto(x, mat.NewWorkspace()) }

// mse is the training loss and its gradient, from a fresh workspace.
func mse(pred, target *mat.Matrix) (float64, *mat.Matrix) {
	return MSELoss{}.ComputeInto(pred, target, mat.NewWorkspace())
}

// zeroGrads clears every parameter gradient of n.
func zeroGrads(n *Network) {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// bce is binary cross-entropy over probabilities in (0, 1) and its
// gradient, the reference loss for a sigmoid-output network.
func bce(pred, target *mat.Matrix) (float64, *mat.Matrix) {
	grad := mat.New(pred.Rows, pred.Cols)
	n := float64(len(pred.Data))
	loss := 0.0
	for i, p := range pred.Data {
		t := target.Data[i]
		loss += -(t*math.Log(p) + (1-t)*math.Log(1-p))
		grad.Data[i] = (p - t) / (p * (1 - p)) / n
	}
	return loss / n, grad
}

// numericGradient estimates dLoss/dParam[i] by central differences.
func numericGradient(n *Network, x, y *mat.Matrix, loss func(pred, target *mat.Matrix) (float64, *mat.Matrix), p *Param, i int) float64 {
	const h = 1e-5
	orig := p.Value.Data[i]
	p.Value.Data[i] = orig + h
	lp, _ := loss(forward(n, x), y)
	p.Value.Data[i] = orig - h
	lm, _ := loss(forward(n, x), y)
	p.Value.Data[i] = orig
	return (lp - lm) / (2 * h)
}

// TestGradientCheck verifies analytic gradients against finite differences
// for an MLP with every supported activation, with a linear and a sigmoid
// output layer.
func TestGradientCheck(t *testing.T) {
	for _, act := range []string{"relu", "leaky_relu", "sigmoid", "tanh"} {
		for _, out := range []string{"", "sigmoid"} {
			rng := rand.New(rand.NewSource(42))
			net, err := NewMLP([]int{4, 6, 3}, act, out, rng)
			if err != nil {
				t.Fatal(err)
			}
			x := mat.Randn(5, 4, 1, rng)
			y := mat.Randn(5, 3, 1, rng)

			zeroGrads(net)
			_, grad := mse(forward(net, x), y)
			backward(net, grad)

			for _, p := range net.Params() {
				for _, i := range []int{0, len(p.Value.Data) / 2, len(p.Value.Data) - 1} {
					want := numericGradient(net, x, y, mse, p, i)
					got := p.Grad.Data[i]
					if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
						t.Fatalf("%s/%q %s[%d]: analytic %v vs numeric %v", act, out, p.Name, i, got, want)
					}
				}
			}
		}
	}
}

// TestBCEGradientCheck checks the backward pass of a sigmoid-output network
// on binary targets under cross-entropy, whose gradient grows steep as the
// output nears 0 or 1.
func TestBCEGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := NewMLP([]int{3, 5, 1}, "tanh", "sigmoid", rng)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Randn(6, 3, 1, rng)
	y := mat.New(6, 1)
	for i := 0; i < 6; i++ {
		y.Data[i*y.Cols] = float64(i % 2)
	}
	zeroGrads(net)
	_, grad := bce(forward(net, x), y)
	backward(net, grad)
	for _, p := range net.Params() {
		i := len(p.Value.Data) / 2
		want := numericGradient(net, x, y, bce, p, i)
		got := p.Grad.Data[i]
		if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
			t.Fatalf("BCE %s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
		}
	}
}

func TestMLPValidatesWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewMLP([]int{3}, "relu", "", rng); err == nil {
		t.Fatal("expected error for single width")
	}
	if _, err := NewMLP([]int{3, 2, 2}, "nosuch", "", rng); err == nil {
		t.Fatal("expected error for unknown hidden activation")
	}
	if _, err := NewMLP([]int{3, 2}, "", "nosuch", rng); err == nil {
		t.Fatal("expected error for unknown output activation")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net, _ := NewMLP([]int{5, 3, 5}, "sigmoid", "tanh", rng)
	x := mat.Randn(4, 5, 1, rng)
	want := forward(net, x)

	blob, err := json.Marshal(net)
	if err != nil {
		t.Fatal(err)
	}
	restored := &Network{}
	if err := json.Unmarshal(blob, restored); err != nil {
		t.Fatal(err)
	}
	got := forward(restored, x)
	if !mat.Equal(got, want, 1e-12) {
		t.Fatal("restored network gives different outputs")
	}
	if len(restored.Params()) != len(net.Params()) {
		t.Fatal("parameter count changed")
	}
}

// TestUnmarshalRejectsCorrupt covers broken layers and, from the last
// four blobs on, layers that are each consistent (len(w) = in·out,
// len(b) = out) but whose shapes are degenerate or do not chain: those
// must fail at load rather than panic inside the first InferInto.
func TestUnmarshalRejectsCorrupt(t *testing.T) {
	bad := []string{
		`{"layers":[{"kind":"dense","in":2,"out":2,"w":[1],"b":[0,0]}]}`,
		`{"layers":[{"kind":"dense","in":1,"out":2,"w":[1,2],"b":[0]}]}`,
		`{"layers":[{"kind":"activation","name":"nosuch"}]}`,
		`{"layers":[{"kind":"mystery"}]}`,
		`{"layers":[{"kind":"dense","in":2,"out":3,"w":[1,2,3,4,5,6],"b":[0,0,0]},
			{"kind":"activation","name":"tanh"},
			{"kind":"dense","in":4,"out":1,"w":[1,2,3,4],"b":[0]}]}`,
		`{"layers":[{"kind":"dense","in":0,"out":2,"b":[0,0]}]}`,
		`{"layers":[{"kind":"dense","in":2,"out":0}]}`,
		`{"layers":[{"kind":"dense","in":-1,"out":0}]}`,
	}
	for _, blob := range bad {
		n := &Network{}
		if err := json.Unmarshal([]byte(blob), n); err == nil {
			t.Fatalf("expected error for %s", blob)
		}
	}
}

func TestRowMAEAndRowMSE(t *testing.T) {
	pred := mat.FromRows([][]float64{{1, 2}, {0, 0}})
	target := mat.FromRows([][]float64{{2, 4}, {0, 0}})
	mae := RowMAE(pred, target)
	if mae[0] != 1.5 || mae[1] != 0 {
		t.Fatalf("RowMAE = %v", mae)
	}
	mse := RowMSE(pred, target)
	if mse[0] != 2.5 || mse[1] != 0 {
		t.Fatalf("RowMSE = %v", mse)
	}
}

func TestClipGradients(t *testing.T) {
	p := &Param{Value: mat.New(1, 2), Grad: mat.NewFromData(1, 2, []float64{3, 4})}
	norm := ClipGradients([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v", norm)
	}
	after := math.Hypot(p.Grad.Data[0], p.Grad.Data[1])
	if math.Abs(after-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v", after)
	}
	// Under the bound: untouched.
	p2 := &Param{Value: mat.New(1, 1), Grad: mat.NewFromData(1, 1, []float64{0.5})}
	ClipGradients([]*Param{p2}, 1)
	if p2.Grad.Data[0] != 0.5 {
		t.Fatal("clip must not rescale small gradients")
	}
}

func TestLossValues(t *testing.T) {
	pred := mat.FromRows([][]float64{{1, 2}})
	target := mat.FromRows([][]float64{{0, 4}})
	l, grad := mse(pred, target)
	if math.Abs(l-2.5) > 1e-12 {
		t.Fatalf("MSE = %v", l)
	}
	if grad.Data[0] != 1 || grad.Data[1] != -2 {
		t.Fatalf("MSE gradient = %v, want [1 -2]", grad.Data)
	}
}

// Property: a forward pass never produces NaN for finite inputs and finite
// weights, across activations.
func TestQuickForwardFinite(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		acts := []string{"relu", "leaky_relu", "sigmoid", "tanh"}
		net, err := NewMLP([]int{3, 5, 2}, acts[rng.Intn(len(acts))], "", rng)
		if err != nil {
			return false
		}
		x := mat.Randn(4, 3, 10, rng)
		out := forward(net, x)
		for _, v := range out.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dense backward returns a gradient with the input's shape and
// accumulates (two backward passes double the parameter gradient).
func TestQuickBackwardAccumulates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDense(3, 4, rng)
		x := mat.Randn(5, 3, 1, rng)
		g := mat.Randn(5, 4, 1, rng)
		ws := mat.NewWorkspace()
		d.ForwardInto(x, ws)
		dx := d.BackwardInto(g, ws)
		if dx.Rows != 5 || dx.Cols != 3 {
			return false
		}
		once := d.W.Grad.Clone()
		d.ForwardInto(x, ws)
		d.BackwardInto(g, ws)
		twice := d.W.Grad
		return mat.Equal(twice, once.Scale(2), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
