// Package model exercises the hotalloc analyzer: allocating mat calls
// reachable from the stateless roots (directly, through helpers, or
// through interface dispatch) are findings; the same calls on cold paths
// are not; a suppressed call is a boundary.
package model

import "fixture/hotalloc/mat"

// Layer matches the production root spec {Layer, ApplyInto}.
type Layer interface {
	ApplyInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix
}

// Dense is the clean implementation.
type Dense struct{ w *mat.Matrix }

// ApplyInto stays on workspace buffers: no findings.
func (d *Dense) ApplyInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	out := ws.Get(x.Rows, d.w.Cols)
	return mat.MatMulInto(out, x, d.w)
}

// Slow allocates on the hot path, directly and through a helper.
type Slow struct{ w *mat.Matrix }

func (s *Slow) ApplyInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	y := mat.New(x.Rows, s.w.Cols) //want:hotalloc
	return s.helper(mat.MatMulInto(y, x, s.w))
}

// helper is only reachable through Slow.ApplyInto: findings must follow
// the call graph, not just root bodies.
func (s *Slow) helper(x *mat.Matrix) *mat.Matrix {
	y := x.SelectCols([]int{0}) //want:hotalloc
	return y.Clone()            //want:hotalloc
}

// Network matches the root spec {Network, InferInto}.
type Network struct{ layers []Layer }

// InferInto dispatches through the Layer interface, pulling every
// implementation — including Slow — into the hot graph.
func (n *Network) InferInto(x *mat.Matrix, ws *mat.Workspace) *mat.Matrix {
	n.audit()
	cur := x
	for _, l := range n.layers {
		cur = l.ApplyInto(cur, ws)
	}
	return cur
}

// VAE matches the root spec {VAE, Scores}. Its copy out of the workspace
// is sanctioned, and the suppressed call is a boundary: Clone's internal
// mat.New is never reached.
type VAE struct{ net *Network }

func (v *VAE) Scores(x *mat.Matrix) *mat.Matrix {
	ws := mat.GetWorkspace()
	defer mat.Release(ws)
	//lint:ignore hotalloc fixture: the caller gets a fresh copy
	return v.net.InferInto(x, ws).Clone()
}

// Namesake has a Clone colliding with mat.Matrix.Clone by name only; it
// must not be flagged even though audit is hot-reachable.
type Namesake struct{}

// Clone allocates, but not from the mat package.
func (Namesake) Clone() *Namesake { return &Namesake{} }

func (n *Network) audit() *Namesake {
	var v Namesake
	return v.Clone()
}

// Fit is a cold path: training code may allocate freely.
func Fit(x *mat.Matrix) *mat.Matrix {
	scratch := mat.New(x.Rows, x.Cols)
	return mat.MatMulInto(scratch, x, x.Clone())
}

// Sharder matches the root spec {Sharder, Reduce}: the fixed-order
// gradient reduction of DESIGN.md §11 runs once per training step and
// must reuse its preallocated shard accumulators.
type Sharder struct{ grads []*mat.Matrix }

// Reduce sums the shards into dst: the Into kernel is sanctioned, a
// per-step scratch matrix is a finding.
func (s *Sharder) Reduce(dst *mat.Matrix) *mat.Matrix {
	scratch := mat.New(dst.Rows, dst.Cols) //want:hotalloc
	_ = scratch
	return mat.ReduceTreeInto(dst, s.grads)
}

// BackwardParamsInto matches the sharded-backward root: it runs once per
// gradient shard, so workspace buffers are fine and Clone is not.
func (n *Network) BackwardParamsInto(grad *mat.Matrix, ws *mat.Workspace) {
	g := grad.Clone() //want:hotalloc
	_ = g
	_ = ws.Get(grad.Rows, grad.Cols)
}
