package nn

import (
	"math"

	"prodigy/internal/mat"
)

// Adam implements Kingma & Ba's Adam optimizer with bias correction.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param]*mat.Matrix
	v map[*Param]*mat.Matrix
}

// NewAdam returns an Adam optimizer with the standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make(map[*Param]*mat.Matrix), v: make(map[*Param]*mat.Matrix)}
}

// Step updates params from their accumulated gradients and then clears
// the gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = mat.New(p.Grad.Rows, p.Grad.Cols)
			o.m[p] = m
			o.v[p] = mat.New(p.Grad.Rows, p.Grad.Cols)
		}
		v := o.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mh := m.Data[i] / bc1
			vh := v.Data[i] / bc2
			p.Value.Data[i] -= o.LR * mh / (math.Sqrt(vh) + o.Epsilon)
		}
		p.ZeroGrad()
	}
}

// ClipGradients scales all gradients down so the global L2 norm does not
// exceed maxNorm. It returns the pre-clip norm.
func ClipGradients(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= scale
			}
		}
	}
	return norm
}
