package stateless

// VAE matches the VAE.Scores root; this implementation is clean: it only
// reads the receiver and writes a fresh output.
type VAE struct {
	mean float64
	net  *Network
}

// Scores reads model state and builds its result from scratch.
func (v *VAE) Scores(x *Matrix) *Matrix {
	out := New(len(x.Data))
	for i, xv := range x.Data {
		out.Data[i] = xv - v.mean
	}
	return out
}

// QueryJobInto copies the aliased row before returning, and defers the lazy
// sort to a *Locked method — the caller-holds-lock convention the
// analyzer exempts (lock discipline belongs to the race detector).
func (s *Store) QueryJobInto(i int) []float64 {
	s.ensureSortedLocked()
	return append([]float64(nil), s.buf.Row(i)...)
}

// ensureSortedLocked mutates the receiver but is exempt by the *Locked
// naming convention.
func (s *Store) ensureSortedLocked() {
	s.buf.Data[0] = s.buf.Data[0]
}

// Activation implements Layer statelessly: fresh output, receiver only
// read through its function field.
type Activation struct{ F func(float64) float64 }

// ApplyInto is a clean Layer implementation.
func (a *Activation) ApplyInto(x *Matrix) *Matrix {
	out := New(len(x.Data))
	for i, v := range x.Data {
		out.Data[i] = a.F(v)
	}
	return out
}
