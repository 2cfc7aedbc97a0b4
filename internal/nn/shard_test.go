package nn

import (
	"math/rand"
	"testing"

	"prodigy/internal/mat"
)

// TestSharderRunCoversAllShards drives the sharder directly at a wide
// fan-out: every shard must be visited exactly once, with the right row
// range, regardless of how shards map onto workers. Run under -race this
// also proves the fan-out writes no shared state beyond the per-shard slots.
func TestSharderRunCoversAllShards(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewMLP([]int{4, 4}, "relu", "", rng)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 150 // 10 shards: 9 full + 1 tail of 6 rows
	sh := NewSharder(8, rows, []*Network{net}, nil)
	if sh.Workers() != 8 {
		t.Fatalf("Workers() = %d, want 8", sh.Workers())
	}
	visits := make([]int, sh.MaxShards())
	los := make([]int, sh.MaxShards())
	his := make([]int, sh.MaxShards())
	shards := sh.Run(rows, func(w, s, lo, hi int, train, frozen []*Network, ws *mat.Workspace) {
		visits[s]++ // per-shard slot: no two workers share a shard
		los[s], his[s] = lo, hi
		if len(frozen) != 0 {
			t.Errorf("shard %d: unexpected frozen replicas", s)
		}
	})
	if shards != 10 {
		t.Fatalf("Run returned %d shards, want 10", shards)
	}
	for s := 0; s < shards; s++ {
		if visits[s] != 1 {
			t.Fatalf("shard %d visited %d times", s, visits[s])
		}
		wantLo := s * gradShardRows
		wantHi := wantLo + gradShardRows
		if wantHi > rows {
			wantHi = rows
		}
		if los[s] != wantLo || his[s] != wantHi {
			t.Fatalf("shard %d range [%d, %d), want [%d, %d)", s, los[s], his[s], wantLo, wantHi)
		}
	}
}

// TestSharderReduceMatchesSerialTree checks that parallel shard gradients
// reduced by the sharder equal a single-goroutine pass over the same
// shards: the parallel path must produce the same bits, not merely close
// values.
func TestSharderReduceMatchesSerialTree(t *testing.T) {
	build := func() (*Network, *mat.Matrix, *mat.Matrix) {
		rng := rand.New(rand.NewSource(11))
		net, err := NewMLP([]int{6, 5, 6}, "sigmoid", "", rng)
		if err != nil {
			t.Fatal(err)
		}
		x := mat.Randn(130, 6, 1, rng) // 9 shards, uneven tail
		y := mat.Randn(130, 6, 1, rng)
		return net, x, y
	}
	grads := func(workers int) [][]float64 {
		net, x, y := build()
		sh := NewSharder(workers, x.Rows, []*Network{net}, nil)
		xv := make([]*mat.Matrix, sh.Workers())
		yv := make([]*mat.Matrix, sh.Workers())
		for w := range xv {
			xv[w], yv[w] = &mat.Matrix{}, &mat.Matrix{}
		}
		shards := sh.Run(x.Rows, func(w, s, lo, hi int, train, _ []*Network, ws *mat.Workspace) {
			xs := mat.RowsView(xv[w], x, lo, hi)
			ys := mat.RowsView(yv[w], y, lo, hi)
			pred := train[0].ForwardInto(xs, ws)
			_, grad := MSELoss{}.ComputeInto(pred, ys, ws)
			grad.Scale(float64(hi-lo) / float64(x.Rows))
			train[0].BackwardParamsInto(grad, ws)
		})
		sh.Reduce(shards)
		var out [][]float64
		for _, p := range net.Params() {
			out = append(out, append([]float64(nil), p.Grad.Data...))
		}
		return out
	}
	ref := grads(1)
	got := grads(8)
	for p := range ref {
		for i := range ref[p] {
			if got[p][i] != ref[p][i] {
				t.Fatalf("param %d grad %d: %v (8 workers) vs %v (1 worker)", p, i, got[p][i], ref[p][i])
			}
		}
	}
}

// TestTrainReplicaSharesValues verifies the replica contract: parameter
// Values are shared (an optimizer step on the root is instantly visible to
// every replica), while Grad buffers and activation caches are private.
func TestTrainReplicaSharesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := NewMLP([]int{3, 4, 2}, "relu", "sigmoid", rng)
	if err != nil {
		t.Fatal(err)
	}
	rep := net.TrainReplica()
	rootPs, repPs := net.Params(), rep.Params()
	if len(rootPs) != len(repPs) {
		t.Fatalf("replica has %d params, root %d", len(repPs), len(rootPs))
	}
	for i := range rootPs {
		if &rootPs[i].Value.Data[0] != &repPs[i].Value.Data[0] {
			t.Fatalf("param %d: replica does not share Value storage", i)
		}
		if &rootPs[i].Grad.Data[0] == &repPs[i].Grad.Data[0] {
			t.Fatalf("param %d: replica shares Grad storage", i)
		}
	}
	x := mat.Randn(4, 3, 1, rng)
	want := infer(net, x)
	got := infer(rep, x)
	if !mat.Equal(got, want, 0) {
		t.Fatal("replica forward differs from root")
	}
	// A weight update through the root must flow into the replica's output.
	rootPs[0].Value.Data[0] += 0.5
	after := infer(rep, x)
	if mat.Equal(after, want, 0) {
		t.Fatal("replica did not observe the root weight update")
	}
}

// TestBackwardParamsIntoMatchesBackward checks the dx-skipping backward
// against the full BackwardInto pass: parameter gradients must agree bitwise,
// since BackwardParamsInto performs the same products in the same order
// and only skips the unused input-gradient matmul of the first dense
// layer.
func TestBackwardParamsIntoMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, err := NewMLP([]int{5, 7, 3}, "tanh", "", rng)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Randn(9, 5, 1, rng)
	y := mat.Randn(9, 3, 1, rng)

	zeroGrads(net)
	_, grad := mse(forward(net, x), y)
	backward(net, grad)
	var want [][]float64
	for _, p := range net.Params() {
		want = append(want, append([]float64(nil), p.Grad.Data...))
	}

	zeroGrads(net)
	ws := mat.NewWorkspace()
	pred := net.ForwardInto(x, ws)
	_, g2 := MSELoss{}.ComputeInto(pred, y, ws)
	net.BackwardParamsInto(g2, ws)
	for i, p := range net.Params() {
		for j := range want[i] {
			if p.Grad.Data[j] != want[i][j] {
				t.Fatalf("param %d grad %d: BackwardParamsInto %v vs BackwardInto %v", i, j, p.Grad.Data[j], want[i][j])
			}
		}
	}
}

// TestBackwardInputIntoMatchesBackward checks the frozen-network
// input-gradient path (used by USAD's adversarial term) against the full
// backward pass.
func TestBackwardInputIntoMatchesBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net, err := NewMLP([]int{4, 6, 4}, "leaky_relu", "sigmoid", rng)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Randn(7, 4, 1, rng)
	g := mat.Randn(7, 4, 1, rng)

	zeroGrads(net)
	forward(net, x)
	want := backward(net, g.Clone())

	ws := mat.NewWorkspace()
	net.ForwardInto(x, ws)
	gin := mat.CopyInto(ws.Get(g.Rows, g.Cols), g)
	got := net.BackwardInputInto(gin, ws)
	if !mat.Equal(got, want, 0) {
		t.Fatal("BackwardInputInto differs from the BackwardInto input gradient")
	}
}

// TestEffectiveWorkers pins the Workers-knob resolution.
func TestEffectiveWorkers(t *testing.T) {
	if got := EffectiveWorkers(3); got != 3 {
		t.Fatalf("Workers=3 resolved to %d", got)
	}
	if got := EffectiveWorkers(0); got < 1 {
		t.Fatalf("default workers %d < 1", got)
	}
}
