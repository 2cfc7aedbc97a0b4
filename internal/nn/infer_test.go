package nn

import (
	"math/rand"
	"sync"
	"testing"

	"prodigy/internal/mat"
)

// TestInferMatchesForward verifies the stateless inference path (InferInto)
// computes exactly the same function as the caching training path
// (ForwardInto).
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := NewMLP([]int{7, 12, 5, 3}, "tanh", "sigmoid", rng)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Randn(9, 7, 1, rng)
	want := forward(net, x)
	got := infer(net, x)
	if !mat.Equal(want, got, 0) {
		t.Fatal("InferInto disagrees with ForwardInto")
	}
}

// TestInferCachesNothing checks that InferInto leaves no activations
// behind: BackwardInto after InferInto alone must still panic, the guard
// that keeps the training pair honest.
func TestInferCachesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net, err := NewMLP([]int{4, 6, 2}, "relu", "", rng)
	if err != nil {
		t.Fatal(err)
	}
	infer(net, mat.Randn(3, 4, 1, rng))
	defer func() {
		if recover() == nil {
			t.Fatal("BackwardInto after InferInto should panic: InferInto must not populate caches")
		}
	}()
	backward(net, mat.New(3, 2))
}

// TestConcurrentInfer hammers one shared network from many goroutines;
// under -race this is the regression test for the activation-cache data
// race that made concurrent scoring unsafe.
func TestConcurrentInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := NewMLP([]int{10, 16, 4}, "tanh", "", rng)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.Randn(32, 10, 1, rng)
	want := infer(net, x)

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := mat.NewWorkspace() // one workspace per goroutine
			for i := 0; i < 50; i++ {
				if got := net.InferInto(x, ws); !mat.Equal(want, got, 0) {
					errs <- "concurrent InferInto returned corrupted output"
					return
				}
				ws.Reset()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
