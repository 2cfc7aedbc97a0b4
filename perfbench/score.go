package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"time"

	"prodigy/internal/ensemble"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
)

// Scoring workload constants.
const (
	scoreLimit = 250 * time.Millisecond // well above the unloaded tail of a whole-job request
	// nominalRate is the fixed rate latency is read at, in requests/s:
	// about a ninth of what two cores sustain. The tail is the whole-job
	// requests; the lower the rate, the less they queue behind others, so
	// a slower host stretches p99 little more than p50. Over the nominal
	// phase of a 40 s run it gives 1040 samples, enough for p99.
	nominalRate = 40
	maxInFlight = 4096
	// whole-job requests make up wholeJobEighths/8 of the mix.
	wholeJobEighths = 2
	// satBlock is how many completions make one block of the max_per_s
	// median: 32 blocks of the request mix.
	satBlock = 256
	// localSpan widens the stretch an open-loop request's latency is
	// scaled over, so it holds about 20 probe samples. A tail request
	// is scaled by how slow the host was around it, not over the phase.
	localSpan = 500 * time.Millisecond
)

// scoreRequest and scoreResult mirror the /api/score wire format.
type scoreRequest struct {
	Vectors [][]float64 `json:"vectors"`
}

type scoreResult struct {
	Score     float64 `json:"score"`
	Anomalous bool    `json:"anomalous"`
}

// scoreInputs is everything the scoring workload sends and expects.
type scoreInputs struct {
	held   *pipeline.Dataset
	bodies [][]byte // one per held-out row, then one per held-out job
	rows   [][]int  // held-out rows each body carries
	ref    [][]byte // reference response per body
	seq    []int    // seeded request sequence over bodies
	unit   []float64
	truth  []bool // per held-out row
	preds  []bool // reference verdict per held-out row
	// warmBad counts warm-up answers that did not match the reference.
	warmBad int
}

// prepareScore extracts full-width vectors from held-out labelled jobs,
// encodes the request bodies, computes every reference answer through the
// full fleet (Prodigy.DetectBatch on the body's rows), then offers one
// second at the nominal rate to fill the pools and collects the garbage
// all this left. None of it counts toward set-up time.
func prepareScore(d *deployment, seed int64) (*scoreInputs, error) {
	held, err := heldOut(seed)
	if err != nil {
		return nil, fmt.Errorf("held-out jobs: %w", err)
	}
	if ens, ok := ensemble.Of(d.p.Artifact()); !ok || len(ens.ActiveMembers()) != len(ens.Cfg.Members) {
		return nil, fmt.Errorf("reference needs the full cascade fleet deployed")
	}
	in := &scoreInputs{held: held, truth: make([]bool, held.Len()), preds: make([]bool, held.Len())}
	byJob := map[int64][]int{}
	var jobOrder []int64
	for i, m := range held.Meta {
		in.truth[i] = m.Label == pipeline.Anomalous
		in.rows = append(in.rows, []int{i})
		if _, ok := byJob[m.JobID]; !ok {
			jobOrder = append(jobOrder, m.JobID)
		}
		byJob[m.JobID] = append(byJob[m.JobID], i)
	}
	singles := len(in.rows)
	for _, id := range jobOrder {
		in.rows = append(in.rows, byJob[id])
	}
	for _, rows := range in.rows {
		req := scoreRequest{}
		x := mat.New(len(rows), held.X.Cols)
		for j, r := range rows {
			req.Vectors = append(req.Vectors, held.X.Row(r))
			copy(x.Row(j), held.X.Row(r))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		preds, scores, threshold := d.p.DetectBatch(x)
		results := make([]scoreResult, len(scores))
		for j := range scores {
			results[j] = scoreResult{Score: scores[j], Anomalous: preds[j] == 1}
			in.preds[rows[j]] = preds[j] == 1
		}
		in.bodies = append(in.bodies, body)
		in.ref = append(in.ref, encodeLikeServer(map[string]interface{}{"threshold": threshold, "results": results}))
	}
	// The request mix: in every block of eight, wholeJobEighths whole-job
	// requests and the rest single-node ones, in seeded order. Rows and
	// jobs are drawn from successive seeded permutations, so any stretch
	// of a few hundred requests carries nearly the same mix of body sizes.
	rng := rand.New(rand.NewSource(seed ^ 0x5c0e))
	const n = 1 << 16
	pattern := make([]bool, 8)
	for i := 0; i < wholeJobEighths; i++ {
		pattern[i] = true
	}
	nextRow := cycle(rng, singles)
	nextJob := cycle(rng, len(jobOrder))
	for len(in.seq) < n {
		rng.Shuffle(len(pattern), func(i, j int) { pattern[i], pattern[j] = pattern[j], pattern[i] })
		for _, whole := range pattern {
			if whole {
				in.seq = append(in.seq, singles+nextJob())
			} else {
				in.seq = append(in.seq, nextRow())
			}
		}
	}
	in.unit = poissonOffsets(rng, n)
	in.warmBad = openLoopScore(d, in, nominalRate, time.Second).tally.mismatched
	settle()
	return in, nil
}

// nominalWindow is the part of --seconds the nominal phase takes, 65%;
// the saturated phase takes the rest.
func nominalWindow(window time.Duration) time.Duration { return window * 13 / 20 }

// cycle returns a generator of 0..n-1 that walks successive seeded
// permutations.
func cycle(rng *rand.Rand, n int) func() int {
	var perm []int
	return func() int {
		if len(perm) == 0 {
			perm = rng.Perm(n)
		}
		v := perm[0]
		perm = perm[1:]
		return v
	}
}

// scorePhase is one open-loop phase at a fixed offered rate.
type scorePhase struct {
	rate    float64
	slow    float64 // host slowness over the phase
	probeNs float64 // the host probe's median unit time
	// scaledMs holds every answered request's latency in ms, scaled by
	// the host's slowness from localSpan before it was due to localSpan
	// after it answered, sorted.
	scaledMs []float64
	results  []result
	tally    tally
	late     []time.Duration
	elapsed  time.Duration
}

// openLoopScore offers the request sequence at rate for window and
// accounts every answer.
func openLoopScore(d *deployment, in *scoreInputs, rate float64, window time.Duration) scorePhase {
	start := time.Now().Add(5 * time.Millisecond)
	dues := dueTimes(start, in.unit, rate, window)
	probe := startHostProbe()
	results, late := openLoop(dues, maxInFlight, func(i int) (int, bool) {
		b := in.seq[i%len(in.seq)]
		status, match, _ := call(d.srv, http.MethodPost, "/api/score", in.bodies[b], in.ref[b])
		return status, match
	})
	host := probe.halt()
	ph := scorePhase{rate: rate, results: results, tally: tally{limit: scoreLimit}, late: late, elapsed: time.Since(start),
		slow: host.overall(), probeNs: host.unitNs()}
	for i, r := range results {
		ph.tally.add(r)
		if r.status == http.StatusOK {
			k := host.slowness(dues[i].Add(-localSpan), dues[i].Add(r.latency+localSpan))
			ph.scaledMs = append(ph.scaledMs, float64(r.latency)/1e6/k)
		}
	}
	sort.Float64s(ph.scaledMs)
	return ph
}

// scoreF1 scores the verdicts served in a phase against the held-out
// truth, once per held-out row.
func scoreF1(in *scoreInputs, results []result) float64 {
	seen := make([]bool, len(in.truth))
	var preds, truth []bool
	for _, r := range results {
		if !r.match {
			continue
		}
		for _, row := range in.rows[in.seq[r.item%len(in.seq)]] {
			if seen[row] {
				continue
			}
			seen[row] = true
			preds = append(preds, in.preds[row])
			truth = append(truth, in.truth[row])
		}
	}
	return f1(preds, truth)
}

// satPhase is the saturated phase's outcome.
type satPhase struct {
	rate    float64 // median block rate, scaled to the reference host
	rawRate float64 // the same unscaled
	slow    float64 // host slowness over the phase
	tally   tally
}

// saturate measures max_per_s: 4×GOMAXPROCS collectors each post their
// next request as soon as the last one answered, for window. That keeps
// every processor busy while some requests sit out the coalescing window,
// and a closed loop cannot tip into the collapse an open loop near
// capacity falls into (see README.md). Its rate is the median over blocks
// of satBlock completions of the requests served per second within the
// latency limit.
func saturate(d *deployment, in *scoreInputs, window time.Duration) satPhase {
	probe := startHostProbe()
	start := time.Now()
	results, offsets, _ := closedLoop(4*runtime.GOMAXPROCS(0), window, 0, func(i int) result {
		b := in.seq[i%len(in.seq)]
		t0 := time.Now()
		status, match, _ := call(d.srv, http.MethodPost, "/api/score", in.bodies[b], in.ref[b])
		return result{status: status, match: match, latency: time.Since(t0)}
	})
	host := probe.halt()
	ph := satPhase{tally: tally{limit: scoreLimit}, slow: host.overall()}
	for _, r := range results {
		ph.tally.add(r)
	}
	ph.rate, _, _ = blockStats(&ph.tally, results, offsets, satBlock, window, host.since(start))
	ph.rawRate, _, _ = blockStats(&ph.tally, results, offsets, satBlock, window, rawSpeed)
	return ph
}
