package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"prodigy/internal/core"
	"prodigy/internal/ldms"
)

// Dashboard workload constants.
const (
	dashLimit  = 2 * time.Second // an operator waiting on a verdict
	ingestTick = time.Second     // one simulated second of the live feed per tick, as the 1 Hz samplers produce it
	feedTicks  = 200             // feed length before it starts over under new job IDs
	heapEvery  = 5 * time.Millisecond
	// dashBlockPasses is how many passes over the campaign's jobs make one
	// block of the done_per_s and p50_ms medians, so every block asks the
	// same work.
	dashBlockPasses = 2
)

// dashInputs is everything the dashboard workload sends and expects.
type dashInputs struct {
	seq   []int64          // fixed, seeded job sequence the users walk
	urls  map[int64]string // GET /api/jobs/{id}/anomalies
	ref   map[int64][]byte // reference body per job
	truth map[int64]map[int]bool
	feed  [][]ldms.Row
	// warmBad counts warm-up answers that did not match the reference.
	warmBad int
}

// prepareDashboard computes the reference answers through
// Prodigy.AnalyzeJob, lays out the job sequence, generates the live feed,
// then analyses every job once through the handler so pools are filled,
// and collects the garbage all this left. None of it counts toward set-up
// time.
func prepareDashboard(d *deployment, seed int64) (*dashInputs, error) {
	in := &dashInputs{urls: map[int64]string{}, ref: map[int64][]byte{}, truth: map[int64]map[int]bool{}}
	ids := make([]int64, len(d.jobs))
	for i, job := range d.jobs {
		ids[i] = job.ID
		report, err := d.p.AnalyzeJob(d.store, job.ID)
		if err != nil {
			return nil, fmt.Errorf("reference analysis of job %d: %w", job.ID, err)
		}
		in.ref[job.ID] = encodeLikeServer(map[string]interface{}{"job_id": job.ID, "nodes": report})
		in.urls[job.ID] = fmt.Sprintf("/api/jobs/%d/anomalies", job.ID)
		t := map[int]bool{}
		for _, n := range job.Nodes {
			_, bad := d.truth[job.ID][n]
			t[n] = bad
		}
		in.truth[job.ID] = t
	}
	rng := rand.New(rand.NewSource(seed ^ 0xda5b))
	for pass := 0; pass < 64; pass++ {
		for _, k := range rng.Perm(len(ids)) {
			in.seq = append(in.seq, ids[k])
		}
	}
	feed, err := liveFeed(d.sys, seed, feedTicks)
	if err != nil {
		return nil, err
	}
	in.feed = feed
	for _, id := range ids {
		if _, match, _ := call(d.srv, http.MethodGet, in.urls[id], nil, in.ref[id]); !match {
			in.warmBad++
		}
	}
	settle()
	return in, nil
}

// dashRun is one timed pass of the dashboard workload.
type dashRun struct {
	tally    tally
	donePerS float64 // median block rate, scaled to the reference host
	p50      float64 // median block p50, ms, scaled to the reference host
	rawDone  float64 // the same two unscaled
	rawP50   float64
	slow     float64 // host slowness over the whole run
	probeNs  float64 // the host probe's median unit time
	blocks   int
	elapsed  time.Duration
	heapMB   float64
	ingest   []time.Duration
	tickLate []time.Duration
	rows     int
	f1       float64
	rt       runtimeStats // collector activity over the run
}

// dashboardLoad runs nproc closed-loop users over the job sequence for
// window while the writer ingests the live feed.
func dashboardLoad(d *deployment, in *dashInputs, window time.Duration) dashRun {
	users := runtime.NumCPU()
	minSamples := samplesFor(0.99)
	rt0 := readRuntime()
	heap := startHeapWatch(heapEvery)
	w := startWriter(d.store, in.feed, ingestTick)
	probe := startHostProbe()
	start := time.Now()
	results, offsets, elapsed := closedLoop(users, window, minSamples, func(i int) result {
		job := in.seq[i%len(in.seq)]
		t0 := time.Now()
		status, match, _ := call(d.srv, http.MethodGet, in.urls[job], nil, in.ref[job])
		return result{status: status, match: match, latency: time.Since(t0)}
	})
	host := probe.halt()
	w.halt()
	run := dashRun{tally: tally{limit: dashLimit}, elapsed: elapsed, heapMB: heap.halt(), slow: host.overall(), probeNs: host.unitNs(),
		ingest: w.ingest, tickLate: w.late, rows: w.rows, rt: readRuntime().sub(rt0)}
	measured := window
	if elapsed > window {
		measured = offsets[len(offsets)-1]
	}
	for _, r := range results {
		run.tally.add(r)
	}
	block := dashBlockPasses * len(d.jobs)
	run.donePerS, run.p50, run.blocks = blockStats(&run.tally, results, offsets, block, measured, host.since(start))
	run.rawDone, run.rawP50, _ = blockStats(&run.tally, results, offsets, block, measured, rawSpeed)
	run.f1 = dashboardF1(d, in, results)
	return run
}

// dashboardF1 scores the node verdicts the users were served against the
// injected truth, once per (job, node). Every served body matched the
// reference, so the verdicts are the reference's.
func dashboardF1(d *deployment, in *dashInputs, results []result) float64 {
	seen := map[int64]bool{}
	var preds, truth []bool
	for _, r := range results {
		job := in.seq[r.item%len(in.seq)]
		if !r.match || seen[job] {
			continue
		}
		seen[job] = true
		nodes, err := decodeNodes(in.ref[job])
		if err != nil {
			continue
		}
		for _, n := range nodes {
			preds = append(preds, n.Anomalous)
			truth = append(truth, in.truth[job][n.Component])
		}
	}
	return f1(preds, truth)
}

// decodeNodes reads the per-node verdicts out of an anomalies body.
func decodeNodes(body []byte) ([]core.NodePrediction, error) {
	var resp struct {
		Nodes []core.NodePrediction `json:"nodes"`
	}
	err := json.Unmarshal(body, &resp)
	return resp.Nodes, err
}
