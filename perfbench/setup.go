package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"prodigy/internal/cluster"
	"prodigy/internal/core"
	"prodigy/internal/diagnose"
	"prodigy/internal/drift"
	"prodigy/internal/dsos"
	"prodigy/internal/ensemble"
	"prodigy/internal/experiments"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/pipeline"
	"prodigy/internal/serve"
	"prodigy/internal/server"
)

// Campaign shape. Job sizes come from a fixed list of (nodes, duration)
// pairs and only their order is seeded, so every seed asks the same
// extraction work of the dashboard and the same body sizes of the scoring
// tier; the seed changes which app runs on which size, which jobs are
// injected, and the telemetry itself. Sizes spread over 2–8 nodes and
// 180–420 s so per-request cost is spread rather than clustered, which
// keeps latency percentiles from jumping between clusters.
var (
	voltaApps     = []string{"nas-bt", "nas-cg", "nas-ft", "nas-lu", "nas-mg", "nas-sp", "minimd", "comd", "minighost", "miniamr", "kripke"}
	campaignJobs  = 40 // completed jobs the dashboard analyses and the model trains on
	heldOutJobs   = 48 // labelled jobs the scoring workload's vectors come from
	liveJobs      = 8  // jobs whose telemetry streams in during the timed phase
	liveJobNodes  = 6  // 8 × 6 = 48 of Volta's 52 nodes report every tick
	anomalousFrac = 4  // one job in anomalousFrac carries an HPAS injector
)

// jobSize returns the i-th (nodes, duration) pair: nodes cycle through
// 2..8 and durations through 180..420 s in steps of 40, rotated every
// seven jobs so each node count meets every duration.
func jobSize(i int) (nodes int, duration int64) {
	return 2 + i%7, 180 + 40*int64((i%7+i/7)%7)
}

// prodigyd's serving flags at their defaults.
const (
	trimSeconds    = 30
	replicas       = 2
	coalesceWindow = 2 * time.Millisecond
	maxQueue       = 16384
)

// jobPlan is one job of a campaign before it runs.
type jobPlan struct {
	app      string
	nodes    int
	duration int64
	inj      hpas.Injector // nil for a healthy job
}

// planJobs lays out n jobs: apps cycle as in prodigyd, sizes are the
// first n of jobSize in seeded order, and exactly n/anomalousFrac jobs get
// an injector, cycling through Table 2.
func planJobs(rng *rand.Rand, n int) []jobPlan {
	plans := make([]jobPlan, n)
	for i, k := range rng.Perm(n) {
		nodes, duration := jobSize(k)
		plans[i] = jobPlan{app: voltaApps[i%len(voltaApps)], nodes: nodes, duration: duration}
	}
	injectors := hpas.AllTable2()
	for k, i := range rng.Perm(n)[:n/anomalousFrac] {
		plans[i].inj = injectors[k%len(injectors)]
	}
	return plans
}

// runJobs submits, collects and completes the planned jobs on sys into
// sink, injecting each planned injector on every node with probability
// 0.8 as prodigyd does. It returns the jobs and their per-node truth.
func runJobs(sys *cluster.System, plans []jobPlan, rng *rand.Rand, seed int64, sink ldms.Sink) ([]*cluster.Job, []map[int][2]string, error) {
	jobs := make([]*cluster.Job, 0, len(plans))
	truths := make([]map[int][2]string, 0, len(plans))
	for i, pl := range plans {
		job, err := sys.Submit(pl.app, pl.nodes, pl.duration, seed+int64(i))
		if err != nil {
			return nil, nil, fmt.Errorf("submit %s: %w", pl.app, err)
		}
		truth := map[int][2]string{}
		if pl.inj != nil {
			for _, n := range job.Nodes {
				if rng.Float64() < 0.8 {
					job.Injectors[n] = pl.inj
					truth[n] = [2]string{pl.inj.Name(), pl.inj.Config()}
				}
			}
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: seed + job.ID}, sink)
		if err := sys.Complete(job.ID); err != nil {
			return nil, nil, err
		}
		jobs = append(jobs, job)
		truths = append(truths, truth)
	}
	return jobs, truths, nil
}

// setupTimes is what one stand-up spent per phase.
type setupTimes struct {
	simulate, dataset, train, extras, tier time.Duration
	// slow is the host probe's slowness while the stand-up ran (see
	// hostspeed.go).
	slow float64
}

func (t setupTimes) total() time.Duration {
	return t.simulate + t.dataset + t.train + t.extras + t.tier
}

// deployment is one stood-up server and the campaign behind it.
type deployment struct {
	sys   *cluster.System
	store *dsos.Store
	ds    *pipeline.Dataset
	p     *core.Prodigy
	srv   *server.Server
	jobs  []*cluster.Job
	truth map[int64]map[int][2]string
	times setupTimes
}

// standUp builds the server the way prodigyd does with its default flags
// (plus -ensemble for the scoring workload): simulate and collect the
// campaign into a DSOS store, build the dataset, train, evaluate, mount
// the coalescing tier, the diagnoser and the drift monitor. The streaming
// detector and the tsdb scraper are left out; the benchmark does not
// measure them.
func standUp(seed int64, ensembleOn bool) (*deployment, error) {
	d := &deployment{sys: cluster.Volta(), store: dsos.NewStore(), truth: map[int64]map[int][2]string{}}
	t0 := time.Now()
	builder := pipeline.NewDatasetBuilder(d.store)
	builder.Gen.TrimSeconds = trimSeconds
	builder.Pipe.Catalog = features.Minimal()
	rng := rand.New(rand.NewSource(seed))
	jobs, truths, err := runJobs(d.sys, planJobs(rng, campaignJobs), rng, seed, d.store)
	if err != nil {
		return nil, err
	}
	for i, job := range jobs {
		builder.AddJob(job.ID, job.App, truths[i])
		d.truth[job.ID] = truths[i]
	}
	d.jobs = jobs
	t1 := time.Now()

	ds, err := builder.Build()
	if err != nil {
		return nil, fmt.Errorf("build dataset: %w", err)
	}
	d.ds = ds
	t2 := time.Now()

	campaignLike := experiments.CampaignConfig{System: "volta", Catalog: features.Minimal(), TrimSeconds: trimSeconds}
	cfg := experiments.ProdigyConfig(experiments.Quick, campaignLike, seed)
	experiments.TopKFor(&cfg, ds.X.Cols)
	p := core.New(cfg)
	if ensembleOn {
		ecfg := ensemble.DefaultConfig()
		ecfg.Fusion = ensemble.FusionRank
		ecfg.Seed = seed
		usadCfg := experiments.USADConfig(experiments.Quick, seed)
		newMember := func(kind string, inputDim int) (pipeline.Model, error) {
			if kind == "usad" {
				return pipeline.NewUSADModel(usadCfg(inputDim))
			}
			return nil, nil
		}
		if err := p.FitEnsemble(ds, nil, ecfg, newMember); err != nil {
			return nil, fmt.Errorf("ensemble train: %w", err)
		}
	} else if err := p.Fit(ds, nil); err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	d.p = p
	t3 := time.Now()

	p.Evaluate(ds) // prodigyd logs the campaign macro-F1 at start-up
	tierCfg := serve.DefaultConfig()
	tierCfg.Replicas = replicas
	tierCfg.Window = coalesceWindow
	tierCfg.MaxQueue = maxQueue
	t4a := time.Now()
	d.srv = server.NewWithTier(d.store, p, serve.NewTier(p, tierCfg))
	if ensembleOn {
		d.srv.Tier.ConfigureEnsemble(0)
	}
	t4b := time.Now()
	if clf, err := diagnose.New(ds, 3); err == nil {
		d.srv.Diagnoser = clf
	}
	healthy := ds.Subset(ds.HealthyIndices())
	if healthy.Len() >= 2 {
		if mon, err := drift.NewMonitor(p.Scores(healthy.X), 500, drift.DefaultConfig()); err == nil {
			d.srv.Drift = mon
		}
	}
	t5 := time.Now()
	d.times = setupTimes{
		simulate: t1.Sub(t0),
		dataset:  t2.Sub(t1),
		train:    t3.Sub(t2),
		extras:   t4a.Sub(t3) + t5.Sub(t4b),
		tier:     t4b.Sub(t4a),
	}
	return d, nil
}

// rowCapture is an ldms.Sink that keeps every row, for feeds replayed
// later. The aggregator calls Ingest from several goroutines.
type rowCapture struct {
	mu   sync.Mutex
	rows []ldms.Row
}

func (c *rowCapture) Ingest(r ldms.Row) {
	c.mu.Lock()
	c.rows = append(c.rows, r)
	c.mu.Unlock()
}

// liveFeed generates the telemetry the writer ingests during the timed
// phase: liveJobs new jobs on liveJobNodes nodes each, lasting ticks
// simulated seconds, cut into one tick per simulated second. Rows within
// a tick are ordered by node and sampler, so a seed always yields the same
// ingest sequence.
func liveFeed(sys *cluster.System, seed int64, ticks int) ([][]ldms.Row, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x11fe))
	plans := make([]jobPlan, liveJobs)
	for i := range plans {
		plans[i] = jobPlan{app: voltaApps[rng.Intn(len(voltaApps))], nodes: liveJobNodes, duration: int64(ticks)}
	}
	// Live jobs run side by side, so submit all before collecting any.
	capture := &rowCapture{}
	var jobs []*cluster.Job
	for i, pl := range plans {
		job, err := sys.Submit(pl.app, pl.nodes, pl.duration, seed+5000+int64(i))
		if err != nil {
			return nil, fmt.Errorf("live job: %w", err)
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: seed + job.ID}, capture)
		if err := sys.Complete(job.ID); err != nil {
			return nil, err
		}
	}
	rows := capture.rows
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if a.JobID != b.JobID {
			return a.JobID < b.JobID
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		return a.Sampler < b.Sampler
	})
	feed := make([][]ldms.Row, ticks)
	for _, r := range rows {
		feed[r.Timestamp] = append(feed[r.Timestamp], r)
	}
	return feed, nil
}

// heldOut simulates labelled jobs the model never trained on and extracts
// their full-width feature vectors through the same dataset path the
// campaign used. It runs on its own system and store, so the served store
// is the same for both workloads.
func heldOut(seed int64) (*pipeline.Dataset, error) {
	sys := cluster.Volta()
	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = trimSeconds
	builder.Pipe.Catalog = features.Minimal()
	rng := rand.New(rand.NewSource(seed ^ 0x4e1d))
	jobs, truths, err := runJobs(sys, planJobs(rng, heldOutJobs), rng, seed+20000, store)
	if err != nil {
		return nil, err
	}
	for i, job := range jobs {
		builder.AddJob(job.ID, job.App, truths[i])
	}
	return builder.Build()
}
