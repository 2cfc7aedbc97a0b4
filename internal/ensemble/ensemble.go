// Package ensemble implements the budgeted cascade detector of ROADMAP
// item 4, after SUOD (Zhao et al., MLSys 2021): a calibrated cheap
// pre-filter clears the overwhelmingly-normal bulk of production
// telemetry, and only the suspicious tail reaches a diversified fleet
// of expensive detectors (VAE, USAD, LOF, ...) whose scores are fused
// on a common rank scale. A budget scheduler fed by the cost ledger and
// the serve-tier queue depth sheds the most expensive fleet members
// under load and restores them on recovery, so throughput degrades by
// dropping model cost before dropping requests.
//
// The Ensemble is a pipeline.Model: it trains through the standard
// trainer flow, serializes into a pipeline.Artifact (fleet members
// nested as blobs), and serves through AnomalyDetector / core.Prodigy /
// the coalescing tier exactly like a solo model.
//
// Score semantics: with the pre-filter enabled, cleared rows report the
// pre-filter's empirical CDF value in [0, 1) and passed rows report
// 1 + fused in [1, 2], so every passed row outranks every cleared row
// and the percentile threshold calibrated at train time lands at the
// cascade boundary. With the pre-filter disabled and a single fleet
// member, Scores is a bit-exact passthrough of that member — the
// regression anchor the cascade tests pin.
package ensemble

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prodigy/internal/mat"
	"prodigy/internal/obs"
	"prodigy/internal/pipeline"
)

// Fusion names a score-fusion rule for the fleet stage.
type Fusion string

const (
	// FusionRank averages the members' empirical-CDF (midrank) values —
	// rank-average fusion, robust to members with wildly different score
	// scales.
	FusionRank Fusion = "rank"
	// FusionMax takes the most alarmed member's CDF value.
	FusionMax Fusion = "max"
	// FusionWeighted is a weighted mean of CDF values using Config.Weights.
	FusionWeighted Fusion = "weighted"
)

// Config declares a cascade: which cheap model guards the gate, how much
// of the normal stream may pass, which fleet scores the tail and how the
// fleet's votes combine.
type Config struct {
	// Prefilter is the stage-1 model kind ("iforest" or "naive"); empty
	// disables the cascade and every row reaches the fleet.
	Prefilter string `json:"prefilter,omitempty"`
	// PassFrac is the target fraction of held-out normal rows that pass
	// the pre-filter (default 0.01 — the "≤ ~1%" calibration).
	PassFrac float64 `json:"pass_frac,omitempty"`
	// Fusion is the fleet fusion rule (default FusionRank).
	Fusion Fusion `json:"fusion,omitempty"`
	// Members lists the fleet model kinds in fixed order.
	Members []string `json:"members"`
	// Weights, when non-nil, must parallel Members (FusionWeighted).
	Weights []float64 `json:"weights,omitempty"`
	// BudgetNs is the scheduler's target ns/row for the whole cascade;
	// 0 disables budget shedding.
	BudgetNs float64 `json:"budget_ns,omitempty"`
	// Seed seeds the pre-filter's randomized fit (isolation forest).
	Seed int64 `json:"seed,omitempty"`
}

// DefaultConfig is the deployed shape: naive z-score gate at 1% pass,
// rank-average fusion over the VAE + USAD + LOF fleet. The naive
// pre-filter wins over iforest on both axes that matter for stage 1 —
// it is ~50× cheaper per row and, on the hpas campaigns, keeps fused
// F1/AUC at solo-Prodigy level where the iforest gate clears enough
// true anomalies to cap AUC around 0.83 (`experiments -run ensemble`
// measures both; a cleared anomaly is unrecoverable by construction).
func DefaultConfig() Config {
	return Config{
		Prefilter: "naive",
		PassFrac:  0.01,
		Fusion:    FusionRank,
		Members:   []string{"vae", "usad", "lof"},
		Seed:      1,
	}
}

// member is one fleet slot: the model, its rank-normalization reference
// distribution, its cost-ledger entry and the scheduler's active flag.
type member struct {
	kind   string
	weight float64
	model  pipeline.Model
	ref    []float64 // sorted training scores: empirical CDF support
	cost   *obs.CostEntry
	active atomic.Bool
}

// Ensemble is the cascade detector. It satisfies pipeline.Model; Scores
// is safe for any number of concurrent callers (fitted state is
// read-only, scheduler flags are atomics snapshotted per batch).
type Ensemble struct {
	Cfg Config

	pre     pipeline.Model
	margin  float64   // pre-filter scores above this pass to the fleet
	preRef  []float64 // sorted pre-filter scores on training rows
	members []*member

	// cascade accounting, read by the scheduler and the status endpoint
	rowsSeen   atomic.Int64
	rowsPassed atomic.Int64

	sched scheduler

	// memberDelay, when set (tests only), runs before each member's
	// Scores call — the completion-order determinism harness.
	memberDelay func(kind string)
}

// Stage-latency and cascade metrics (DESIGN.md §16). Label values are
// the stage* constants below — bounded by construction.
var (
	prefilterPassFrac = obs.Default.NewGauge("ensemble_prefilter_pass_frac",
		"Cumulative fraction of scored rows that passed the pre-filter into the fleet.")
	modelsActive = obs.Default.NewGauge("ensemble_models_active",
		"Fleet members currently active (not shed by the budget scheduler).")
	stageDur = obs.Default.NewHistogramVec("ensemble_stage_seconds",
		"Wall time of one cascade stage over one batch.", obs.DefBuckets, "stage")
	rowsTotal = obs.Default.NewCounter("ensemble_rows_total",
		"Rows scored through the cascade, cleared and passed alike.")
	rowsPassedTotal = obs.Default.NewCounter("ensemble_rows_passed_total",
		"Rows that crossed the pre-filter margin and reached the fleet.")
	schedTransitions = obs.Default.NewCounterVec("ensemble_sched_transitions_total",
		"Budget-scheduler membership changes, by action.", "action")
)

const (
	stagePrefilter = "prefilter"
	stageFleet     = "fleet"
	stageFuse      = "fuse"

	actionShed    = "shed"
	actionRestore = "restore"
)

// New assembles a cascade over the given fleet members, which must
// parallel cfg.Members (fitted or not — FitHealthy fits them). The
// pre-filter is constructed from cfg.Prefilter.
func New(cfg Config, members []pipeline.Model) (*Ensemble, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("ensemble: empty fleet")
	}
	if len(members) != len(cfg.Members) {
		return nil, fmt.Errorf("ensemble: %d models for %d member kinds", len(members), len(cfg.Members))
	}
	if cfg.Weights != nil && len(cfg.Weights) != len(cfg.Members) {
		return nil, fmt.Errorf("ensemble: %d weights for %d members", len(cfg.Weights), len(cfg.Members))
	}
	switch cfg.Fusion {
	case "", FusionRank, FusionMax, FusionWeighted:
	default:
		return nil, fmt.Errorf("ensemble: unknown fusion %q", cfg.Fusion)
	}
	if cfg.Fusion == "" {
		cfg.Fusion = FusionRank
	}
	if cfg.PassFrac <= 0 {
		cfg.PassFrac = 0.01
	}
	e := &Ensemble{Cfg: cfg}
	for i, kind := range cfg.Members {
		if members[i] == nil {
			return nil, fmt.Errorf("ensemble: nil model for member %q", kind)
		}
		if got := members[i].Kind(); got != kind {
			return nil, fmt.Errorf("ensemble: member %d is %q, config says %q", i, got, kind)
		}
		w := 1.0
		if cfg.Weights != nil {
			w = cfg.Weights[i]
		}
		m := &member{kind: kind, weight: w, model: members[i], cost: obs.CostFor(kind)}
		m.active.Store(true)
		e.members = append(e.members, m)
	}
	if cfg.Prefilter != "" {
		pre, err := pipeline.NewModelOfKind(cfg.Prefilter, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("ensemble: prefilter: %w", err)
		}
		e.pre = pre
	}
	e.sched.init(e)
	modelsActive.Set(float64(len(e.members)))
	return e, nil
}

// Kind implements pipeline.Model.
func (e *Ensemble) Kind() string { return "ensemble" }

// FitHealthy implements pipeline.Model: fleet members fit concurrently
// on the healthy (selected, scaled) rows, then the pre-filter and the
// rank-normalization references are calibrated on the same data. Train
// is the higher-level entry that drives this through pipeline.TrainAll
// from raw datasets.
func (e *Ensemble) FitHealthy(x *mat.Matrix) error {
	errs := make([]error, len(e.members))
	var wg sync.WaitGroup
	for i, m := range e.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			errs[i] = m.model.FitHealthy(x)
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("ensemble: fit member %q: %w", e.members[i].kind, err)
		}
	}
	return e.Calibrate(x)
}

// Calibrate fits the pre-filter and sets the cascade's reference
// distributions from already-fitted members. x is the healthy training
// matrix in the model's input space (selected + scaled). The pre-filter
// fits on three quarters of the rows (every index with i%4 != 3) and
// its pass margin is the (1 − PassFrac) quantile of its scores on the
// held-out quarter — so the pass-rate claim is measured on rows the
// pre-filter never saw.
func (e *Ensemble) Calibrate(x *mat.Matrix) error {
	if x.Rows < 8 {
		return fmt.Errorf("ensemble: %d rows is too few to calibrate", x.Rows)
	}
	if e.pre != nil {
		fitRows, holdRows := 0, 0
		for i := 0; i < x.Rows; i++ {
			if i%4 == 3 {
				holdRows++
			} else {
				fitRows++
			}
		}
		fit := mat.New(fitRows, x.Cols)
		hold := mat.New(holdRows, x.Cols)
		fi, hi := 0, 0
		for i := 0; i < x.Rows; i++ {
			if i%4 == 3 {
				copy(hold.Row(hi), x.Row(i))
				hi++
			} else {
				copy(fit.Row(fi), x.Row(i))
				fi++
			}
		}
		if err := e.pre.FitHealthy(fit); err != nil {
			return fmt.Errorf("ensemble: fit prefilter %q: %w", e.Cfg.Prefilter, err)
		}
		heldScores := e.pre.Scores(hold)
		e.margin = mat.Percentile(heldScores, 100*(1-e.Cfg.PassFrac))
		all := e.pre.Scores(x)
		sort.Float64s(all)
		e.preRef = downsampleSorted(all, maxRefPoints)
	}
	// Member reference distributions, computed concurrently: each fleet
	// member's sorted training scores back its empirical CDF at serve
	// time.
	refErr := make([]error, len(e.members))
	var wg sync.WaitGroup
	for i, m := range e.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					refErr[i] = fmt.Errorf("ensemble: reference scores for %q: %v", m.kind, r)
				}
			}()
			s := m.model.Scores(x)
			sorted := append([]float64(nil), s...)
			sort.Float64s(sorted)
			m.ref = downsampleSorted(sorted, maxRefPoints)
		}(i, m)
	}
	wg.Wait()
	for _, err := range refErr {
		if err != nil {
			return err
		}
	}
	return nil
}

// maxRefPoints bounds each reference distribution so huge training sets
// don't bloat the artifact; 2048 order statistics resolve the CDF far
// below the fusion's meaningful precision.
const maxRefPoints = 2048

// downsampleSorted thins a sorted slice to at most n evenly spaced
// order statistics, always keeping both extremes.
func downsampleSorted(s []float64, n int) []float64 {
	if len(s) <= n {
		return s
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = s[i*(len(s)-1)/(n-1)]
	}
	return out
}

// cdf returns the midrank empirical CDF of v against the sorted
// reference: (#below + #at-or-below) / 2n. Midranking makes ties
// deterministic regardless of member completion order or batch
// chunking.
func cdf(ref []float64, v float64) float64 {
	n := len(ref)
	if n == 0 {
		return 0.5
	}
	lo := sort.SearchFloat64s(ref, v)
	hi := sort.Search(n, func(i int) bool { return ref[i] > v })
	return (float64(lo) + float64(hi)) / (2 * float64(n))
}

// passthrough reports whether Scores must be a bit-exact proxy for a
// single fleet member: pre-filter disabled, one member. This is the
// cascade-off configuration the identity tests pin.
func (e *Ensemble) passthrough() bool {
	return e.pre == nil && len(e.members) == 1
}

// BeginBatch implements pipeline.BatchBeginner: the budget scheduler
// steps once per logical batch, before AnomalyDetector fans the batch out
// in chunks, and the returned scorer fuses every chunk over the active
// members snapshotted here — even while overlapping batches (tier
// replicas, job analysis) shed or restore members.
func (e *Ensemble) BeginBatch() pipeline.Scorer {
	if !e.passthrough() {
		e.sched.rebalance()
	}
	return batchScorer{e: e, active: e.snapshotActive()}
}

// batchScorer is one logical batch's view of the ensemble: the fitted
// state plus the member set BeginBatch snapshotted.
type batchScorer struct {
	e      *Ensemble
	active []*member
}

func (b batchScorer) Scores(x *mat.Matrix) []float64 { return b.e.scores(x, b.active) }

// snapshotActive returns the currently active fleet members in config
// order.
func (e *Ensemble) snapshotActive() []*member {
	active := make([]*member, 0, len(e.members))
	for _, m := range e.members {
		if m.active.Load() {
			active = append(active, m)
		}
	}
	return active
}

// Scores implements pipeline.Model over the members active at the call;
// it does not step the scheduler. Per-row outputs depend only on the
// fitted state and that member set, so results are identical across
// batch chunkings (AnomalyDetector's worker fan-out) and member
// completion orders.
func (e *Ensemble) Scores(x *mat.Matrix) []float64 {
	return e.scores(x, e.snapshotActive())
}

// scores runs the cascade over x, fusing the fleet stage over active.
func (e *Ensemble) scores(x *mat.Matrix, active []*member) []float64 {
	if e.passthrough() {
		m := e.members[0]
		start := time.Now()
		out := m.model.Scores(x)
		e.chargeMember(m, len(out), start)
		e.account(x.Rows, x.Rows)
		return out
	}
	if e.pre == nil {
		out := e.fuseAll(x, active)
		e.account(x.Rows, x.Rows)
		return out
	}

	instr := pipeline.InstrumentationEnabled()
	start := time.Now()
	pre := e.pre.Scores(x)
	if instr {
		obs.CostFor(e.Cfg.Prefilter).Record(len(pre), time.Since(start))
		stageDur.With(stagePrefilter).Observe(time.Since(start).Seconds())
	}

	out := make([]float64, x.Rows)
	var passIdx []int
	for i, s := range pre {
		if s > e.margin {
			passIdx = append(passIdx, i)
		} else {
			// Cleared rows report the pre-filter CDF, clamped strictly
			// under the fleet band so passed rows always outrank them.
			out[i] = math.Min(cdf(e.preRef, s), clearedCeil)
		}
	}
	e.account(x.Rows, len(passIdx))
	if len(passIdx) == 0 {
		return out
	}

	// Gather the suspicious tail into a pooled matrix and run the fleet.
	ws := mat.GetWorkspace()
	defer mat.Release(ws)
	tail := ws.Get(len(passIdx), x.Cols)
	for j, i := range passIdx {
		copy(tail.Row(j), x.Row(i))
	}
	fused := e.fuseAll(tail, active)
	for j, i := range passIdx {
		out[i] = 1 + fused[j]
	}
	return out
}

// clearedCeil keeps cleared-row scores strictly below the fleet band.
const clearedCeil = 1 - 1e-9

// fuseAll scores every row of tail with the given active fleet members
// and fuses their CDF values per row. An empty member set (which the
// scheduler avoids — it always keeps one member active; this guards
// artifact states loaded from older runs) fuses to 0.5.
func (e *Ensemble) fuseAll(tail *mat.Matrix, active []*member) []float64 {
	fused := make([]float64, tail.Rows)
	if len(active) == 0 {
		for i := range fused {
			fused[i] = 0.5
		}
		return fused
	}

	start := time.Now()
	scores := make([][]float64, len(active))
	var wg sync.WaitGroup
	for i, m := range active {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			if e.memberDelay != nil {
				e.memberDelay(m.kind)
			}
			mStart := time.Now()
			s := m.model.Scores(tail)
			e.chargeMember(m, len(s), mStart)
			scores[i] = s
		}(i, m)
	}
	wg.Wait()
	if pipeline.InstrumentationEnabled() {
		stageDur.With(stageFleet).Observe(time.Since(start).Seconds())
	}

	fuseStart := time.Now()
	totalW := 0.0
	for _, m := range active {
		totalW += m.weight
	}
	for row := range fused {
		switch e.Cfg.Fusion {
		case FusionMax:
			best := 0.0
			for i, m := range active {
				if c := cdf(m.ref, scores[i][row]); c > best {
					best = c
				}
			}
			fused[row] = best
		case FusionWeighted:
			sum := 0.0
			for i, m := range active {
				sum += m.weight * cdf(m.ref, scores[i][row])
			}
			fused[row] = sum / totalW
		default: // FusionRank
			sum := 0.0
			for i, m := range active {
				sum += cdf(m.ref, scores[i][row])
			}
			fused[row] = sum / float64(len(active))
		}
	}
	if pipeline.InstrumentationEnabled() {
		stageDur.With(stageFuse).Observe(time.Since(fuseStart).Seconds())
	}
	return fused
}

// chargeMember records a member's scoring work to its cost-ledger
// entry, honoring the benchmark-only instrumentation kill switch.
func (e *Ensemble) chargeMember(m *member, rows int, start time.Time) {
	if pipeline.InstrumentationEnabled() {
		m.cost.Record(rows, time.Since(start))
	}
}

// account updates the cascade throughput counters and the cumulative
// pass-fraction gauge.
func (e *Ensemble) account(rows, passed int) {
	seen := e.rowsSeen.Add(int64(rows))
	pass := e.rowsPassed.Add(int64(passed))
	if !pipeline.InstrumentationEnabled() {
		return
	}
	rowsTotal.Add(float64(rows))
	rowsPassedTotal.Add(float64(passed))
	if seen > 0 {
		prefilterPassFrac.Set(float64(pass) / float64(seen))
	}
}

// PassFrac returns the cumulative measured pass fraction (1.0 before
// any rows are scored with the pre-filter disabled).
func (e *Ensemble) PassFrac() float64 {
	seen := e.rowsSeen.Load()
	if seen == 0 {
		if e.pre == nil {
			return 1
		}
		return e.Cfg.PassFrac
	}
	return float64(e.rowsPassed.Load()) / float64(seen)
}
