package ensemble

import "sync"

// The budget scheduler: keeps the cascade's estimated ns/row under a
// configured budget by deactivating the most expensive fleet members
// first and restoring them (cheapest first) once the estimate recovers
// with hysteresis. Cost estimates come from the obs cost ledger —
// measured ns/row per model kind, which the instrumented member calls in
// fuseAll keep fresh — with static priors before the first measurement.
// A serve-tier load probe adds queue-depth pressure: a backed-up queue
// sheds like a blown budget even when the per-row estimate looks fine,
// so model cost drops before the tier starts shedding requests
// (DESIGN.md §16 discusses the interaction).
type scheduler struct {
	e  *Ensemble
	mu sync.Mutex
	// loadProbe reports (queued rows, queue capacity); nil means no
	// serve-tier signal.
	loadProbe func() (queued, capacity int)
	budgetNs  float64
}

// Static ns/row priors used until the ledger has a measurement for a
// kind. Only the relative order matters for shedding; LOF's kNN against
// the training set dwarfs everything else.
var costPriors = map[string]float64{
	"lof":     50000,
	"usad":    30000,
	"vae":     20000,
	"iforest": 5000,
	"kmeans":  1000,
	"naive":   200,
}

func (s *scheduler) init(e *Ensemble) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.e = e
	s.budgetNs = e.Cfg.BudgetNs
}

// SetBudgetNs (re)configures the scheduler's ns/row budget at runtime;
// 0 disables budget shedding. Safe for concurrent use.
func (e *Ensemble) SetBudgetNs(ns float64) {
	e.sched.mu.Lock()
	defer e.sched.mu.Unlock()
	e.sched.budgetNs = ns
}

// SetLoadProbe wires a serve-tier queue-depth signal into the
// scheduler — prodigyd passes the tier's QueuedRows against its
// capacity. Safe for concurrent use.
func (e *Ensemble) SetLoadProbe(probe func() (queued, capacity int)) {
	e.sched.mu.Lock()
	defer e.sched.mu.Unlock()
	e.sched.loadProbe = probe
}

// memberNs returns the best cost estimate for one fleet member:
// measured ledger ns/row when available, static prior otherwise.
func memberNs(m *member) float64 {
	if ns := m.cost.NsPerRow(); ns > 0 {
		return ns
	}
	if ns, ok := costPriors[m.kind]; ok {
		return ns
	}
	return 10000
}

// prefilterNs returns the pre-filter's cost estimate: its measured
// ledger ns/row, read from the entry the ensemble resolved when it was
// built, or its static prior before the first measurement.
func (e *Ensemble) prefilterNs() float64 {
	if ns := e.preCost.NsPerRow(); ns > 0 {
		return ns
	}
	return costPriors[e.Cfg.Prefilter]
}

// Queue-pressure thresholds: above the high-water fraction of tier
// capacity the scheduler sheds regardless of the ns/row estimate; only
// below the low-water mark does it restore. The gap is the hysteresis
// that keeps membership from flapping at the boundary.
const (
	queueHighWater = 0.5
	queueLowWater  = 0.1
	// restoreHeadroom is the budget fraction the post-restore estimate
	// must fit in before a shed member comes back.
	restoreHeadroom = 0.9
)

// rebalance runs once per logical batch, from BeginBatch (amortized: a
// mutex and a few float comparisons). It sheds at most one member and
// restores at most one member per call, so membership moves one step at
// a time and the ledger re-measures between steps.
func (s *scheduler) rebalance() {
	s.mu.Lock()
	budget := s.budgetNs
	probe := s.loadProbe
	s.mu.Unlock()

	queuePressure, queueCalm := false, true
	if probe != nil {
		queued, capacity := probe()
		if capacity > 0 {
			frac := float64(queued) / float64(capacity)
			queuePressure = frac > queueHighWater
			queueCalm = frac < queueLowWater
		}
	}
	if budget <= 0 && probe == nil {
		s.restoreAll()
		return
	}

	e := s.e
	passFrac := e.PassFrac()
	// Estimated cascade cost per row: the always-on pre-filter plus the
	// pass-fraction-weighted active fleet.
	est := 0.0
	if e.pre != nil {
		est = e.prefilterNs()
	}
	var activeNs float64
	active, inactive := 0, 0
	for _, m := range e.members {
		if m.active.Load() {
			activeNs += memberNs(m)
			active++
		} else {
			inactive++
		}
	}
	est += passFrac * activeNs

	overBudget := budget > 0 && est > budget
	if (overBudget || queuePressure) && active > 1 {
		s.shedOne()
		return
	}
	if inactive == 0 || !queueCalm {
		return
	}
	// Restore the cheapest inactive member if the estimate stays inside
	// the headroom after adding it back (or unconditionally when budget
	// shedding is off and only queue pressure shed it).
	cand := cheapestInactive(e.members)
	if cand == nil {
		return
	}
	if budget > 0 && est+passFrac*memberNs(cand) > restoreHeadroom*budget {
		return
	}
	cand.active.Store(true)
	schedTransitions.With(actionRestore).Inc()
	s.publishActive()
}

// shedOne deactivates the most expensive active member, never the last
// one — the cascade always keeps at least one detector answering.
func (s *scheduler) shedOne() {
	var victim *member
	victimNs := -1.0
	active := 0
	for _, m := range s.e.members {
		if !m.active.Load() {
			continue
		}
		active++
		ns := memberNs(m)
		// Deterministic tie-break: higher cost wins, then later kind name.
		if ns > victimNs || (ns == victimNs && victim != nil && m.kind > victim.kind) {
			victim, victimNs = m, ns
		}
	}
	if victim == nil || active <= 1 {
		return
	}
	victim.active.Store(false)
	schedTransitions.With(actionShed).Inc()
	s.publishActive()
}

// restoreAll reactivates the whole fleet (budget shedding disabled).
func (s *scheduler) restoreAll() {
	changed := false
	for _, m := range s.e.members {
		if !m.active.Load() {
			m.active.Store(true)
			schedTransitions.With(actionRestore).Inc()
			changed = true
		}
	}
	if changed {
		s.publishActive()
	}
}

// cheapestInactive returns the lowest-cost shed member, tie-broken by
// kind name for determinism.
func cheapestInactive(members []*member) *member {
	var best *member
	bestNs := 0.0
	for _, m := range members {
		if m.active.Load() {
			continue
		}
		ns := memberNs(m)
		if best == nil || ns < bestNs || (ns == bestNs && m.kind < best.kind) {
			best, bestNs = m, ns
		}
	}
	return best
}

// publishActive refreshes the ensemble_models_active gauge.
func (s *scheduler) publishActive() {
	n := 0
	for _, m := range s.e.members {
		if m.active.Load() {
			n++
		}
	}
	modelsActive.Set(float64(n))
}

// ActiveMembers returns the kinds of currently active fleet members in
// config order — the health endpoint's view.
func (e *Ensemble) ActiveMembers() []string {
	out := make([]string, 0, len(e.members))
	for _, m := range e.members {
		if m.active.Load() {
			out = append(out, m.kind)
		}
	}
	return out
}

// MemberStatus is one fleet member's row in Status.
type MemberStatus struct {
	Kind     string  `json:"kind"`
	Active   bool    `json:"active"`
	Weight   float64 `json:"weight"`
	NsPerRow float64 `json:"ns_per_row"`
}

// Status is the ensemble introspection payload /api/health embeds.
type Status struct {
	Prefilter string         `json:"prefilter,omitempty"`
	Margin    float64        `json:"margin,omitempty"`
	PassFrac  float64        `json:"pass_frac"`
	Fusion    Fusion         `json:"fusion"`
	BudgetNs  float64        `json:"budget_ns"`
	Members   []MemberStatus `json:"members"`
}

// Status snapshots the cascade for the health endpoint.
func (e *Ensemble) Status() Status {
	e.sched.mu.Lock()
	budget := e.sched.budgetNs
	e.sched.mu.Unlock()
	st := Status{
		Prefilter: e.Cfg.Prefilter,
		Margin:    e.margin,
		PassFrac:  e.PassFrac(),
		Fusion:    e.Cfg.Fusion,
		BudgetNs:  budget,
	}
	for _, m := range e.members {
		st.Members = append(st.Members, MemberStatus{
			Kind:     m.kind,
			Active:   m.active.Load(),
			Weight:   m.weight,
			NsPerRow: m.cost.NsPerRow(),
		})
	}
	return st
}
