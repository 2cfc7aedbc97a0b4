package ensemble

// SetMemberDelayForTest installs a hook that runs before each fleet
// member's Scores call — the completion-order determinism tests use it
// to force members to finish in arbitrary orders.
func (e *Ensemble) SetMemberDelayForTest(fn func(kind string)) { e.memberDelay = fn }

// MemberRef exposes a member's rank-reference distribution for tests.
func (e *Ensemble) MemberRef(i int) []float64 { return e.members[i].ref }

// ModelsActiveForTest reads the ensemble_models_active gauge.
func ModelsActiveForTest() float64 { return modelsActive.Value() }

// ForceActiveForTest flips a member's scheduler flag directly.
func (e *Ensemble) ForceActiveForTest(kind string, active bool) {
	for _, m := range e.members {
		if m.kind == kind {
			m.active.Store(active)
		}
	}
	e.sched.publishActive()
}

// PrefilterNsForTest is the pre-filter cost the budget scheduler's
// estimate adds per row.
func (e *Ensemble) PrefilterNsForTest() float64 { return e.prefilterNs() }
