// Package alert is a declarative alert-rule engine over the in-process
// tsdb: rules are data (loadable from a JSON file or the built-in set),
// evaluation runs after every scrape, and state transitions
// (inactive → pending → firing → resolved) are logged and exported as
// metrics so the alerting layer is itself observable.
//
// Two rule kinds cover the model-health questions the tsdb exists to
// answer:
//
//   - "query": a windowed tsdb aggregation (rate, delta, avg, min, max,
//     quantile, frac_over) compared against a threshold — anomaly-rate
//     spikes, ingest-lag p99, latency SLO burn.
//   - "score_shift": the live score-distribution sketch tested against
//     the model's training-score baseline, via the drift
//     package's KS machinery; Threshold is the p-value below which the
//     shift fires.
//
// Determinism: the engine owns no clock — Eval receives the scrape
// timestamp, so tests and the e2e demo drive it with a fake clock.
package alert

import (
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"prodigy/internal/obs"
	"prodigy/internal/obs/tsdb"
)

// Rule kinds.
const (
	KindQuery      = "query"
	KindScoreShift = "score_shift"
)

// Duration wraps time.Duration with "90s"/"5m" JSON encoding, so rule
// files read like Prometheus configs rather than nanosecond integers.
type Duration time.Duration

// MarshalJSON renders the duration as its Go string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts either a duration string ("90s") or a number of
// seconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("alert: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("alert: duration must be a string or seconds: %s", b)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Rule is one declarative alert. Zero values mean "unset"; Validate
// fills nothing in — defaults belong to the rule author.
type Rule struct {
	// Name identifies the rule in /api/alerts, logs and metrics state.
	Name string `json:"name"`
	// Kind is "query" (tsdb aggregation vs. threshold) or "score_shift"
	// (live sketch vs. baseline snapshot).
	Kind string `json:"kind"`
	// Metric is the tsdb series name a query rule evaluates (the
	// histogram family name for quantile/frac_over). Unused by
	// score_shift.
	Metric string `json:"metric,omitempty"`
	// Labels restrict the query to series matching every pair exactly.
	Labels map[string]string `json:"labels,omitempty"`
	// Agg is the windowed aggregation for query rules.
	Agg string `json:"agg,omitempty"`
	// Q is the quantile for agg "quantile".
	Q float64 `json:"q,omitempty"`
	// Bound is the threshold value for agg "frac_over".
	Bound float64 `json:"bound,omitempty"`
	// Window is the trailing aggregation window.
	Window Duration `json:"window,omitempty"`
	// Op compares the aggregated value to Threshold: "gt" or "lt".
	Op string `json:"op,omitempty"`
	// Threshold is the comparison value; for score_shift it is the KS
	// p-value below which the shift is considered real.
	Threshold float64 `json:"threshold"`
	// For is how long the condition must hold before the alert fires
	// (the pending state). Zero fires on the first bad evaluation.
	For Duration `json:"for,omitempty"`
	// Severity is free-form operator routing data ("page", "warn").
	Severity string `json:"severity,omitempty"`
	// MinCount gates score_shift: the live sketch must hold at least
	// this many observations before a shift verdict counts, so a
	// freshly deployed model is not judged on ten rows.
	MinCount uint64 `json:"min_count,omitempty"`
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Validate rejects malformed rules at load time, so a typo in a rules
// file is a startup error instead of an alert that never fires.
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("alert: rule missing name")
	}
	switch r.Kind {
	case KindScoreShift:
		if r.Threshold <= 0 || r.Threshold >= 1 {
			return fmt.Errorf("alert: rule %q: score_shift threshold is a p-value in (0,1), got %v", r.Name, r.Threshold)
		}
		return nil
	case KindQuery:
	default:
		return fmt.Errorf("alert: rule %q: unknown kind %q", r.Name, r.Kind)
	}
	if !metricNameRE.MatchString(r.Metric) {
		return fmt.Errorf("alert: rule %q: metric %q is not a well-formed metric name", r.Name, r.Metric)
	}
	agg, err := tsdb.ParseAgg(r.Agg)
	if err != nil {
		return fmt.Errorf("alert: rule %q: %w", r.Name, err)
	}
	if agg == tsdb.AggRaw {
		return fmt.Errorf("alert: rule %q: query rules need a windowed agg, not raw", r.Name)
	}
	if agg == tsdb.AggQuantile && (r.Q <= 0 || r.Q >= 1) {
		return fmt.Errorf("alert: rule %q: quantile q must be in (0,1), got %v", r.Name, r.Q)
	}
	if time.Duration(r.Window) <= 0 {
		return fmt.Errorf("alert: rule %q: window must be positive", r.Name)
	}
	switch r.Op {
	case "gt", "lt":
	default:
		return fmt.Errorf("alert: rule %q: op must be gt or lt, got %q", r.Name, r.Op)
	}
	return nil
}

// query converts a validated query rule to its tsdb form.
func (r *Rule) query() tsdb.AggQuery {
	agg, _ := tsdb.ParseAgg(r.Agg)
	return tsdb.AggQuery{
		Name:     r.Metric,
		Matchers: r.Labels,
		Agg:      agg,
		Q:        r.Q,
		Bound:    r.Bound,
		Window:   time.Duration(r.Window),
	}
}

// Alert states.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// ShiftFunc reports the live score distribution tested against the
// model's baseline: the KS statistic, its p-value, the live observation
// count, and ok=false when either side is missing.
type ShiftFunc func() (stat, pValue float64, n uint64, ok bool)

// state is one rule's evaluation history.
type state struct {
	current    string
	pendingAt  time.Time // when the condition first held
	firedAt    time.Time
	resolvedAt time.Time
	lastValue  float64
	lastOK     bool
}

// Alert is one rule's externally visible status, as served by
// /api/alerts.
type Alert struct {
	Rule       Rule      `json:"rule"`
	State      string    `json:"state"`
	Value      float64   `json:"value"`
	Evaluable  bool      `json:"evaluable"`
	PendingAt  time.Time `json:"pending_at,omitempty"`
	FiredAt    time.Time `json:"fired_at,omitempty"`
	ResolvedAt time.Time `json:"resolved_at,omitempty"`
}

// Engine evaluates rules against a tsdb store. Safe for concurrent use:
// Eval runs from the scrape loop, Alerts from HTTP handlers.
type Engine struct {
	store *tsdb.Store
	shift ShiftFunc
	log   *obs.Logger

	mu     sync.Mutex
	rules  []Rule
	states map[string]*state
}

// Engine self-metrics. The label set of alert_transitions_total is the
// closed state vocabulary above.
var (
	alertsFiring = obs.Default.NewGauge("alerts_firing",
		"Alert rules currently in the firing state.")
	alertTransitions = obs.Default.NewCounterVec("alert_transitions_total",
		"Alert state transitions, by new state.", "state")
	alertEvals = obs.Default.NewCounter("alert_evaluations_total",
		"Alert rule evaluations performed.")
)

// NewEngine returns an engine over store. shift may be nil when no
// score_shift rule is loaded; log nil defaults to the process logger.
func NewEngine(store *tsdb.Store, shift ShiftFunc, log *obs.Logger) *Engine {
	if log == nil {
		log = obs.Log
	}
	return &Engine{
		store:  store,
		shift:  shift,
		log:    log,
		states: make(map[string]*state),
	}
}

// SetRules validates and installs the rule set, resetting state for
// rules whose definition changed.
func (e *Engine) SetRules(rules []Rule) error {
	seen := map[string]bool{}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return err
		}
		if seen[rules[i].Name] {
			return fmt.Errorf("alert: duplicate rule name %q", rules[i].Name)
		}
		seen[rules[i].Name] = true
		if rules[i].Kind == KindScoreShift && e.shift == nil {
			return fmt.Errorf("alert: rule %q: score_shift needs a shift source (no detector wired)", rules[i].Name)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rules = append([]Rule(nil), rules...)
	for name := range e.states {
		if !seen[name] {
			delete(e.states, name)
		}
	}
	return nil
}

// LoadRules parses a JSON rule file: either a bare array of rules or
// {"rules": [...]}.
func LoadRules(data []byte) ([]Rule, error) {
	trimmed := strings.TrimSpace(string(data))
	var rules []Rule
	if strings.HasPrefix(trimmed, "[") {
		if err := json.Unmarshal(data, &rules); err != nil {
			return nil, fmt.Errorf("alert: bad rules file: %w", err)
		}
	} else {
		var wrapper struct {
			Rules []Rule `json:"rules"`
		}
		if err := json.Unmarshal(data, &wrapper); err != nil {
			return nil, fmt.Errorf("alert: bad rules file: %w", err)
		}
		rules = wrapper.Rules
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// condition evaluates one rule's raw predicate at `now`.
func (e *Engine) condition(r *Rule, now time.Time) (value float64, bad, ok bool) {
	switch r.Kind {
	case KindScoreShift:
		_, p, n, shiftOK := e.shift()
		if !shiftOK || n < r.MinCount {
			return 0, false, false
		}
		return p, p < r.Threshold, true
	default:
		v, evalOK := e.store.EvalAgg(r.query(), now)
		if !evalOK {
			return 0, false, false
		}
		if r.Op == "gt" {
			return v, v > r.Threshold, true
		}
		return v, v < r.Threshold, true
	}
}

// Eval advances every rule's state machine at the given scrape time —
// wired as the tsdb's AfterScrape hook so each new point is judged
// exactly once.
func (e *Engine) Eval(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	firing := 0
	for i := range e.rules {
		r := &e.rules[i]
		st, okState := e.states[r.Name]
		if !okState {
			st = &state{current: StateInactive}
			e.states[r.Name] = st
		}
		alertEvals.Inc()
		value, bad, ok := e.condition(r, now)
		st.lastValue, st.lastOK = value, ok

		switch {
		case bad && st.current != StateFiring:
			if st.current != StatePending {
				st.pendingAt = now
				e.transition(r, st, StatePending, value, now)
			}
			if now.Sub(st.pendingAt) >= time.Duration(r.For) {
				st.firedAt = now
				e.transition(r, st, StateFiring, value, now)
			}
		case !bad && st.current == StateFiring:
			st.resolvedAt = now
			e.transition(r, st, StateResolved, value, now)
		case !bad && st.current == StatePending:
			// Condition cleared before For elapsed: back to inactive,
			// silently (a flap that never fired is not operator news).
			st.current = StateInactive
		}
		if st.current == StateFiring {
			firing++
		}
	}
	alertsFiring.Set(float64(firing))
}

// transition flips the state and emits the operator-facing log line.
func (e *Engine) transition(r *Rule, st *state, to string, value float64, now time.Time) {
	st.current = to
	alertTransitions.With(to).Inc()
	switch to {
	case StateFiring:
		e.log.Warn("alert firing",
			"rule", r.Name, "severity", r.Severity, "value", value,
			"threshold", r.Threshold, "at", now.UTC().Format(time.RFC3339))
	case StateResolved:
		e.log.Info("alert resolved",
			"rule", r.Name, "value", value, "at", now.UTC().Format(time.RFC3339))
	default:
		e.log.Debug("alert pending", "rule", r.Name, "value", value)
	}
}

// Alerts snapshots every rule's status, sorted firing first then by
// name — the /api/alerts payload.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.rules))
	for i := range e.rules {
		r := e.rules[i]
		st := e.states[r.Name]
		a := Alert{Rule: r, State: StateInactive}
		if st != nil {
			a.State = st.current
			a.Value = st.lastValue
			a.Evaluable = st.lastOK
			if st.current == StatePending || st.current == StateFiring {
				a.PendingAt = st.pendingAt
			}
			if !st.firedAt.IsZero() {
				a.FiredAt = st.firedAt
			}
			if st.current == StateResolved {
				a.ResolvedAt = st.resolvedAt
			}
		}
		out = append(out, a)
	}
	rank := func(s string) int {
		switch s {
		case StateFiring:
			return 0
		case StatePending:
			return 1
		case StateResolved:
			return 2
		}
		return 3
	}
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := rank(out[i].State), rank(out[j].State); ri != rj {
			return ri < rj
		}
		return out[i].Rule.Name < out[j].Rule.Name
	})
	return out
}

// FiringCount returns how many rules are currently firing.
func (e *Engine) FiringCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, st := range e.states {
		if st.current == StateFiring {
			n++
		}
	}
	return n
}

// DefaultRules is the built-in model-health rule set prodigyd installs
// when no -alert-rules file is given. Thresholds are deliberately
// conservative; operators override via the rules file.
func DefaultRules() []Rule {
	return []Rule{
		{
			Name:      "anomaly-rate-spike",
			Kind:      KindQuery,
			Metric:    "prodigy_anomalies_total",
			Agg:       "rate",
			Window:    Duration(60 * time.Second),
			Op:        "gt",
			Threshold: 0.5, // >0.5 threshold crossings/sec sustained for 30s
			For:       Duration(30 * time.Second),
			Severity:  "warn",
		},
		{
			Name:      "score-distribution-shift",
			Kind:      KindScoreShift,
			Threshold: 0.01, // KS p-value
			MinCount:  256,
			Severity:  "page",
		},
		{
			Name:      "ingest-lag-p99",
			Kind:      KindQuery,
			Metric:    "online_ingest_lag_seconds",
			Agg:       "quantile",
			Q:         0.99,
			Window:    Duration(5 * time.Minute),
			Op:        "gt",
			Threshold: 60, // p99 staleness above a minute
			For:       Duration(60 * time.Second),
			Severity:  "warn",
		},
		{
			Name:      "latency-slo-burn",
			Kind:      KindQuery,
			Metric:    "http_request_duration_seconds",
			Agg:       "frac_over",
			Bound:     0.25,
			Window:    Duration(5 * time.Minute),
			Op:        "gt",
			Threshold: 0.05, // >5% of requests slower than 250ms
			For:       Duration(60 * time.Second),
			Severity:  "warn",
		},
		{
			Name:      "serve-shed-rate",
			Kind:      KindQuery,
			Metric:    "serve_shed_total",
			Agg:       "rate",
			Window:    Duration(60 * time.Second),
			Op:        "gt",
			Threshold: 1, // >1 shed scoring request/sec sustained for 60s
			For:       Duration(60 * time.Second),
			Severity:  "warn",
		},
	}
}
