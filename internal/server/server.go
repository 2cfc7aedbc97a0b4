// Package server implements the deployment pipeline's user-facing service
// (paper §4, Figures 2 and 4): the role the Grafana → Apache → Django
// stack plays on the production system. A user supplies a job ID and
// selects an analysis; the server queries the DSOS store, runs the
// requested Python-module equivalent (anomaly detection, raw metrics,
// CoMTE explanations) and returns JSON the dashboard renders.
//
// Endpoints:
//
//	GET /api/health                      — model and store status
//	GET /api/jobs                        — ingested job IDs
//	GET /api/jobs/{id}/anomalies         — per-node anomaly predictions
//	GET /api/jobs/{id}/explain?component=N — CoMTE explanation for a node
//	GET /api/jobs/{id}/metrics?component=N&metric=MemFree::meminfo — raw series
package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"

	"prodigy/internal/core"
	"prodigy/internal/diagnose"
	"prodigy/internal/drift"
	"prodigy/internal/dsos"
	"prodigy/internal/ensemble"
	"prodigy/internal/ldms"
	"prodigy/internal/obs"
	"prodigy/internal/obs/alert"
	"prodigy/internal/obs/tsdb"
	"prodigy/internal/pipeline"
	"prodigy/internal/serve"
	"prodigy/internal/timeseries"
)

// Server serves the analysis dashboard API. Its handlers are safe for
// concurrent use — net/http serves each request in its own goroutine, and
// every scoring path goes through core.Prodigy's stateless read paths;
// only the drift monitor needs the server's own mutex.
type Server struct {
	Store   *dsos.Store
	Prodigy *core.Prodigy
	// Diagnoser, when set, enables /api/jobs/{id}/diagnose — anomaly-type
	// triage of flagged nodes.
	Diagnoser *diagnose.Classifier
	// Drift, when set, accumulates healthy-predicted scores from the
	// anomaly dashboard and serves /api/drift — the model-staleness check.
	Drift *drift.Monitor
	// TSDB, when set, serves /api/timeseries and backs /dashboard — the
	// in-process metric history (windowed rates, quantiles-over-time).
	TSDB *tsdb.Store
	// Alerts, when set, serves /api/alerts — the rule engine's current
	// firing/pending/resolved states.
	Alerts *alert.Engine
	// Tier is the coalescing serving tier every /api/score request routes
	// through (see internal/serve): submissions are micro-batched into
	// its shards, all of which score with Prodigy's deployed model. Job
	// analyses run on Prodigy directly. New constructs one automatically;
	// Close stops it.
	Tier *serve.Tier

	mu      sync.Mutex // guards Drift observations
	mux     *http.ServeMux
	handler http.Handler // mux wrapped with instrumentation middleware
}

// New wires a server over a telemetry store and a trained Prodigy. Beyond
// the dashboard API it mounts the self-monitoring surface: /metrics
// (Prometheus text exposition), /debug/vars (expvar snapshot including
// the slow-span ring) and /debug/pprof (the stdlib profiler, for
// profiling the scoring hot paths under live traffic).
func New(store *dsos.Store, p *core.Prodigy) *Server {
	var tier *serve.Tier
	if p != nil {
		tier = serve.NewTier(p, serve.DefaultConfig())
	}
	return NewWithTier(store, p, tier)
}

// NewWithTier is New with a caller-configured serving tier over p (shard
// count, coalescing window, queue bound — see serve.Config). The server
// takes ownership: Close stops it.
func NewWithTier(store *dsos.Store, p *core.Prodigy, tier *serve.Tier) *Server {
	s := &Server{Store: store, Prodigy: p, Tier: tier, mux: http.NewServeMux()}
	s.mux.HandleFunc("/api/health", s.handleHealth)
	s.mux.HandleFunc("/api/jobs", s.handleJobs)
	s.mux.HandleFunc("/api/jobs/", s.handleJob)
	s.mux.HandleFunc("/api/drift", s.handleDrift)
	s.mux.HandleFunc("/api/score", s.handleScore)
	s.mux.HandleFunc("/api/timeseries", s.handleTimeseries)
	s.mux.HandleFunc("/api/alerts", s.handleAlerts)
	s.mux.HandleFunc("/debug/spans", s.handleSpans)
	s.mux.HandleFunc("/dashboard", s.handleDashboard)
	obs.PublishExpvar()
	s.mux.Handle("/metrics", obs.Handler())
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.handler = instrument(s.mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close stops the serving tier, draining queued scoring requests and
// joining its flusher goroutines. The non-scoring endpoints keep working;
// scoring requests after Close are shed with 429.
func (s *Server) Close() {
	if s.Tier != nil {
		s.Tier.Stop()
	}
}

// writeJSON writes v with a 200 status.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeError writes a JSON error payload, counts it under
// http_errors_total{route,class} so 4xx/5xx are distinguishable from
// silence, and routes it through the leveled logger (client errors at
// debug — they are the caller's problem — server errors at error).
func writeError(w http.ResponseWriter, r *http.Request, status int, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	route := routeLabel(r.URL.Path)
	class := statusClass(status)
	httpErrors.With(route, class).Inc()
	if status >= 500 {
		obs.Error("request failed", "route", route, "path", r.URL.Path, "status", status, "err", msg)
	} else {
		obs.Debug("request rejected", "route", route, "path", r.URL.Path, "status", status, "err", msg)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// handleHealth reports model snapshot metadata next to store liveness: the
// decision threshold, feature count and process uptime,
// plus the p50/p95/p99 of the reconstruction-error distribution scored so
// far — the same values the obs gauges export on /metrics.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	trained := s.Prodigy != nil && s.Prodigy.Trained()
	var featureCount int
	if s.Prodigy != nil {
		featureCount = len(s.Prodigy.FeatureNames())
	}
	p50, p95, p99 := pipeline.ScoreQuantiles()
	resp := map[string]interface{}{
		"status":         "ok",
		"trained":        trained,
		"jobs":           len(s.Store.Jobs()),
		"rows":           s.Store.NumRows(),
		"threshold":      s.thresholdOrZero(),
		"features":       featureCount,
		"uptime_seconds": obs.Uptime().Seconds(),
		"score_p50":      p50,
		"score_p95":      p95,
		"score_p99":      p99,
		"cost_ledger":    obs.LedgerSnapshot(),
	}
	if trained {
		resp["model_kind"] = s.Prodigy.ModelKind()
		// Cascade introspection: when the deployed artifact is the budgeted
		// ensemble, expose the pre-filter margin, live pass fraction, fusion
		// rule, and per-member active/cost status the budget scheduler acts
		// on (ensemble_models_active's JSON twin).
		if ens, ok := ensemble.Of(s.Prodigy.Artifact()); ok {
			resp["ensemble"] = ens.Status()
		}
	}
	if s.Tier != nil {
		resp["serve"] = map[string]interface{}{
			"replicas":       s.Tier.Replicas(),
			"queued_rows":    s.Tier.QueuedRows(),
			"queue_capacity": s.Tier.QueueCapacity(),
		}
	}
	writeJSON(w, resp)
}

func (s *Server) thresholdOrZero() float64 {
	if s.Prodigy == nil || !s.Prodigy.Trained() {
		return 0
	}
	return s.Prodigy.Threshold()
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]interface{}{"jobs": s.Store.Jobs()})
}

// handleJob dispatches /api/jobs/{id}/{analysis}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/api/jobs/")
	parts := strings.SplitN(rest, "/", 2)
	jobID, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "invalid job id %q", parts[0])
		return
	}
	analysis := ""
	if len(parts) == 2 {
		analysis = parts[1]
	}
	switch analysis {
	case "anomalies":
		s.handleAnomalies(w, r, jobID)
	case "explain":
		s.handleExplain(w, r, jobID)
	case "diagnose":
		s.handleDiagnose(w, r, jobID)
	case "metrics":
		s.handleMetrics(w, r, jobID)
	case "":
		analyses := []string{"anomalies", "explain", "metrics"}
		if s.Diagnoser != nil {
			analyses = append(analyses, "diagnose")
		}
		writeJSON(w, map[string]interface{}{
			"job_id":     jobID,
			"components": s.Store.Components(jobID),
			"analyses":   analyses,
		})
	default:
		writeError(w, r, http.StatusNotFound, "unknown analysis %q", analysis)
	}
}

// handleAnomalies is the anomaly detection dashboard (Figure 4): binary
// prediction per compute node of the job.
func (s *Server) handleAnomalies(w http.ResponseWriter, r *http.Request, jobID int64) {
	if s.Prodigy == nil || !s.Prodigy.Trained() {
		writeError(w, r, http.StatusServiceUnavailable, "no trained model deployed")
		return
	}
	report, err := s.Prodigy.AnalyzeJob(s.Store, jobID)
	if err != nil {
		writeError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	if s.Drift != nil {
		// Healthy-predicted scores feed the staleness monitor: a drifting
		// healthy distribution is the retrain signal.
		s.mu.Lock()
		for _, n := range report {
			if !n.Anomalous {
				s.Drift.Observe(n.Score)
			}
		}
		s.mu.Unlock()
	}
	writeJSON(w, map[string]interface{}{"job_id": jobID, "nodes": report})
}

// handleDiagnose classifies the anomaly type of a flagged node.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request, jobID int64) {
	if s.Prodigy == nil || !s.Prodigy.Trained() {
		writeError(w, r, http.StatusServiceUnavailable, "no trained model deployed")
		return
	}
	if s.Diagnoser == nil {
		writeError(w, r, http.StatusNotImplemented, "no diagnoser deployed")
		return
	}
	comp, err := strconv.Atoi(r.URL.Query().Get("component"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "component query parameter required")
		return
	}
	vec, err := s.Prodigy.JobNodeVector(s.Store, jobID, comp)
	if err != nil {
		writeError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	anomalous, score := s.Prodigy.DetectVector(vec)
	if !anomalous {
		writeError(w, r, http.StatusUnprocessableEntity,
			"component %d is predicted healthy (score %.5f); nothing to diagnose", comp, score)
		return
	}
	d, err := s.Diagnoser.Classify(vec)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, map[string]interface{}{
		"job_id":       jobID,
		"component_id": comp,
		"score":        score,
		"type":         d.Type,
		"confidence":   d.Confidence,
		"votes":        d.Votes,
	})
}

// handleDrift reports the model-staleness monitor's state.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if s.Drift == nil {
		writeError(w, r, http.StatusNotImplemented, "no drift monitor deployed")
		return
	}
	s.mu.Lock()
	rep := s.Drift.Check()
	window := s.Drift.WindowSize()
	s.mu.Unlock()
	// The process-wide score distribution gives the drift verdict context:
	// a KS rejection with stable percentiles is noise, one with a moving
	// p95/p99 is the retrain signal.
	p50, p95, p99 := pipeline.ScoreQuantiles()
	writeJSON(w, map[string]interface{}{
		"drifted":   rep.Drifted,
		"ks":        rep.KS,
		"p_value":   rep.PValue,
		"psi":       rep.PSI,
		"window":    window,
		"score_p50": p50,
		"score_p95": p95,
		"score_p99": p99,
	})
}

// handleExplain returns the CoMTE counterfactual for one anomalous node.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, jobID int64) {
	if s.Prodigy == nil || !s.Prodigy.Trained() {
		writeError(w, r, http.StatusServiceUnavailable, "no trained model deployed")
		return
	}
	comp, err := strconv.Atoi(r.URL.Query().Get("component"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "component query parameter required")
		return
	}
	expl, err := s.Prodigy.ExplainJobNode(s.Store, jobID, comp)
	if expl == nil {
		if err == nil {
			writeError(w, r, http.StatusUnprocessableEntity,
				"no explanation available for job %d component %d", jobID, comp)
			return
		}
		writeError(w, r, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	resp := map[string]interface{}{
		"job_id":       jobID,
		"component_id": comp,
		"metrics":      expl.Metrics,
		"score_before": expl.ScoreBefore,
		"score_after":  expl.ScoreAfter,
	}
	if err != nil {
		// Larger-than-requested explanations are still returned, flagged.
		resp["note"] = err.Error()
	}
	writeJSON(w, resp)
}

// handleMetrics returns a raw metric series for dashboard plotting (the
// "investigate how specific metrics change over execution" flow of §4.1).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, jobID int64) {
	comp, err := strconv.Atoi(r.URL.Query().Get("component"))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "component query parameter required")
		return
	}
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		writeError(w, r, http.StatusBadRequest, "metric query parameter required")
		return
	}
	parts := strings.SplitN(metric, "::", 2)
	if len(parts) != 2 {
		writeError(w, r, http.StatusBadRequest, "metric must be qualified as name::sampler")
		return
	}
	tb, err := s.Store.QuerySampler(jobID, comp, ldms.SamplerName(parts[1]))
	if err != nil {
		writeError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	col := tb.Column(metric)
	if col == nil {
		writeError(w, r, http.StatusNotFound, "metric %q not found", metric)
		return
	}
	// Dropped samples are NaN in storage, which JSON cannot carry; emit
	// null for them, as the production dashboard does.
	values := make([]interface{}, len(col))
	for i, v := range col {
		if timeseries.IsMissing(v) {
			values[i] = nil
		} else {
			values[i] = v
		}
	}
	writeJSON(w, map[string]interface{}{
		"job_id":       jobID,
		"component_id": comp,
		"metric":       metric,
		"timestamps":   tb.Timestamps,
		"values":       values,
	})
}
