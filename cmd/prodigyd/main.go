// Command prodigyd runs the full deployment pipeline of §4 end to end on a
// simulated system: it boots a cluster, runs a stream of jobs (some with
// injected anomalies) collected through LDMS into the DSOS store, trains
// Prodigy on an initial healthy window, optionally replays extra jobs
// through the streaming detector, and serves the analysis dashboard API
// over HTTP — including the self-monitoring surface (/metrics,
// /debug/vars, /debug/pprof).
//
//	prodigyd -addr :8080 -system volta -jobs 24 -log-level debug
//
// Then, as a user would through Grafana:
//
//	curl localhost:8080/api/jobs
//	curl localhost:8080/api/jobs/20/anomalies
//	curl "localhost:8080/api/jobs/20/explain?component=2"
//	curl "localhost:8080/api/jobs/20/diagnose?component=2"
//	curl localhost:8080/api/drift
//
// And, as an operator watching the watcher:
//
//	curl localhost:8080/api/health
//	curl localhost:8080/metrics
//	curl localhost:8080/api/alerts
//	curl "localhost:8080/api/timeseries?name=prodigy_scores_total&agg=rate&window=60s"
//	curl localhost:8080/debug/spans
//	go tool pprof localhost:8080/debug/pprof/profile?seconds=5
//
// or open localhost:8080/dashboard in a browser for the self-contained
// model-health view (sparklines, alert states, per-model cost ledger).
package main

import (
	"context"
	"errors"
	"flag"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
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
	"prodigy/internal/obs"
	"prodigy/internal/obs/alert"
	"prodigy/internal/obs/tsdb"
	"prodigy/internal/online"
	"prodigy/internal/pipeline"
	"prodigy/internal/serve"
	"prodigy/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	systemName := flag.String("system", "volta", "system to simulate: eclipse or volta")
	jobs := flag.Int("jobs", 24, "number of jobs to simulate")
	duration := flag.Int64("duration", 240, "job duration in seconds")
	anomFrac := flag.Float64("anomalous", 0.25, "fraction of jobs run with an injected anomaly")
	seed := flag.Int64("seed", 1, "simulation seed")
	logLevel := flag.String("log-level", "info", "log verbosity: error, warn, info or debug")
	stream := flag.Bool("stream", true, "train a window model and replay extra jobs through the streaming detector")
	streamJobs := flag.Int("stream-jobs", 2, "extra jobs replayed through the streaming detector")
	trainWorkers := flag.Int("train-workers", 0, "data-parallel training workers per fit (0 = GOMAXPROCS); results are bit-identical for any value")
	scrapeInterval := flag.Duration("scrape-interval", 5*time.Second, "in-process tsdb scrape interval")
	retention := flag.Int("retention", 720, "points retained per tsdb series (memory is retention × series × 16 bytes)")
	alertRules := flag.String("alert-rules", "", "JSON alert-rules file (empty = built-in defaults)")
	logRate := flag.Float64("log-rate", 0, "max non-error log lines per second, 0 = unlimited (errors are never limited; drops land in log_dropped_total)")
	ensembleOn := flag.Bool("ensemble", false, "deploy the budgeted cascade ensemble (naive z-score pre-filter + vae/usad/lof fleet) instead of the solo VAE")
	fusion := flag.String("fusion", "rank", "ensemble fleet-score fusion rule: rank, max or weighted")
	budgetNs := flag.Float64("score-budget-ns", 0, "ensemble scoring budget in ns/row; the scheduler sheds expensive fleet members above it (0 = unlimited)")
	replicas := flag.Int("replicas", 2, "shards of the coalescing serving tier, each an admission queue and a flusher over the one deployed model")
	coalesceWindow := flag.Duration("coalesce-window", 2*time.Millisecond, "max time a scoring request waits to be micro-batched with concurrent requests")
	maxQueue := flag.Int("max-queue", 16384, "admission-queue bound in rows per shard; requests beyond it are shed with 429")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		obs.Error("bad -log-level", "err", err)
		os.Exit(2)
	}
	obs.SetLogLevel(lvl)
	if *logRate > 0 {
		burst := *logRate
		if burst < 1 {
			burst = 1
		}
		obs.Log.SetRateLimit(*logRate, burst)
	}

	var sys *cluster.System
	var appNames []string
	if *systemName == "eclipse" {
		sys = cluster.Eclipse()
		appNames = []string{"lammps", "hacc", "sw4", "examinimd", "swfft", "sw4lite"}
	} else {
		sys = cluster.Volta()
		appNames = []string{"nas-bt", "nas-cg", "nas-ft", "nas-lu", "nas-mg", "nas-sp", "minimd", "comd", "minighost", "miniamr", "kripke"}
	}

	store := dsos.NewStore()
	builder := pipeline.NewDatasetBuilder(store)
	builder.Gen.TrimSeconds = 30
	builder.Pipe.Catalog = features.Minimal()

	rng := rand.New(rand.NewSource(*seed))
	injectors := hpas.AllTable2()
	truthByJob := map[int64]map[int][2]string{}
	appByJob := map[int64]string{}
	obs.Info("simulating campaign", "jobs", *jobs, "system", sys.Name, "nodes", sys.NumNodes())
	for i := 0; i < *jobs; i++ {
		app := appNames[i%len(appNames)]
		job, err := sys.Submit(app, 4, *duration, *seed+int64(i))
		if err != nil {
			obs.Error("submit failed", "app", app, "err", err)
			os.Exit(1)
		}
		truth := map[int][2]string{}
		if rng.Float64() < *anomFrac {
			inj := injectors[i%len(injectors)]
			for _, n := range job.Nodes {
				if rng.Float64() < 0.8 {
					job.Injectors[n] = inj
					truth[n] = [2]string{inj.Name(), inj.Config()}
				}
			}
			obs.Info("job submitted", "job", job.ID, "app", app,
				"injector", inj.Name(), "config", inj.Config(), "anomalous_nodes", len(truth))
		} else {
			obs.Debug("job submitted", "job", job.ID, "app", app, "healthy", true)
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: *seed + job.ID}, store)
		builder.AddJob(job.ID, app, truth)
		truthByJob[job.ID] = truth
		appByJob[job.ID] = app
		if err := sys.Complete(job.ID); err != nil {
			obs.Error("complete failed", "job", job.ID, "err", err)
			os.Exit(1)
		}
	}

	obs.Info("extracting features and training Prodigy")
	ds, err := builder.Build()
	if err != nil {
		obs.Error("build dataset failed", "err", err)
		os.Exit(1)
	}
	campaignLike := experiments.CampaignConfig{System: *systemName, Catalog: features.Minimal(), TrimSeconds: 30}

	// The streaming detector needs its own model trained on window-level
	// vectors (whole-run features distribute differently). Train it first
	// so the deployment gauges (prodigy_model_*) end up describing the
	// serving model, which is deployed last.
	var streamDet *online.Detector
	if *stream {
		streamDet = trainStreamingDetector(store, truthByJob, appByJob, campaignLike, *seed, *trainWorkers)
	}

	cfg := experiments.ProdigyConfig(experiments.Quick, campaignLike, *seed)
	cfg.Trainer.Workers = *trainWorkers
	experiments.TopKFor(&cfg, ds.X.Cols)
	p := core.New(cfg)
	if *ensembleOn {
		ecfg := ensemble.DefaultConfig()
		ecfg.Fusion = ensemble.Fusion(*fusion)
		ecfg.BudgetNs = *budgetNs
		ecfg.Seed = *seed
		usadCfg := experiments.USADConfig(experiments.Quick, *seed)
		newMember := func(kind string, inputDim int) (pipeline.Model, error) {
			if kind == "usad" {
				return pipeline.NewUSADModel(usadCfg(inputDim))
			}
			return nil, nil // core fills vae from cfg, pipeline fills the baselines
		}
		if err := p.FitEnsemble(ds, nil, ecfg, newMember); err != nil {
			obs.Error("ensemble train failed", "err", err)
			os.Exit(1)
		}
	} else if err := p.Fit(ds, nil); err != nil {
		obs.Error("train failed", "err", err)
		os.Exit(1)
	}
	obs.Info("trained", "model", p.ModelKind(), "threshold", p.Threshold(),
		"features", len(p.FeatureNames()))

	if streamDet != nil {
		replayStream(sys, streamDet, appNames, *duration, *seed, *streamJobs)
	}

	// The serving tier fronts /api/score: concurrent requests coalesce into
	// the pipeline's parallel batch path on shards that all score with p,
	// and overload sheds instead of queueing without bound.
	tierCfg := serve.DefaultConfig()
	tierCfg.Replicas = *replicas
	tierCfg.Window = *coalesceWindow
	tierCfg.MaxQueue = *maxQueue
	srv := server.NewWithTier(store, p, serve.NewTier(p, tierCfg))
	defer srv.Close()
	obs.Info("serving tier up", "shards", srv.Tier.Replicas(),
		"coalesce_window", *coalesceWindow, "max_queue_rows", *maxQueue)
	if *ensembleOn {
		// Feed the tier's queue-depth signal (and the ns/row budget) into
		// the cascade's budget scheduler: a backed-up admission queue sheds
		// fleet members before the tier starts shedding requests.
		n := srv.Tier.ConfigureEnsemble(*budgetNs)
		obs.Info("ensemble budget scheduler armed", "ensembles", n,
			"budget_ns_per_row", *budgetNs, "fusion", *fusion)
	}
	// Optional production extras: anomaly-type diagnosis (needs ≥2 labeled
	// types in the campaign) and the model-staleness monitor.
	if clf, err := diagnose.New(ds, 3); err == nil {
		srv.Diagnoser = clf
		obs.Info("diagnoser ready", "types", clf.Types())
	} else {
		obs.Warn("diagnoser disabled", "err", err)
	}
	healthy := ds.Subset(ds.HealthyIndices())
	if healthy.Len() >= 2 {
		if mon, err := p.DriftMonitor(healthy.X, 500, drift.DefaultConfig()); err == nil {
			srv.Drift = mon
			obs.Info("drift monitor armed", "reference_scores", healthy.Len())
		}
	}

	// Model-health observability: the in-process tsdb self-scrapes the obs
	// registry and the alert engine evaluates its rules after every scrape,
	// with the deployed model's sketch-vs-baseline KS test as the
	// score-shift source. Serves /api/timeseries, /api/alerts, /dashboard.
	var engine *alert.Engine
	tstore := tsdb.New(nil, tsdb.Config{
		Interval:    *scrapeInterval,
		Retention:   *retention,
		AfterScrape: func(ts time.Time) { engine.Eval(ts) },
	})
	engine = alert.NewEngine(tstore, p.ScoreShift, nil)
	rules := alert.DefaultRules()
	if *alertRules != "" {
		data, err := os.ReadFile(*alertRules)
		if err != nil {
			obs.Error("bad -alert-rules", "err", err)
			os.Exit(2)
		}
		if rules, err = alert.LoadRules(data); err != nil {
			obs.Error("bad -alert-rules", "err", err)
			os.Exit(2)
		}
	}
	if err := engine.SetRules(rules); err != nil {
		obs.Error("bad alert rules", "err", err)
		os.Exit(2)
	}
	tstore.Start()
	defer tstore.Stop()
	srv.TSDB = tstore
	srv.Alerts = engine
	obs.Info("observability armed", "scrape_interval", *scrapeInterval,
		"retention", *retention, "alert_rules", len(rules))
	obs.Info("serving the analysis dashboard", "addr", *addr)
	obs.Info("try", "dashboard", "curl localhost"+*addr+"/api/jobs", "metrics", "curl localhost"+*addr+"/metrics")

	// Production hardening: bounded read/write timeouts so a slow or stuck
	// client cannot pin a handler goroutine forever, and signal-driven
	// graceful shutdown so in-flight analyses finish before exit.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadTimeout:       10 * time.Second,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second, // CoMTE explanations can run long
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		obs.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		obs.Info("shutdown signal received; draining connections")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			obs.Warn("shutdown", "err", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			obs.Warn("serve", "err", err)
		}
		obs.Info("bye")
	}
}

// streamConfig is the shared window geometry of the live detector.
func streamConfig() online.Config {
	return online.Config{Window: 60, Stride: 30, Grace: 2, Catalog: features.Minimal()}
}

// trainStreamingDetector slices the stored campaign into windows, trains a
// window-level model and wires the live detector over it. Failures only
// log: streaming is an optional extra on top of the dashboard.
func trainStreamingDetector(store *dsos.Store, truth map[int64]map[int][2]string, apps map[int64]string,
	campaignLike experiments.CampaignConfig, seed int64, trainWorkers int) *online.Detector {
	ocfg := streamConfig()
	wds, err := online.BuildWindowDataset(store, truth, apps, ocfg)
	if err != nil {
		obs.Warn("streaming disabled: window dataset", "err", err)
		return nil
	}
	cfg := experiments.ProdigyConfig(experiments.Quick, campaignLike, seed)
	cfg.Trainer.Workers = trainWorkers
	experiments.TopKFor(&cfg, wds.X.Cols)
	wp := core.New(cfg)
	if err := wp.Fit(wds, nil); err != nil {
		obs.Warn("streaming disabled: window model train", "err", err)
		return nil
	}
	obs.Info("streaming window model trained", "windows", wds.Len(), "threshold", wp.Threshold())
	det, err := online.NewDetector(ocfg, wp, func(ev online.Event) {
		if ev.Anomalous {
			obs.Info("streaming anomaly", "job", ev.JobID, "component", ev.Component,
				"window_start", ev.WindowStart, "score", ev.Score)
		} else {
			obs.Debug("streaming window healthy", "job", ev.JobID, "component", ev.Component,
				"window_start", ev.WindowStart, "score", ev.Score)
		}
	})
	if err != nil {
		obs.Warn("streaming disabled", "err", err)
		return nil
	}
	return det
}

// replayStream runs extra jobs whose rows flow straight into the
// streaming detector (it implements ldms.Sink), exercising the live
// windowed path so online_* metrics carry real traffic.
func replayStream(sys *cluster.System, det *online.Detector, appNames []string, duration, seed int64, n int) {
	for i := 0; i < n; i++ {
		app := appNames[i%len(appNames)]
		job, err := sys.Submit(app, 4, duration, seed+1000+int64(i))
		if err != nil {
			obs.Warn("stream job submit failed", "err", err)
			return
		}
		sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.005, Seed: seed + 1000 + job.ID}, det)
		if err := sys.Complete(job.ID); err != nil {
			obs.Warn("stream job complete failed", "job", job.ID, "err", err)
		}
		obs.Debug("streamed job", "job", job.ID, "app", app)
	}
	events := det.Flush()
	obs.Info("streaming replay done", "jobs", n, "events", len(events))
}
