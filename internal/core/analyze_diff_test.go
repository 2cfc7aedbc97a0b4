package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"prodigy/internal/cluster"
	"prodigy/internal/core"
	"prodigy/internal/dsos"
	"prodigy/internal/ensemble"
	"prodigy/internal/features"
	"prodigy/internal/hpas"
	"prodigy/internal/ldms"
	"prodigy/internal/mat"
	"prodigy/internal/pipeline"
	"prodigy/internal/timeseries"
)

// Differential tests for job analysis. AnalyzeJob gathers only the
// metrics the deployed selection reads, interpolates only the columns the
// gather found gaps in, and runs only the (metric, extractor) cells the
// selection reads; it must agree bit for bit with a straight-line
// reference that queries every sampler, aligns them with the hash-map
// Align, preprocesses every column, extracts every metric in full and
// scores the whole vector.

// procsSweep is the GOMAXPROCS sweep every differential case runs under,
// so the agreement holds whatever core count the suite is invoked with.
var procsSweep = []int{1, 2, 8}

// capture is an ldms.Sink that keeps a job's rows so a case can reshape
// them before they reach the store. ldms.Aggregate feeds a sink from one
// goroutine.
type capture struct{ rows []ldms.Row }

func (c *capture) Ingest(r ldms.Row) { c.rows = append(c.rows, r) }

// seriesKey names one (component, sampler) series of a job.
type seriesKey struct {
	comp    int
	sampler ldms.SamplerName
}

// sorted returns the captured rows ordered by (component, sampler,
// timestamp), which fixes the order the aggregator's fan-in interleaved.
func (c *capture) sorted() []ldms.Row {
	rows := append([]ldms.Row(nil), c.rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.Sampler != b.Sampler {
			return a.Sampler < b.Sampler
		}
		return a.Timestamp < b.Timestamp
	})
	return rows
}

// withIdleSampler adds to every node a dcgm series of two constant
// metrics that reports four seconds of every five. A chi-square selection
// never prefers a constant, so the plan reads none of its metrics, yet its
// missing seconds still bound the node's common time axis.
func withIdleSampler(rows []ldms.Row) []ldms.Row {
	out := make([]ldms.Row, 0, len(rows)+len(rows)/3)
	for _, r := range rows {
		out = append(out, r)
		if r.Sampler == ldms.Meminfo && r.Timestamp%5 != 0 {
			out = append(out, ldms.Row{JobID: r.JobID, Component: r.Component, Timestamp: r.Timestamp,
				Sampler: ldms.Dcgm, Values: map[string]float64{"idle_a": 1, "idle_b": 2}})
		}
	}
	return out
}

// Wreck kinds degrade applies, by a metric's position in its row's sorted
// names.
var wreckKinds = []string{"constant", "all-missing", "gappy", "late", "boundary"}

// degrade wrecks every metric of a job. Constant; never reported (all
// missing); a dropped sample every fourth second; first reported 50 s
// into its series (the store backfills missing markers); or missing only
// in the series' first 10 s, inside the 20 s trimmed boundary. kinds, if
// not nil, records each qualified metric's wreck.
func degrade(rows []ldms.Row, kinds map[string]string) []ldms.Row {
	start := map[seriesKey]int64{}
	out := make([]ldms.Row, 0, len(rows))
	for _, r := range rows {
		key := seriesKey{r.Component, r.Sampler}
		if _, ok := start[key]; !ok {
			start[key] = r.Timestamp
		}
		since := r.Timestamp - start[key]
		names := make([]string, 0, len(r.Values))
		for k := range r.Values {
			names = append(names, k)
		}
		sort.Strings(names)
		vals := make(map[string]float64, len(r.Values))
		for i, k := range names {
			v := r.Values[k]
			kind := wreckKinds[i%len(wreckKinds)]
			if kinds != nil {
				kinds[k+"::"+string(r.Sampler)] = kind
			}
			switch kind {
			case "constant":
				v = 4096
			case "all-missing":
				v = math.NaN()
			case "gappy":
				if r.Timestamp%4 == 0 {
					v = math.NaN()
				}
			case "late":
				if since < 50 {
					continue
				}
			case "boundary":
				if since < 10 {
					v = math.NaN()
				}
			}
			vals[k] = v
		}
		r.Values = vals
		out = append(out, r)
	}
	return out
}

// shuffle puts a job's rows in a seeded random order and repeats one row
// in ten with its values halved, so every series arrives unsorted and
// with duplicate timestamps, of which the later arrival must win.
func shuffle(rows []ldms.Row) []ldms.Row {
	rng := rand.New(rand.NewSource(int64(len(rows))))
	out := make([]ldms.Row, 0, len(rows)+len(rows)/10)
	for _, i := range rng.Perm(len(rows)) {
		out = append(out, rows[i])
		if rng.Intn(10) == 0 {
			dup := rows[i]
			dup.Values = make(map[string]float64, len(rows[i].Values))
			for k, v := range rows[i].Values {
				dup.Values[k] = v / 2
			}
			out = append(out, dup)
		}
	}
	return out
}

// rename reports metric old of sampler under the name new on the job's
// first node (rows in series order lead with it).
func rename(sampler ldms.SamplerName, old, new string) func([]ldms.Row) []ldms.Row {
	return func(rows []ldms.Row) []ldms.Row {
		for i, r := range rows {
			if v, ok := r.Values[old]; ok && r.Component == rows[0].Component && r.Sampler == sampler {
				vals := make(map[string]float64, len(r.Values))
				for k, x := range r.Values {
					vals[k] = x
				}
				delete(vals, old)
				vals[new] = v
				rows[i].Values = vals
			}
		}
		return rows
	}
}

// diffSet is a small Eclipse campaign whose nodes all carry the idle
// sampler: healthy lammps/sw4lite jobs, a memleak and a cpuoccupy job,
// plus a wrecked and a shuffled healthy job that are stored but not
// trained on.
type diffSet struct {
	t     *testing.T
	seed  int64
	sys   *cluster.System
	store *dsos.Store
	ds    *pipeline.Dataset
	// jobs lists every stored job, the wrecked and shuffled ones last.
	jobs []int64
	// kinds maps each qualified metric to its wreck in the wrecked job.
	kinds map[string]string
}

// submit runs one 4-node job, reshapes its rows and stores them. The
// reshape runs after withIdleSampler, on rows in series order.
func (c *diffSet) submit(app string, inj hpas.Injector, reshape func([]ldms.Row) []ldms.Row) (int64, map[int][2]string) {
	c.t.Helper()
	job, err := c.sys.Submit(app, 4, 140, c.seed)
	if err != nil {
		c.t.Fatal(err)
	}
	truth := map[int][2]string{}
	if inj != nil {
		for _, n := range job.Nodes[:2] {
			job.Injectors[n] = inj
			truth[n] = [2]string{inj.Name(), inj.Config()}
		}
	}
	var rows capture
	c.sys.CollectJob(job, ldms.CollectConfig{DropProb: 0.01, Seed: c.seed + job.ID}, &rows)
	stored := withIdleSampler(rows.sorted())
	if reshape != nil {
		stored = reshape(stored)
	}
	for _, r := range stored {
		c.store.Ingest(r)
	}
	if err := c.sys.Complete(job.ID); err != nil {
		c.t.Fatal(err)
	}
	c.jobs = append(c.jobs, job.ID)
	return job.ID, truth
}

func diffCampaign(t *testing.T, seed int64) *diffSet {
	t.Helper()
	c := &diffSet{t: t, seed: seed, sys: cluster.NewSystem("diff-eclipse", 8, cluster.EclipseNode()),
		store: dsos.NewStore(), kinds: map[string]string{}}
	builder := pipeline.NewDatasetBuilder(c.store)
	builder.Gen.TrimSeconds = 20
	builder.Pipe.Catalog = features.Minimal()
	train := func(app string, inj hpas.Injector) {
		job, truth := c.submit(app, inj, nil)
		builder.AddJob(job, app, truth)
	}
	for i := 0; i < 3; i++ {
		train("lammps", nil)
		train("sw4lite", nil)
	}
	train("lammps", hpas.Memleak{SizeMB: 10, Period: 0.05})
	train("sw4lite", hpas.CPUOccupy{Utilization: 1})
	c.submit("lammps", nil, func(rows []ldms.Row) []ldms.Row { return degrade(rows, c.kinds) })
	c.submit("sw4lite", nil, shuffle)
	ds, err := builder.Build()
	if err != nil {
		t.Fatal(err)
	}
	c.ds = ds
	return c
}

// diffConfig is quickConfig with a shorter fit: the tests compare two
// extraction paths, not detection quality.
func diffConfig(topK int) core.Config {
	cfg := quickConfig()
	cfg.VAE.Epochs = 60
	cfg.Trainer.TopK = topK
	return cfg
}

// referenceNode extracts one node's table in full — every extractor of
// every metric, into a fresh vector — and scores the whole vector.
func referenceNode(p *core.Prodigy, comp int, tb *timeseries.Table) core.NodePrediction {
	cat := p.Cfg.Catalog
	per := cat.NumFeaturesPerSeries()
	vec := make([]float64, tb.NumMetrics()*per)
	ws := features.NewWorkspace()
	for mi, m := range tb.Order {
		cat.ExtractSeriesInto(vec[mi*per:(mi+1)*per], tb.Columns[m], ws)
	}
	preds, scores, threshold := p.DetectBatch(mat.NewFromData(1, len(vec), vec))
	return core.NodePrediction{Component: comp, Anomalous: preds[0] == 1, Score: scores[0], Threshold: threshold}
}

// referenceTable is the §4.2.1 preprocessing of one node in straight-line
// form, sharing no code with the pruned query path: copy each sampler out
// of the store, align the copies on their common timestamps with the
// hash-map Align, interpolate every column, first-difference the
// accumulated counters, trim the boundary and sort the columns.
func referenceTable(t *testing.T, store *dsos.Store, jobID int64, comp, trim int) *timeseries.Table {
	t.Helper()
	var tables []*timeseries.Table
	for _, sampler := range ldms.AllSamplers {
		if tb, err := store.QuerySampler(jobID, comp, sampler); err == nil {
			tables = append(tables, tb)
		}
	}
	if len(tables) == 0 {
		t.Fatalf("job %d component %d has no data", jobID, comp)
	}
	tb := timeseries.Align(tables...)
	for _, m := range tb.Order {
		s := timeseries.Series{Metric: m, Values: tb.Columns[m]}
		s.Interpolate()
	}
	for _, m := range ldms.AccumulatedNames() {
		if col, ok := tb.Columns[m]; ok {
			s := timeseries.Series{Metric: m, Values: col}
			s.Diff()
		}
	}
	tb.TrimBoundary(trim)
	tb.SortColumns()
	return tb
}

// referenceAnalysis is the straight-line reference of AnalyzeJob (and,
// with a per-class model lookup, of Hetero.AnalyzeJob): referenceTable and
// referenceNode per component, in order.
func referenceAnalysis(t *testing.T, store *dsos.Store, jobID int64, trim int, model func(*timeseries.Table) *core.Prodigy) []core.NodePrediction {
	t.Helper()
	var out []core.NodePrediction
	for _, comp := range store.Components(jobID) {
		tb := referenceTable(t, store, jobID, comp, trim)
		out = append(out, referenceNode(model(tb), comp, tb))
	}
	return out
}

func solo(p *core.Prodigy) func(*timeseries.Table) *core.Prodigy {
	return func(*timeseries.Table) *core.Prodigy { return p }
}

// sameAnalysis reports the first difference between two analyses. Scores
// compare by bit pattern: bit-identity is the contract, not closeness.
func sameAnalysis(got, want []core.NodePrediction) (string, bool) {
	if len(got) != len(want) {
		return "node count differs", false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Component != w.Component || g.Anomalous != w.Anomalous ||
			math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
			math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) {
			return fmt.Sprintf("node %d", i), false
		}
	}
	return "", true
}

// checkAgainstReference runs every job through analyze and the reference
// under each GOMAXPROCS of the sweep.
func checkAgainstReference(t *testing.T, store *dsos.Store, jobs []int64, trim int,
	analyze func(int64) ([]core.NodePrediction, error), model func(*timeseries.Table) *core.Prodigy) {
	t.Helper()
	for _, procs := range procsSweep {
		prev := runtime.GOMAXPROCS(procs)
		for _, job := range jobs {
			got, err := analyze(job)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d job %d: %v", procs, job, err)
			}
			want := referenceAnalysis(t, store, job, trim, model)
			if where, ok := sameAnalysis(got, want); !ok {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("GOMAXPROCS=%d job %d: pruned analysis differs from the reference at %s:\n got %+v\nwant %+v",
					procs, job, where, got, want)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestPrunedAnalysisMatchesReference covers the solo VAE and the cascade
// ensemble, the NaN-poisoned pooled row, a sampler the plan reads nothing
// of, and the wrecked and shuffled jobs: constant, all-missing, gappy,
// late-starting and boundary-only-missing columns, and unsorted buffers
// with duplicate timestamps.
func TestPrunedAnalysisMatchesReference(t *testing.T) {
	c := diffCampaign(t, 61)

	vaeP := core.New(diffConfig(40))
	if err := vaeP.Fit(c.ds, nil); err != nil {
		t.Fatal(err)
	}
	ensP := core.New(diffConfig(40))
	eCfg := ensemble.Config{
		Prefilter: "naive", PassFrac: 0.3, Fusion: ensemble.FusionRank,
		Members: []string{"vae", "lof"}, Seed: 61,
	}
	if err := ensP.FitEnsemble(c.ds, nil, eCfg, nil); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		p    *core.Prodigy
	}{
		{"vae", vaeP},
		{"ensemble", ensP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if cells, full := tc.p.PlanCells(), len(tc.p.FeatureNames()); cells <= 0 || cells > 40 {
				t.Fatalf("plan runs %d cells for a 40-feature selection of %d", cells, full)
			}
			// The cases must reach the plan: it reads no idle-sampler
			// metric, and every wreck kind of at least one metric.
			hit := map[string]bool{}
			for _, name := range tc.p.Artifact().Selection.Names {
				metric, _, _ := strings.Cut(name, "__")
				if strings.HasSuffix(metric, "::"+string(ldms.Dcgm)) {
					t.Fatalf("the plan reads %s of the idle sampler", metric)
				}
				hit[c.kinds[metric]] = true
			}
			for _, kind := range wreckKinds {
				if !hit[kind] {
					t.Errorf("no selected feature reads a %s column of the wrecked job", kind)
				}
			}
			checkAgainstReference(t, c.store, c.jobs, 20, func(job int64) ([]core.NodePrediction, error) {
				return tc.p.AnalyzeJob(c.store, job)
			}, solo(tc.p))
			checkAgainstReference(t, c.store, c.jobs, 20, func(job int64) ([]core.NodePrediction, error) {
				return tc.p.AnalyzeJobPoisoned(c.store, job)
			}, solo(tc.p))
		})
	}
}

// TestAnalyzeJobRejectsRenamedMetric stores a job one of whose nodes
// reports a planned metric under another name: the node has the
// training schema's width, so only the name check can tell, and the
// analysis must fail naming the metric rather than score the node on
// another metric's features.
func TestAnalyzeJobRejectsRenamedMetric(t *testing.T) {
	c := diffCampaign(t, 62)
	p := core.New(diffConfig(40))
	if err := p.Fit(c.ds, nil); err != nil {
		t.Fatal(err)
	}
	metric, _, _ := strings.Cut(p.Artifact().Selection.Names[0], "__")
	bare, sampler, _ := strings.Cut(metric, "::")
	// The new name sorts after the old one, so every position before the
	// metric's own keeps its name and the check trips on the metric.
	job, _ := c.submit("lammps", nil, rename(ldms.SamplerName(sampler), bare, bare+"_renamed"))
	_, err := p.AnalyzeJob(c.store, job)
	if err == nil || !strings.Contains(err.Error(), strconv.Quote(metric)) {
		t.Fatalf("AnalyzeJob of a node reporting %s renamed: err = %v, want one naming it", metric, err)
	}
}

// TestHeteroPrunedAnalysisMatchesReference routes each node of mixed
// CPU/GPU jobs to its class's model, whose plans cover different metric
// schemas, and checks the per-class reference.
func TestHeteroPrunedAnalysisMatchesReference(t *testing.T) {
	parts, store, anomCPUJob, anomGPUJob := heteroCampaign(t, 63)
	h := core.NewHetero(map[string]core.Config{"cpu": diffConfig(40), "gpu": diffConfig(40)})
	if err := h.Fit(parts); err != nil {
		t.Fatal(err)
	}
	jobs := store.Jobs()
	if len(jobs) == 0 || anomCPUJob == 0 || anomGPUJob == 0 {
		t.Fatal("campaign has no jobs")
	}
	checkAgainstReference(t, store, jobs, 20, func(job int64) ([]core.NodePrediction, error) {
		return h.AnalyzeJob(store, job)
	}, func(tb *timeseries.Table) *core.Prodigy { return h.Model(pipeline.NodeClass(tb)) })
}
