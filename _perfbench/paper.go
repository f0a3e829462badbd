package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/dsn2015/vdbench"
	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/experiments"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/ranking"
	"github.com/dsn2015/vdbench/internal/report"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/workload"
)

// paperConfig is the configuration of `vdbench all` at the workload seed.
func paperConfig(seed uint64) vdbench.ExperimentConfig {
	cfg := vdbench.DefaultExperimentConfig()
	cfg.Seed = seed
	cfg.Workers = runtime.GOMAXPROCS(0)
	return cfg
}

func paperCorpusConfig(cfg vdbench.ExperimentConfig) workload.Config {
	return workload.Config{Services: cfg.Services, TargetPrevalence: cfg.Prevalence, Seed: cfg.Seed}
}

// paperSetupProbe generates the pipeline's first corpus with a cold
// oracle cache.
func paperSetupProbe(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	_, err := workload.Generate(paperCorpusConfig(paperConfig(seed)))
	return time.Since(t0), err
}

// measurePaper runs back-to-back `vdbench all` pipelines at the default
// configuration, each on a fresh runner, and checks that every pipeline
// renders the same text (and, at seed 1, the published results file).
func measurePaper(ctx context.Context, r *run) error {
	cfg := paperConfig(r.seed)
	// Users pay the cold oracle cache once per process; setup_s measured
	// it, so the window starts warm.
	if _, err := workload.Generate(paperCorpusConfig(cfg)); err != nil {
		return err
	}
	var want string
	if r.seed == 1 {
		data, err := os.ReadFile(filepath.Join(r.root, "results", "experiments_default.txt"))
		if err != nil {
			return err
		}
		want = string(data)
	}
	before := snapshotTotals()
	var first string
	var pipeline []float64
	var traced []tracedPipeline
	err := r.loop(ctx, func(i int, tr *tracer) (func(), error) {
		t0 := time.Now()
		text, tp, err := paperPipeline(ctx, cfg, tr)
		if err != nil {
			return nil, err
		}
		pipeline = append(pipeline, time.Since(t0).Seconds())
		if tr != nil {
			traced = append(traced, tp)
			r.renders += len(tp.results)
			r.renderBytes += tp.renderBytes
		}
		return func() {
			switch {
			case i == 0:
				first = text
				if want != "" && text != want {
					r.failed++
					r.fail("seed 1 output differs from results/experiments_default.txt")
				}
			case text != first:
				r.failed++
				r.fail("pipeline %d output differs from the run's first", i)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	after := snapshotTotals()
	r.named["paper_all_s"] = metric{median(pipeline), "s"}
	if r.tr == nil {
		return nil
	}
	// The stats replays run after the window so that they do not count
	// as tracing overhead.
	for _, tp := range traced {
		if err := replayStats(r.tr, tp.op, cfg, tp.campaign, tp.results); err != nil {
			return err
		}
	}
	paperLayers(r, before, after, cfg)
	return nil
}

// tracedPipeline keeps what the stats replay of a traced pipeline needs.
type tracedPipeline struct {
	op       int
	campaign *harness.Campaign
	results  []vdbench.ExperimentResult
	// renderBytes is the size of the pipeline's rendered text.
	renderBytes int
}

// paperPipeline is one full `vdbench all` run rendered as text. A traced
// pipeline drives the same runner step by step so that each layer call
// is a span: the campaign through a timed executor, the metric profiles,
// then every experiment driver in presentation order (one at a time, so
// a driver's span holds only its own work).
func paperPipeline(ctx context.Context, cfg vdbench.ExperimentConfig, tr *tracer) (string, tracedPipeline, error) {
	var results []vdbench.ExperimentResult
	tp := tracedPipeline{op: tr.start("op", -1)}
	defer tr.stop(tp.op)
	op := tp.op
	if tr == nil {
		all, err := vdbench.RunAllExperimentsCtx(ctx, cfg)
		if err != nil {
			return "", tp, err
		}
		results = all
	} else {
		runner, err := experiments.NewRunner(cfg)
		if err != nil {
			return "", tp, err
		}
		runner.SetCampaignExecutor(&timedExecutor{tr: tr, parent: op})
		if tp.campaign, err = runner.CampaignCtx(ctx); err != nil {
			return "", tp, err
		}
		if err := tr.do("metricprop.catalog", op, func() error { _, err := runner.Profiles(); return err }); err != nil {
			return "", tp, err
		}
		for _, id := range vdbench.ExperimentIDs() {
			var res vdbench.ExperimentResult
			err := tr.do("experiments."+id, op, func() error {
				var err error
				res, err = runner.RunCtx(ctx, id)
				return err
			})
			if err != nil {
				return "", tp, err
			}
			results = append(results, res)
		}
		tp.results = results
	}
	var sb strings.Builder
	for _, res := range results {
		var text string
		err := tr.do("report.render.text", op, func() error {
			var err error
			text, err = res.Render("text")
			return err
		})
		tp.renderBytes += len(text)
		if err != nil {
			return "", tp, err
		}
		sb.WriteString(text)
	}
	return sb.String(), tp, nil
}

// timedExecutor is the in-process campaign path of experiments.Runner
// with spans around corpus generation, the harness and each detector.
type timedExecutor struct {
	tr     *tracer
	parent int
}

func (e *timedExecutor) ExecuteCampaign(ctx context.Context, wcfg workload.Config, suite string, opts harness.Options) (*harness.Campaign, error) {
	if suite != "standard" {
		return nil, fmt.Errorf("perfbench: unexpected suite %q", suite)
	}
	var corpus *workload.Corpus
	err := e.tr.do("workload.generate", e.parent, func() error {
		var err error
		corpus, err = workload.Generate(wcfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		return nil, err
	}
	id := e.tr.start("harness.campaign", e.parent)
	defer e.tr.stop(id)
	var parent atomic.Int64
	parent.Store(int64(id))
	return harness.RunCtx(ctx, corpus, timeTools(tools, e.tr, &parent), opts)
}

// replayStats repeats, span by span, the statistics calls the E4 and E7
// drivers make internally (same inputs, same RNG streams), so the stats
// layer is timed from outside the program. The replayed E7 fractions
// must match the published E7 table.
func replayStats(tr *tracer, parent int, cfg vdbench.ExperimentConfig, camp *harness.Campaign, results []vdbench.ExperimentResult) error {
	// E4c: percentile bootstrap of F1 and MCC per tool.
	bootCfg := stats.BootstrapConfig{Resamples: cfg.BootstrapResamples, Confidence: 0.95, Workers: cfg.Workers}
	rng := stats.NewRNG(cfg.Seed + 4)
	for i := range camp.Results {
		res := &camp.Results[i]
		for _, mid := range []string{metrics.IDF1, metrics.IDMCC} {
			m := metrics.MustByID(mid)
			fallback := worstValue(m)
			err := tr.do("stats.bootstrap", parent, func() error {
				_, err := stats.BootstrapIndexed(rng.Split(), len(res.Outcomes), bootCfg, func(idx []int) float64 {
					var c metrics.Confusion
					for _, j := range idx {
						c = c.Add(res.Outcomes[j].Confusion())
					}
					v, err := m.ValueOr(c, fallback)
					if err != nil {
						return fallback
					}
					return v
				})
				return err
			})
			if err != nil {
				return err
			}
		}
	}

	// E7: sign stability of adjacent-pair metric deltas.
	f1Scores, err := camp.MetricScores(metrics.MustByID(metrics.IDF1), 0)
	if err != nil {
		return err
	}
	order := ranking.TopK(f1Scores, len(f1Scores))
	ids := []string{"recall", "precision", "f1", "f2", "f0.5", "accuracy",
		"specificity", "fpr", "mcc", "informedness", "markedness", "kappa"}
	rng = stats.NewRNG(cfg.Seed + 7)
	var e7 *vdbench.ExperimentResult
	for i := range results {
		if results[i].ID == "e7" {
			e7 = &results[i]
		}
	}
	for pair := 0; pair+1 < len(order); pair++ {
		a, b := &camp.Results[order[pair]], &camp.Results[order[pair+1]]
		for mi, mid := range ids {
			m := metrics.MustByID(mid)
			cellRNG := rng.Split()
			var frac float64
			err := tr.do("stats.sign_stability", parent, func() error {
				var err error
				frac, err = stats.SignStability(cellRNG, len(a.Outcomes), cfg.BootstrapResamples, func(idx []int) float64 {
					d, err := harness.ConfusionDelta(a, b, m, idx)
					if err != nil {
						return 0
					}
					return d
				})
				return err
			})
			if err != nil {
				return err
			}
			if e7 != nil {
				if got := e7.Tables[0].Rows()[pair][mi+1]; got != report.FormatFloat(frac) {
					return fmt.Errorf("perfbench: E7 replay diverged at pair %d metric %s: %s vs %s", pair, mid, got, report.FormatFloat(frac))
				}
			}
		}
	}
	return nil
}

// worstValue mirrors the experiments' fallback for undefined metric
// values: the worst end of a bounded metric's range, else zero.
func worstValue(m metrics.Metric) float64 {
	if !m.Bounded() {
		return 0
	}
	if m.Orientation == metrics.LowerIsBetter {
		return m.Hi
	}
	return m.Lo
}

// paperLayers derives the per-layer metrics of a traced paper-default run.
func paperLayers(r *run, before, after totals, cfg vdbench.ExperimentConfig) {
	sum := r.tr.summarize()
	traced := float64(len(r.tracedOps))
	busyLayers(r, sum, traced)
	renderLayers(r, sum)
	r.layer["stats.sign_stability.resamples"] = float64(sum.Calls["stats.sign_stability"]) / traced * float64(cfg.BootstrapResamples)
	r.layer["harness.cells"] = float64(sum.Calls["detectors.ts"]+sum.Calls["detectors.df"]+sum.Calls["detectors.grep"]+
		sum.Calls["detectors.pt"]+sum.Calls["detectors.heur"]) / traced
	all := float64(len(r.ops) + len(r.tracedOps))
	counterLayers(r, before, after, all, all*float64(cfg.Services))
}
