package main

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/workload"
)

// scaleServices is the corpus size of campaign-scale and dist-campaign:
// eight times the default experiment corpus.
const scaleServices = 4000

// scaleCorpusConfig is the corpus of iteration i: a fresh corpus seed per
// iteration, derived from the workload seed.
func scaleCorpusConfig(seed uint64, i int) workload.Config {
	return workload.Config{Services: scaleServices, TargetPrevalence: 0.35, Seed: mix(seed, uint64(i))}
}

// scaleOptions is the campaign execution policy of both workloads.
func scaleOptions(wcfg workload.Config) harness.Options {
	return harness.Options{Seed: wcfg.Seed, Workers: runtime.GOMAXPROCS(0)}
}

// mix derives a well-spread 32-bit seed from a workload seed and an index
// (splitmix64 finaliser).
func mix(seed, i uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + i + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) >> 32
}

func scaleSetupProbe(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	_, err := workload.Generate(scaleCorpusConfig(seed, -1))
	return time.Since(t0), err
}

// measureScale generates a corpus and runs the standard suite over it,
// back to back, with no statistics, MCDA or rendering. Every tool's
// execution ledger must reconcile and no cell may fail.
func measureScale(ctx context.Context, r *run) error {
	if _, err := workload.Generate(scaleCorpusConfig(r.seed, -1)); err != nil {
		return err
	}
	tools, err := detectors.StandardSuite()
	if err != nil {
		return err
	}
	var gen, cells []float64
	var services int
	var slot atomic.Int64
	timed := timeTools(tools, r.tr, &slot)
	before := snapshotTotals()
	err = r.loop(ctx, func(i int, tr *tracer) (func(), error) {
		op := tr.start("op", -1)
		defer tr.stop(op)
		wcfg := scaleCorpusConfig(r.seed, i)
		t0 := time.Now()
		var corpus *workload.Corpus
		err := tr.do("workload.generate", op, func() error {
			var err error
			corpus, err = workload.Generate(wcfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		var camp *harness.Campaign
		if tr == nil {
			camp, err = harness.RunCtx(ctx, corpus, tools, scaleOptions(wcfg))
		} else {
			camp, err = tracedCampaign(ctx, tr, op, &slot, corpus, timed, scaleOptions(wcfg))
		}
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		services += len(corpus.Cases)
		gen = append(gen, float64(len(corpus.Cases))/t1.Sub(t0).Seconds())
		cells = append(cells, float64(len(corpus.Cases)*len(tools))/t2.Sub(t1).Seconds())
		checkLedgers(r, camp)
		return nil, nil
	})
	if err != nil {
		return err
	}
	after := snapshotTotals()
	r.named["campaign_cells_per_s"] = metric{median(cells), "1/s"}
	r.named["corpus_services_per_s"] = metric{median(gen), "1/s"}
	if r.tr != nil {
		sum := r.tr.summarize()
		traced := float64(len(r.tracedOps))
		busyLayers(r, sum, traced)
		r.layer["harness.cells"] = float64(scaleServices * len(tools))
		all := float64(len(r.ops) + len(r.tracedOps))
		counterLayers(r, before, after, all, float64(services))
	}
	return nil
}

// tracedCampaign runs the campaign as one shard plus the canonical merge,
// the two halves of harness.RunCtx, so the merge is a span of its own.
// The harness guarantees the result equals RunCtx's.
func tracedCampaign(ctx context.Context, tr *tracer, op int, slot *atomic.Int64, corpus *workload.Corpus, tools []detectors.Tool, opts harness.Options) (*harness.Campaign, error) {
	id := tr.start("harness.campaign", op)
	defer tr.stop(id)
	shard := tr.start("harness.shard", id)
	slot.Store(int64(shard))
	cells, err := harness.RunShardCtx(ctx, corpus, tools, opts, 0, len(corpus.Cases))
	tr.stop(shard)
	if err != nil {
		return nil, err
	}
	var camp *harness.Campaign
	err = tr.do("harness.merge", id, func() error {
		var err error
		camp, err = harness.MergeShards(corpus, tools, cells, opts.Degraded)
		return err
	})
	return camp, err
}

// checkLedgers counts an operation as failed when a tool's execution
// ledger does not reconcile or a cell failed.
func checkLedgers(r *run, camp *harness.Campaign) {
	for _, res := range camp.Results {
		if err := res.Exec.Reconcile(); err != nil {
			r.failed++
			r.fail("%s: %v", res.Tool, err)
			return
		}
		if res.Exec.Failed != 0 || res.Exec.Cases != len(camp.Corpus.Cases) {
			r.failed++
			r.fail("%s: %d of %d cases failed", res.Tool, res.Exec.Failed, res.Exec.Cases)
			return
		}
	}
}
