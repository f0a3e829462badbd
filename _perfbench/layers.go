package main

import (
	"github.com/dsn2015/vdbench"
)

// layerMetric is one per-layer metric of a traced run. Every traced run
// reports the full list; a layer the workload does not exercise reads 0.
type layerMetric struct{ name, unit string }

var perLayerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"stats.sign_stability.busy_s", "s"},
		{"stats.sign_stability.resamples", "count"},
		{"stats.bootstrap.busy_s", "s"},
	}
	for _, id := range vdbench.ExperimentIDs() {
		ms = append(ms, layerMetric{"experiments." + id + ".busy_s", "s"})
	}
	ms = append(ms,
		layerMetric{"metricprop.catalog.busy_s", "s"},
		layerMetric{"detectors.ts.busy_s", "s"},
		layerMetric{"detectors.df.busy_s", "s"},
		layerMetric{"detectors.grep.busy_s", "s"},
		layerMetric{"detectors.pt.busy_s", "s"},
		layerMetric{"detectors.heur.busy_s", "s"},
		layerMetric{"harness.campaign.busy_s", "s"},
		layerMetric{"harness.self_s", "s"},
		layerMetric{"harness.cells", "count"},
		layerMetric{"harness.merge.busy_s", "s"},
		layerMetric{"harness.faults", "count"},
		layerMetric{"harness.retries", "count"},
		layerMetric{"workload.generate.busy_s", "s"},
		layerMetric{"svclang.compile.hit_ratio", "ratio"},
		layerMetric{"svclang.oracle.probes_per_service", "count"},
		layerMetric{"svclang.oracle.cache_hit_ratio", "ratio"},
	)
	for _, f := range vdbench.ResultFormats() {
		ms = append(ms, layerMetric{"report.render.busy_us." + f, "us"})
	}
	ms = append(ms,
		layerMetric{"report.render.bytes", "bytes"},
		layerMetric{"service.submit_hit.busy_us", "us"},
		layerMetric{"service.queue_wait_ms", "ms"},
		layerMetric{"service.cache_hit_ratio", "ratio"},
		layerMetric{"service.collapsed", "count"},
		layerMetric{"journal.append.busy_us.p50", "us"},
		layerMetric{"journal.append.busy_us.p99", "us"},
		layerMetric{"journal.appends", "count"},
		layerMetric{"journal.blob_put.busy_ms", "ms"},
		layerMetric{"journal.blob_get.busy_us", "us"},
		layerMetric{"journal.replay.busy_ms", "ms"},
		layerMetric{"dist.shards", "count"},
		layerMetric{"dist.cells_bytes", "bytes"},
		layerMetric{"dist.pull_idle_s", "s"},
		layerMetric{"dist.merge.busy_s", "s"},
		layerMetric{"trace.unattributed_share", "ratio"},
		layerMetric{"trace.overhead_share", "ratio"},
		layerMetric{"trace.spans", "count"},
	)
	return ms
}()

// totals is a snapshot of the process-wide counters the vdbench facade
// exposes. They are global to the process, which is why every workload
// runs in a process of its own.
type totals struct {
	exec                     vdbench.ExecTotals
	compileHits, compileMiss uint64
	oracle                   vdbench.OracleTotals
	oracleHits, oracleMisses uint64
}

func snapshotTotals() totals {
	var t totals
	t.exec = vdbench.ExecutionTotals()
	t.compileHits, t.compileMiss = vdbench.CompileCacheTotals()
	t.oracle = vdbench.OracleSearchTotals()
	t.oracleHits, t.oracleMisses = vdbench.OracleCacheTotals()
	return t
}

// counterLayers folds the growth of the facade totals between two
// snapshots into per-layer metrics: fault and retry counts per
// operation, cache hit ratios, and oracle probes per generated service.
func counterLayers(r *run, before, after totals, ops, services float64) {
	faults := (after.exec.RecoveredPanics - before.exec.RecoveredPanics) +
		(after.exec.Timeouts - before.exec.Timeouts) + (after.exec.Errors - before.exec.Errors)
	r.layer["harness.faults"] = float64(faults) / ops
	r.layer["harness.retries"] = float64(after.exec.Retries-before.exec.Retries) / ops
	r.layer["svclang.compile.hit_ratio"] = ratio(after.compileHits-before.compileHits, after.compileMiss-before.compileMiss)
	r.layer["svclang.oracle.cache_hit_ratio"] = ratio(after.oracleHits-before.oracleHits, after.oracleMisses-before.oracleMisses)
	if services > 0 {
		r.layer["svclang.oracle.probes_per_service"] = float64(after.oracle.Probes-before.oracle.Probes) / services
	}
}

// ratio is hits / (hits + misses), 0 when both are 0.
func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// busyLayers turns span totals into per-operation busy seconds and the
// harness's self time.
func busyLayers(r *run, sum summary, ops float64) {
	for name, busy := range sum.Busy {
		if name != "op" {
			r.layer[name+".busy_s"] = busy / ops
		}
	}
	r.layer["harness.self_s"] = sum.SelfByLayer["harness"] / ops
}

// renderLayers reports the mean duration of a render call per format and
// the mean rendered size.
func renderLayers(r *run, sum summary) {
	for _, f := range vdbench.ResultFormats() {
		name := "report.render." + f
		if n := sum.Calls[name]; n > 0 {
			r.layer["report.render.busy_us."+f] = sum.Busy[name] / float64(n) * 1e6
		}
		delete(r.layer, name+".busy_s")
	}
	if r.renders > 0 {
		r.layer["report.render.bytes"] = float64(r.renderBytes) / float64(r.renders)
	}
}
