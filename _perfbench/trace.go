package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the tracer was created; Parent indexes the span that caused it
// (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its handle.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// stop closes the span opened by start.
func (t *tracer) stop(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span observed from outside, such as a protocol wait.
func (t *tracer) add(name string, start, end time.Time, parent int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent})
}

// do runs f inside a span.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.start(name, parent)
	defer t.stop(id)
	return f()
}

// layerOf maps a span name ("detectors.pt", "experiments.e7") onto its
// layer, the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	cur := interval{lo: -1, hi: -1}
	for _, iv := range ivs {
		iv.lo, iv.hi = max(iv.lo, lo), min(iv.hi, hi)
		if iv.hi <= iv.lo {
			continue
		}
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

// summary is what a traced run writes next to its spans.
type summary struct {
	// Busy is the summed duration per span name, in seconds.
	Busy map[string]float64 `json:"busy_s"`
	// Calls counts spans per name.
	Calls map[string]int `json:"calls"`
	// SelfByLayer is each layer's self time in seconds: span duration
	// minus the part of it that child spans cover.
	SelfByLayer map[string]float64 `json:"self_s_by_layer"`
	// Unattributed is the share of the workload operations' wall time
	// (the "op" root spans) that no child span covers.
	Unattributed float64 `json:"unattributed_share"`
}

func (t *tracer) summarize() summary {
	s := summary{Busy: map[string]float64{}, Calls: map[string]int{}, SelfByLayer: map[string]float64{}}
	children := make([][]interval, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent >= 0 && sp.End >= 0 {
			children[sp.Parent] = append(children[sp.Parent], interval{sp.Start, sp.End})
		}
	}
	var opWall, opCovered int64
	for i, sp := range t.spans {
		if sp.End < 0 {
			continue
		}
		d := sp.End - sp.Start
		cov := covered(children[i], sp.Start, sp.End)
		s.Busy[sp.Name] += float64(d) / 1e9
		s.Calls[sp.Name]++
		s.SelfByLayer[layerOf(sp.Name)] += float64(d-cov) / 1e9
		if sp.Name == "op" {
			opWall += d
			opCovered += cov
		}
	}
	if opWall > 0 {
		s.Unattributed = 1 - float64(opCovered)/float64(opWall)
	}
	return s
}

// write stores the spans and their summary as one JSON document.
func (t *tracer) write(path string, sum summary) error {
	data, err := json.Marshal(struct {
		Summary summary `json:"summary"`
		Spans   []span  `json:"spans"`
	}{sum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// toolFamily names the detector family of a standard-suite tool
// ("ts-precise" → "ts").
func toolFamily(name string) string {
	if i := strings.IndexByte(name, '-'); i >= 0 {
		return name[:i]
	}
	return name
}

// timedTool wraps a detector so every Analyze call is a span. The
// harness binds compile caches and execution engines through optional
// interfaces, so the wrappers below forward each of them: a traced
// campaign does exactly the work of an untraced one.
type timedTool struct {
	detectors.Tool
	tr *tracer
	// parent holds the span detector calls attach to; it changes per
	// operation while the tools are shared across operations.
	parent *atomic.Int64
	name   string
}

func (t timedTool) Analyze(cs workload.Case, rng *stats.RNG) ([]detectors.Report, error) {
	id := t.tr.start(t.name, int(t.parent.Load()))
	defer t.tr.stop(id)
	return t.Tool.Analyze(cs, rng)
}

type timedCacheTool struct{ timedTool }

func (t timedCacheTool) WithCompileCache(cc *cfg.Cache) detectors.Tool {
	inner := t.timedTool
	inner.Tool = t.Tool.(detectors.CompileCacheable).WithCompileCache(cc)
	return timedCacheTool{inner}
}

type timedExecTool struct{ timedTool }

func (t timedExecTool) WithExecEngine(eng *compile.Engine) detectors.Tool {
	inner := t.timedTool
	inner.Tool = t.Tool.(detectors.ExecEngineBindable).WithExecEngine(eng)
	return timedExecTool{inner}
}

// timeTools wraps the suite for tracing; with a nil tracer it returns
// the suite unchanged.
func timeTools(tools []detectors.Tool, tr *tracer, parent *atomic.Int64) []detectors.Tool {
	if tr == nil {
		return tools
	}
	out := make([]detectors.Tool, len(tools))
	for i, tool := range tools {
		base := timedTool{Tool: tool, tr: tr, parent: parent, name: "detectors." + toolFamily(tool.Name())}
		switch tool.(type) {
		case detectors.CompileCacheable:
			out[i] = timedCacheTool{base}
		case detectors.ExecEngineBindable:
			out[i] = timedExecTool{base}
		default:
			out[i] = base
		}
	}
	return out
}
