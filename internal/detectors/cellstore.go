package detectors

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// Pure is implemented by tools whose reports are a function of the
// analysed service and the tool's configuration alone: Analyze reads
// cs.Service and nothing else of the case, and never the RNG. Purity is
// declared, not inferred; a CellStore memoises only tools that declare
// it.
type Pure interface {
	Tool
	// CellIdentity returns a comparable value that covers every knob
	// able to change the tool's reports. Its dynamic type keeps tool
	// families apart, so two tools share cells exactly when their
	// identities are equal.
	CellIdentity() any
}

// CellStore memoises the reports of Pure tools per (CellIdentity,
// service). Experiments that re-run the standard suite over one corpus
// (the baseline campaign, E18's fault campaigns, E14's combinations)
// then analyse each cell once. The *svclang.Service pointer is a sound
// key because the Tool contract forbids mutating a case and the store
// keeps every keyed service alive. A store is meant to live as long as
// the corpus it keys on: one experiment run.
//
// Only successful analyses are kept. A call that errors or panics
// leaves no entry behind, so the next caller for that cell runs the tool
// again and fails in its own frame, exactly as an unwrapped tool would.
//
// A nil *CellStore is valid and memoises nothing.
type CellStore struct {
	mu    sync.Mutex
	cells map[cellKey]*cellEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cellKey struct {
	id  any
	svc *svclang.Service
}

// cellEntry singleflights one cell: the first caller analyses while
// later callers wait on done. ok and reports are written before done is
// closed and never after.
type cellEntry struct {
	done    chan struct{}
	ok      bool
	reports []Report
}

// NewCellStore returns an empty store.
func NewCellStore() *CellStore {
	return &CellStore{cells: map[cellKey]*cellEntry{}}
}

// Stats returns how many Analyze calls were served from the store (hits)
// and how many ran the wrapped tool (misses). When no analysis fails,
// misses is the number of distinct cells and hits the rest, at any
// worker count.
func (s *CellStore) Stats() (hits, misses uint64) {
	if s == nil {
		return 0, 0
	}
	return s.hits.Load(), s.misses.Load()
}

// Wrap returns t memoised through the store when t is Pure, and t itself
// otherwise (or when s is nil). The wrapper presents t's name and class,
// forwards compile-cache and exec-engine binding to t, and does not
// implement ContextAnalyzer, so the harness drives it exactly as it
// drives t.
func (s *CellStore) Wrap(t Tool) Tool {
	p, ok := t.(Pure)
	if s == nil || !ok {
		return t
	}
	return &cellTool{inner: t, id: p.CellIdentity(), store: s}
}

// analyze returns the reports of inner on cs, running inner only if no
// earlier call for (id, cs.Service) succeeded. Every caller gets its own
// copy of the reports (a shallow clone suffices: Report holds no
// pointers).
func (s *CellStore) analyze(id any, inner Tool, cs workload.Case, rng *stats.RNG) ([]Report, error) {
	key := cellKey{id: id, svc: cs.Service}
	for {
		s.mu.Lock()
		ent, found := s.cells[key]
		if !found {
			ent = &cellEntry{done: make(chan struct{})}
			s.cells[key] = ent
		}
		s.mu.Unlock()
		if !found {
			return s.fill(key, ent, inner, cs, rng)
		}
		<-ent.done
		if ent.ok {
			s.hits.Add(1)
			return slices.Clone(ent.reports), nil
		}
		// The call that owned the entry failed and removed it; run the
		// cell again rather than share its failure.
	}
}

// fill runs inner for the entry it owns. On success it keeps a private
// copy of the reports; on an error or a panic it removes the entry
// before waking the waiters, so no failure is ever cached.
func (s *CellStore) fill(key cellKey, ent *cellEntry, inner Tool, cs workload.Case, rng *stats.RNG) ([]Report, error) {
	s.misses.Add(1)
	defer func() {
		if !ent.ok {
			s.mu.Lock()
			delete(s.cells, key)
			s.mu.Unlock()
		}
		close(ent.done)
	}()
	reports, err := inner.Analyze(cs, rng)
	if err == nil {
		ent.reports, ent.ok = slices.Clone(reports), true
	}
	return reports, err
}

// cellTool is a Pure tool routed through a CellStore.
type cellTool struct {
	inner Tool
	id    any
	store *CellStore
}

var (
	_ CompileCacheable   = (*cellTool)(nil)
	_ ExecEngineBindable = (*cellTool)(nil)
)

func (c *cellTool) Name() string { return c.inner.Name() }

func (c *cellTool) Class() Class { return c.inner.Class() }

// Analyze implements Tool through the store.
func (c *cellTool) Analyze(cs workload.Case, rng *stats.RNG) ([]Report, error) {
	return c.store.analyze(c.id, c.inner, cs, rng)
}

// WithCompileCache rebinds the wrapped tool when it supports a compile
// cache. The copy keeps the store and identity: binding never changes
// reports.
func (c *cellTool) WithCompileCache(cc *cfg.Cache) Tool {
	cct, ok := c.inner.(CompileCacheable)
	if !ok {
		return c
	}
	clone := *c
	clone.inner = cct.WithCompileCache(cc)
	return &clone
}

// WithExecEngine rebinds the wrapped tool when it executes services,
// keeping the store and identity like WithCompileCache.
func (c *cellTool) WithExecEngine(eng *compile.Engine) Tool {
	et, ok := c.inner.(ExecEngineBindable)
	if !ok {
		return c
	}
	clone := *c
	clone.inner = et.WithExecEngine(eng)
	return &clone
}
