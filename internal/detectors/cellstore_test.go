package detectors

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/svclang/cfg"
	"github.com/dsn2015/vdbench/internal/svclang/compile"
	"github.com/dsn2015/vdbench/internal/workload"
)

// pureStub is a Pure test tool: it reports sink 0 of every service,
// counts its calls, and panics or errors on the named services.
type pureStub struct {
	name    string
	calls   *atomic.Int64
	panicOn string
	errOn   string
}

func (p pureStub) Name() string      { return p.name }
func (p pureStub) Class() Class      { return ClassSAST }
func (p pureStub) CellIdentity() any { return p.name }
func (p pureStub) Analyze(cs workload.Case, _ *stats.RNG) ([]Report, error) {
	p.calls.Add(1)
	switch cs.Service.Name {
	case p.panicOn:
		panic("pureStub: panic on " + cs.Service.Name)
	case p.errOn:
		return nil, errors.New("pureStub: error on " + cs.Service.Name)
	}
	return []Report{{Service: cs.Service.Name, SinkID: 0, Kind: cs.Truths[0].Kind, Confidence: 0.5}}, nil
}

func corpusCases(t *testing.T, services int) []workload.Case {
	t.Helper()
	c, err := workload.Generate(workload.Config{Services: services, TargetPrevalence: 0.4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return c.Cases
}

func mustAnalyze(t *testing.T, tool Tool, cs workload.Case) []Report {
	t.Helper()
	r, err := tool.Analyze(cs, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func wantStats(t *testing.T, s *CellStore, hits, misses uint64) {
	t.Helper()
	if h, m := s.Stats(); h != hits || m != misses {
		t.Fatalf("store stats = %d hits, %d misses; want %d, %d", h, m, hits, misses)
	}
}

// TestCellStoreWrapsOnlyPure: nil stores and impure tools pass through
// unchanged, so heur-ml keeps drawing from its RNG.
func TestCellStoreWrapsOnlyPure(t *testing.T) {
	suite, err := StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	s := NewCellStore()
	for _, tool := range suite {
		var nilStore *CellStore
		if nilStore.Wrap(tool) != tool {
			t.Fatalf("nil store wrapped %s", tool.Name())
		}
		_, pure := tool.(Pure)
		if wrapped := s.Wrap(tool) != tool; wrapped != pure {
			t.Fatalf("%s: wrapped=%v, pure=%v", tool.Name(), wrapped, pure)
		}
		if tool.Name() == "heur-ml" && pure {
			t.Fatal("heur-ml reads its RNG and must not be Pure")
		}
	}
	if w := s.Wrap(suite[0]); s.Wrap(w) != w {
		t.Fatal("wrapping twice stacks a second store layer")
	}
}

// TestCellStoreMatchesBareTools: on every standard-suite pure tool and
// a corpus, the first and the repeated pass through the store return
// the bare tool's reports, and the repeat is served entirely from
// memory.
func TestCellStoreMatchesBareTools(t *testing.T) {
	suite, err := StandardSuite()
	if err != nil {
		t.Fatal(err)
	}
	cases := corpusCases(t, 8)
	s := NewCellStore()
	var pure uint64
	for _, tool := range suite {
		if _, ok := tool.(Pure); !ok {
			continue
		}
		pure++
		w := s.Wrap(tool)
		for pass := 0; pass < 2; pass++ {
			for _, cs := range cases {
				if got, want := mustAnalyze(t, w, cs), mustAnalyze(t, tool, cs); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s pass %d: %v, want %v", tool.Name(), cs.Service.Name, pass, got, want)
				}
			}
		}
	}
	n := pure * uint64(len(cases))
	wantStats(t, s, n, n)
}

// TestCellStoreKeysOnEveryKnob: two pentesters that share a name but
// not a payload budget, and a walker and a CFG engine that share a name
// and every precision knob, must not share cells.
func TestCellStoreKeysOnEveryKnob(t *testing.T) {
	cs := corpusCases(t, 1)[0]
	s := NewCellStore()
	deep := NewPentester(PentesterConfig{Name: "pt"})
	fast := NewPentester(PentesterConfig{Name: "pt", PayloadBudget: 1})
	ts := NewTaintSAST(TaintSASTConfig{Name: "sast", SinkAware: true})
	df := NewDataflowSAST(DataflowSASTConfig{TaintSASTConfig: TaintSASTConfig{Name: "sast", SinkAware: true}})
	for _, tool := range []Tool{deep, fast, ts, df} {
		if got, want := mustAnalyze(t, s.Wrap(tool), cs), mustAnalyze(t, tool, cs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%T %s: %v, want %v", tool, tool.Name(), got, want)
		}
	}
	wantStats(t, s, 0, 4)
	// An equal configuration built separately is the same cell.
	mustAnalyze(t, s.Wrap(NewPentester(PentesterConfig{Name: "pt", PayloadBudget: 1})), cs)
	wantStats(t, s, 1, 4)
}

// TestCellStoreHitsAreCopies: a caller that mutates the reports it got
// must not change what the next caller gets.
func TestCellStoreHitsAreCopies(t *testing.T) {
	cs := corpusCases(t, 1)[0]
	var calls atomic.Int64
	bare := pureStub{name: "stub", calls: &calls}
	w := NewCellStore().Wrap(bare)
	want := mustAnalyze(t, bare, cs)
	for i := 0; i < 3; i++ {
		got := mustAnalyze(t, w, cs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: %v, want %v", i, got, want)
		}
		got[0].SinkID, got[0].Confidence = 99, 0
	}
	if calls.Load() != 2 { // the bare reference call and one miss
		t.Fatalf("inner tool ran %d times, want 2", calls.Load())
	}
}

// TestCellStoreNeverCachesFailures: a panic or an error leaves no entry,
// so every later call fails the same way in its own frame instead of
// receiving an empty success.
func TestCellStoreNeverCachesFailures(t *testing.T) {
	cases := corpusCases(t, 2)
	var calls atomic.Int64
	s := NewCellStore()
	w := s.Wrap(pureStub{name: "stub", calls: &calls, panicOn: cases[0].Service.Name, errOn: cases[1].Service.Name})
	panics := func() (msg any) {
		defer func() { msg = recover() }()
		_, _ = w.Analyze(cases[0], nil)
		return nil
	}
	for i := 0; i < 3; i++ {
		if msg := panics(); msg == nil {
			t.Fatalf("call %d on the panicking service returned instead of panicking", i)
		}
		if r, err := w.Analyze(cases[1], nil); err == nil {
			t.Fatalf("call %d on the failing service succeeded with %v", i, r)
		}
	}
	wantStats(t, s, 0, 6)
	if calls.Load() != 6 {
		t.Fatalf("inner tool ran %d times, want 6", calls.Load())
	}
}

// TestCellStoreSingleflight: concurrent callers on the same cells run
// the inner tool once per cell; the rest are hits, and hits + misses is
// the number of lookups. Run with -race.
func TestCellStoreSingleflight(t *testing.T) {
	cases := corpusCases(t, 4)
	var calls atomic.Int64
	s := NewCellStore()
	w := s.Wrap(pureStub{name: "stub", calls: &calls})
	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, cs := range cases {
					r, err := w.Analyze(cs, nil)
					if err != nil || len(r) != 1 || r[0].Service != cs.Service.Name {
						t.Errorf("concurrent lookup on %s: %v, %v", cs.Service.Name, r, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	lookups := uint64(goroutines * rounds * len(cases))
	wantStats(t, s, lookups-uint64(len(cases)), uint64(len(cases)))
	if calls.Load() != int64(len(cases)) {
		t.Fatalf("inner tool ran %d times, want once per cell (%d)", calls.Load(), len(cases))
	}
}

// TestCellStoreForwardsBindings: rebinding a wrapped tool rebinds the
// inner tool and keeps the store, so the rebound copy hits what the
// original filled and its misses compile through the bound engine and
// cache.
func TestCellStoreForwardsBindings(t *testing.T) {
	cases := corpusCases(t, 2)
	s := NewCellStore()
	pt := s.Wrap(NewPentester(PentesterConfig{Name: "pt", PayloadBudget: 1}))
	df := s.Wrap(NewDataflowSAST(DataflowSASTConfig{TaintSASTConfig: TaintSASTConfig{Name: "df"}}))
	ts := s.Wrap(NewTaintSAST(TaintSASTConfig{Name: "ts"}))
	for _, tool := range []Tool{pt, df, ts} {
		mustAnalyze(t, tool, cases[0])
	}
	eng, cc := compile.NewEngine(), cfg.NewCache()
	boundPT := pt.(ExecEngineBindable).WithExecEngine(eng)
	boundDF := df.(CompileCacheable).WithCompileCache(cc)
	if ts.(ExecEngineBindable).WithExecEngine(eng) != ts || ts.(CompileCacheable).WithCompileCache(cc) != ts {
		t.Fatal("rebinding a tool without the capability copied the wrapper")
	}
	for _, tool := range []Tool{boundPT, boundDF} {
		for _, cs := range cases {
			mustAnalyze(t, tool, cs)
		}
	}
	wantStats(t, s, 2, 5)
	if _, misses := eng.Stats(); misses != 1 {
		t.Fatalf("bound engine compiled %d services, want the one missed cell", misses)
	}
	if _, misses := cc.Stats(); misses != 1 {
		t.Fatalf("bound compile cache lowered %d services, want the one missed cell", misses)
	}
}
