package harness

import (
	"context"
	"reflect"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors"
	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/stats"
	"github.com/dsn2015/vdbench/internal/workload"
)

// panickyPure is a Pure tool that panics on one service and reports
// nothing elsewhere.
type panickyPure struct{ panicOn string }

func (p panickyPure) Name() string           { return "panicky" }
func (p panickyPure) Class() detectors.Class { return detectors.ClassSAST }
func (p panickyPure) CellIdentity() any      { return p }
func (p panickyPure) Analyze(cs workload.Case, _ *stats.RNG) ([]detectors.Report, error) {
	if cs.Service.Name == p.panicOn {
		panic("panicky: " + cs.Service.Name)
	}
	return nil, nil
}

// TestCellStorePanicRecordedInEveryCampaign: campaigns sharing a cell
// store, bare or under a fault wrapper as E18 runs them, must each
// record the tool's panic. A store that cached the failed call would
// turn the second and later panics into empty successes.
func TestCellStorePanicRecordedInEveryCampaign(t *testing.T) {
	corpus := testCorpus(t, 6, 4)
	const bad = 3
	store := detectors.NewCellStore()
	tool := store.Wrap(panickyPure{panicOn: corpus.Cases[bad].Service.Name})
	campaigns := 0
	for _, workers := range []int{1, 2, 1} {
		wrapped, err := faulty.Wrap(tool, faulty.Config{Mode: faulty.ModeByzantine, Rate: 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, tl := range []detectors.Tool{tool, wrapped} {
			camp, err := RunCtx(context.Background(), corpus, []detectors.Tool{tl}, Options{Seed: 1, Workers: workers, Degraded: DegradedSkip})
			if err != nil {
				t.Fatal(err)
			}
			l := camp.Results[0].Exec
			if l.RecoveredPanics != 1 || !reflect.DeepEqual(l.FailedCases, []int{bad}) {
				t.Fatalf("campaign %d (workers %d): ledger %+v, want one recovered panic on case %d", campaigns, workers, l, bad)
			}
			campaigns++
		}
	}
	n := uint64(len(corpus.Cases) - 1)
	if hits, misses := store.Stats(); misses != n+uint64(campaigns) || hits != n*uint64(campaigns-1) {
		t.Fatalf("store stats = %d hits, %d misses; want every healthy cell once and the panicking cell every time", hits, misses)
	}
}
