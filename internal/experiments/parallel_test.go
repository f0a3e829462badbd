package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metricprop"
	"github.com/dsn2015/vdbench/internal/workload"
)

// tinyConfig is a heavily reduced configuration for the cross-worker
// equality matrix: the full pipeline runs end to end (every driver, every
// table) but with sample counts an order of magnitude below QuickConfig,
// because the matrix reruns it 4 worker counts × 3 seeds.
func tinyConfig(seed uint64, workers int) Config {
	return Config{
		Seed:       seed,
		Services:   30,
		Prevalence: 0.35,
		Prop: metricprop.Config{
			MonotonicitySamples:  60,
			WorkloadSize:         150,
			StabilityTrials:      15,
			DiscriminationTrials: 20,
			Tolerance:            1e-9,
		},
		BootstrapResamples: 100,
		PanelSize:          5,
		PanelSigma:         0.1,
		StabilityTrials:    20,
		Workers:            workers,
	}
}

// runAll runs every experiment on a fresh runner, with its cell store
// off when storeOff is set, and returns the runner, the results and the
// baseline campaign.
func runAll(t *testing.T, cfg Config, storeOff bool) (*Runner, []Result, *harness.Campaign) {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if storeOff {
		r.cells = nil
	}
	results, err := r.All()
	if err != nil {
		t.Fatal(err)
	}
	camp, err := r.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	return r, results, camp
}

// TestAllIdenticalAcrossWorkers is the end-to-end determinism pin of the
// parallel layer and the cell store: every experiment's results and the
// baseline campaign (ledgers included) must be deeply equal across
// worker counts, for several seeds, between a serial reference run with
// the cell store off and runs with it on. Worker count is a scheduling
// knob and the store a memo, never a results knob.
func TestAllIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-worker matrix is slow")
	}
	for _, seed := range []uint64{1, 7, 42} {
		_, want, wantCamp := runAll(t, tinyConfig(seed, 1), true)
		for _, workers := range []int{1, 2, 4, 13} {
			_, got, gotCamp := runAll(t, tinyConfig(seed, workers), false)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: results at %d workers with the cell store differ from the serial run without it", seed, workers)
			}
			if !reflect.DeepEqual(gotCamp, wantCamp) {
				t.Fatalf("seed %d: baseline campaign at %d workers with the cell store differs from the serial run without it", seed, workers)
			}
		}
	}
}

// TestCellStoreCounts pins the cell-store counters of a full run. The
// eight pure tools of the standard suite over the 30-case corpus are
// 240 distinct cells, each analysed once (the misses). Every other pure
// lookup is a hit: E14's 300 (ts-lite and pt-deep alone and in three
// combinations, grep-sast alone and in one), E18's 1200 byzantine and
// 240 transient lookups, and the 1025 lookups of its panic campaigns
// (5 rates × 240 cells less the 175 an injected panic pre-empts).
func TestCellStoreCounts(t *testing.T) {
	r, _, _ := runAll(t, tinyConfig(1, 2), false)
	if hits, misses := r.cells.Stats(); hits != 2765 || misses != 240 {
		t.Fatalf("cell store: %d hits, %d misses; want 2765, 240", hits, misses)
	}
}

// failingExecutor fails every campaign it is asked to run.
type failingExecutor struct{}

func (failingExecutor) ExecuteCampaign(context.Context, workload.Config, string, harness.Options) (*harness.Campaign, error) {
	return nil, errors.New("baseline campaign unavailable")
}

// TestE14IndependentOfBaselineCampaign: E14 takes the campaign corpus,
// not the campaign, so it runs even when the baseline cannot.
func TestE14IndependentOfBaselineCampaign(t *testing.T) {
	r, err := NewRunner(tinyConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	r.SetCampaignExecutor(failingExecutor{})
	if _, err := r.RunCtx(context.Background(), "e14"); err != nil {
		t.Fatalf("e14 failed with the baseline campaign unavailable: %v", err)
	}
}

// TestDedicatedCampaignsObserveContext: the experiments that run their
// own campaign (E13 on a skewed corpus, E14 on a combined suite) run it
// under the caller's context, so a progress listener sees their cells
// and cancelling the context stops them.
func TestDedicatedCampaignsObserveContext(t *testing.T) {
	for _, id := range []string{"e13", "e14"} {
		for _, workers := range []int{1, 2} {
			r, err := NewRunner(tinyConfig(1, workers))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var cells atomic.Int64
			ctx = harness.WithProgress(ctx, func(harness.ProgressEvent) {
				cells.Add(1)
				cancel()
			})
			_, err = r.RunCtx(ctx, id)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s at %d workers: err = %v, want context.Canceled", id, workers, err)
			}
			if cells.Load() == 0 {
				t.Fatalf("%s at %d workers: progress listener saw no cells", id, workers)
			}
		}
	}
}

// TestValidateRejectsInconsistentBudgets pins the single-budget rule: an
// explicit Prop.Workers that disagrees with the shared Workers budget is
// a configuration error, not a silent oversubscription.
func TestValidateRejectsInconsistentBudgets(t *testing.T) {
	cfg := tinyConfig(1, 4)
	cfg.Prop.Workers = 2
	err := cfg.Validate()
	if err == nil {
		t.Fatal("inconsistent worker budgets accepted")
	}
	if !strings.Contains(err.Error(), "inconsistent worker budgets") {
		t.Fatalf("unhelpful error: %v", err)
	}

	// Agreement and inheritance are both fine.
	cfg.Prop.Workers = 4
	if err := cfg.Validate(); err != nil {
		t.Fatalf("matching budgets rejected: %v", err)
	}
	cfg.Prop.Workers = 0
	if err := cfg.Validate(); err != nil {
		t.Fatalf("inherited budget rejected: %v", err)
	}
}

// TestPropConfigInheritsWorkers checks the plumbing from the shared
// budget into the property analysis.
func TestPropConfigInheritsWorkers(t *testing.T) {
	r, err := NewRunner(tinyConfig(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.propConfig().Workers; got != 3 {
		t.Fatalf("propConfig().Workers = %d, want inherited 3", got)
	}

	cfg := tinyConfig(1, 3)
	cfg.Prop.Workers = 3
	r2, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.propConfig().Workers; got != 3 {
		t.Fatalf("explicit Prop.Workers not preserved: %d", got)
	}
}
