package experiments

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/dsn2015/vdbench/internal/detectors/faulty"
	"github.com/dsn2015/vdbench/internal/harness"
	"github.com/dsn2015/vdbench/internal/metrics"
	"github.com/dsn2015/vdbench/internal/stats"
)

// TestPackedDeltaMatchesConfusionDelta locks E7's packed-column path to
// the harness.ConfusionDelta reference on a real quick-config campaign:
// every adjacent tool pair, every campaign metric, random resamples, and
// degenerate resamples (empty, or one repeated sink of each pair cell
// code) on which metrics are undefined and fall back to their worst
// value. E4c's per-tool gather is checked against the summed outcomes on
// the same vectors.
func TestPackedDeltaMatchesConfusionDelta(t *testing.T) {
	camp, err := quickRunner(t).CampaignCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := len(camp.Results[0].Outcomes)
	rng := stats.NewRNG(99)
	var vectors [][]int
	vectors = append(vectors, []int{})
	for v := 0; v < 40; v++ {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		vectors = append(vectors, idx)
	}
	for p := 0; p+1 < len(camp.Results); p++ {
		a, b := &camp.Results[p], &camp.Results[p+1]
		col, err := harness.PairColumn(a, b)
		if err != nil {
			t.Fatal(err)
		}
		tcol := harness.ConfusionColumn(a)
		cases := slices.Clip(vectors)
		seen := map[uint8]bool{}
		for i, code := range col {
			if !seen[code] {
				seen[code] = true
				cases = append(cases, []int{i, i, i})
			}
		}
		for _, idx := range cases {
			for _, id := range campaignMetricIDs() {
				m := metrics.MustByID(id)
				want, wantErr := harness.ConfusionDelta(a, b, m, idx)
				got, gotErr := harness.PackedDelta(col, m, idx)
				if (wantErr != nil) != (gotErr != nil) || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s vs %s, %s, resample %v: packed (%v, %v), reference (%v, %v)",
						a.Tool, b.Tool, id, idx[:min(len(idx), 5)], got, gotErr, want, wantErr)
				}
			}
			var want metrics.Confusion
			for _, i := range idx {
				want = want.Add(a.Outcomes[i].Confusion())
			}
			if got := harness.GatherConfusion(tcol, idx); got != want {
				t.Fatalf("%s: gathered %+v, summed %+v", a.Tool, got, want)
			}
		}
	}
}

// TestE18SharedGridMatchesRunCtx proves the merge-twice path of E18
// sound: at every swept rate and at 1 and 4 workers, the skip and
// count-miss campaigns merged from one panic-fault cell grid deep-equal
// the two independent RunCtx campaigns, ledgers included.
func TestE18SharedGridMatchesRunCtx(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		cfg := QuickConfig()
		cfg.Workers = workers
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := r.CampaignCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		corpus := baseline.Corpus
		for _, rate := range e18Rates {
			skip, miss, err := r.e18PanicCampaigns(ctx, corpus, rate)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				got    *harness.Campaign
				policy harness.DegradedPolicy
			}{{skip, harness.DegradedSkip}, {miss, harness.DegradedCountMiss}} {
				want, err := r.e18Campaign(ctx, corpus, faulty.ModePanic, rate, c.policy, harness.RetryPolicy{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(c.got, want) {
					t.Errorf("workers %d, rate %g, %s: merged campaign differs from RunCtx", workers, rate, c.policy)
				}
			}
			if rate == e18Rates[len(e18Rates)-1] && miss.Results[0].Exec.Failed == 0 {
				t.Errorf("workers %d, rate %g: no failed cells; the comparison is vacuous", workers, rate)
			}
		}
	}
}
