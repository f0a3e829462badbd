package harness

import (
	"context"
	"testing"
)

// campaignAllocBudget is the measured per-run heap allocation count of a
// 200-service standard-suite campaign on the bytecode VM (RunCtx,
// workers=1). The budget test fails when a change regresses allocations
// by more than 10% — the guard that keeps the VM's arena discipline from
// eroding. Re-measure with
// `go test -run TestAllocBudgetCampaign -v .` and update deliberately
// when the campaign legitimately grows.
const campaignAllocBudget = 36_600

// TestAllocBudgetCampaign is the campaign-level allocation budget of the
// bytecode-execution work: the whole 200-service standard-suite campaign
// must stay within 10% of the recorded budget. Skipped under -race
// (instrumentation allocates) and -short (the campaign runs several
// times).
func TestAllocBudgetCampaign(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	if testing.Short() {
		t.Skip("campaign allocation measurement is slow")
	}
	corpus := testCorpus(t, 200, 1)
	tools := testTools(t)
	run := func() {
		camp, err := RunCtx(context.Background(), corpus, tools, Options{Seed: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(camp.Results) == 0 {
			t.Fatal("empty campaign")
		}
	}
	run() // warm package-level lazy state out of the measurement
	allocs := testing.AllocsPerRun(3, run)
	t.Logf("campaign allocations: %.0f per run (budget %d)", allocs, campaignAllocBudget)
	if allocs > campaignAllocBudget*1.10 {
		t.Errorf("campaign allocates %.0f per run, more than 10%% over the %d budget; rerun the measurement and update the budget only for a deliberate cost", allocs, campaignAllocBudget)
	}
}
