package experiments

import (
	"context"
	"testing"
)

// BenchmarkLayer times one experiment driver per sub-benchmark at the
// default configuration (the published one). The campaign and corpus are
// built before the timer starts, so each iteration is the driver's own
// work as it is inside `vdbench all`, where the baseline campaign has
// already filled the runner's cell store: for e7 the sign-stability
// resampling, for e14 the combined campaign over memoised members, for
// e18 the degraded campaigns and their merges.
//
//	go test -run '^$' -bench 'BenchmarkLayer' -benchtime 3x -benchmem ./internal/experiments
func BenchmarkLayer(b *testing.B) {
	for _, id := range []string{"e7", "e14", "e18"} {
		b.Run(id, func(b *testing.B) {
			ctx := context.Background()
			r, err := NewRunner(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.CampaignCtx(ctx); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.RunCtx(ctx, id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
