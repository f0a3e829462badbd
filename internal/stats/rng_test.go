package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d vs %d", i, got, want)
		}
	}
}

func TestNewRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Drain the child; then confirm the parent continues identically to a
	// fresh parent advanced by the same number of draws (1 for the split).
	for i := 0; i < 100; i++ {
		child.Uint64()
	}
	ref := NewRNG(7)
	ref.Uint64() // the draw consumed by Split
	for i := 0; i < 100; i++ {
		if got, want := parent.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("parent stream perturbed by child use at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", f)
		}
	}
}

func TestFloat64MeanNearHalf(t *testing.T) {
	r := NewRNG(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := draws / n
	for i, c := range counts {
		if math.Abs(float64(c-want)) > float64(want)/10 {
			t.Fatalf("bucket %d count %d deviates >10%% from %d", i, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRNG(9)
	const p, n = 0.3, 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%g) empirical rate %g", p, rate)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(10)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %g, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential draw is negative: %g", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %g, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(12)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// Property: Perm always yields a valid permutation for any seed and small n.
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN % 64)
		p := NewRNG(seed).Perm(n)
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceWeighted(t *testing.T) {
	r := NewRNG(13)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		idx := r.Choice(weights)
		if idx < 0 || idx >= 3 {
			t.Fatalf("Choice returned %d", idx)
		}
		counts[idx]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.25 {
		t.Fatalf("weight ratio = %g, want ~3", ratio)
	}
}

func TestChoiceDegenerate(t *testing.T) {
	r := NewRNG(14)
	if got := r.Choice(nil); got != -1 {
		t.Fatalf("Choice(nil) = %d, want -1", got)
	}
	if got := r.Choice([]float64{0, 0}); got != -1 {
		t.Fatalf("Choice(zeros) = %d, want -1", got)
	}
	if got := r.Choice([]float64{-1, -2}); got != -1 {
		t.Fatalf("Choice(negatives) = %d, want -1", got)
	}
}

func TestShuffleSwapCount(t *testing.T) {
	r := NewRNG(15)
	vals := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), vals...)
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	// Must remain a permutation of the original multiset.
	counts := map[string]int{}
	for _, v := range vals {
		counts[v]++
	}
	for _, v := range orig {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("shuffle changed multiset: %q count delta %d", k, c)
		}
	}
}

// TestIntnGolden pins Intn's draw sequences: the expected values were
// captured from the hand-rolled 128-bit multiply that bits.Mul64 replaced,
// so any change to the bounded-sampling arithmetic shows here before it
// reaches a results file. consumed is the number of Uint64 draws the
// eight calls took; n = 1<<62+1 rejects about a quarter of its draws, so
// its count above eight proves the rejection branch ran.
func TestIntnGolden(t *testing.T) {
	cases := []struct {
		n        int
		consumed int
		want     []int
	}{
		{1, 8, []int{0, 0, 0, 0, 0, 0, 0, 0}},
		{2, 8, []int{0, 0, 1, 1, 1, 1, 1, 1}},
		{561, 8, []int{47, 212, 381, 518, 556, 431, 403, 476}},
		{2000, 8, []int{167, 757, 1360, 1849, 1983, 1539, 1438, 1700}},
		{1 << 40, 8, []int{92208311820, 416693192301, 747715637817, 1016710645507, 1090499936226, 846337487105, 790833169754, 934594167787}},
		{1<<62 + 1, 10, []int{386749691100639685, 1747737923241135775, 3136146690562139752, 4573888244516329369, 3549796707516437646, 3919972056329453602, 3511219587673086240, 2690223855575232271}},
		{1<<63 - 1, 8, []int{773499382201279370, 3495475846482271550, 6272293381124279503, 8528787054591062095, 9147776489032658737, 7099593415032875291, 6633989454467100376, 7839944112658907202}},
	}
	for _, c := range cases {
		r := NewRNG(42)
		for i, want := range c.want {
			if got := r.Intn(c.n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, want %d", c.n, i, got, want)
			}
		}
		ref := NewRNG(42)
		for i := 0; i < c.consumed; i++ {
			ref.Uint64()
		}
		if got, want := r.Uint64(), ref.Uint64(); got != want {
			t.Errorf("Intn(%d): stream position after %d draws differs from %d raw draws", c.n, len(c.want), c.consumed)
		}
	}
}

// refBernoulli is the float comparison BernoulliSampler replaced.
func refBernoulli(r *RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// bernoulliProbes covers the edge cases of the integer threshold: the
// no-draw clamps on both sides, the smallest subnormal (p·2⁵³ rounds up
// to a threshold of 1), a tiny normal, interior values, the largest
// double below 1 and NaN (one draw, never true).
var bernoulliProbes = []float64{0, 5e-324, 1e-300, 1.0 / 3, 0.5, math.Nextafter(1, 0), 1, 2, -1, math.NaN()}

// TestBernoulliSamplerMatchesFloat checks that the sampler and
// RNG.Bernoulli return what the float comparison returns, draw for draw,
// and leave the stream where it leaves it.
func TestBernoulliSamplerMatchesFloat(t *testing.T) {
	const n = 2000
	for _, p := range bernoulliProbes {
		ref, viaRNG, viaSampler := NewRNG(3), NewRNG(3), NewRNG(3)
		s := NewBernoulliSampler(p)
		for i := 0; i < n; i++ {
			want := refBernoulli(ref, p)
			if got := viaRNG.Bernoulli(p); got != want {
				t.Fatalf("Bernoulli(%g) draw %d = %v, want %v", p, i, got, want)
			}
			if got := s.Sample(viaSampler); got != want {
				t.Fatalf("sampler(%g) draw %d = %v, want %v", p, i, got, want)
			}
		}
		want := ref.Uint64()
		if viaRNG.Uint64() != want || viaSampler.Uint64() != want {
			t.Fatalf("p=%g: stream position differs from the float comparison after %d draws", p, n)
		}
	}
}

// TestBernoulliGolden pins outcomes and stream positions with literals
// captured from the float comparison: trues is how many of 1000 draws
// at seed 42 came out true, consumed how many Uint64 draws they took.
func TestBernoulliGolden(t *testing.T) {
	cases := []struct {
		p               float64
		trues, consumed int
	}{
		{0, 0, 0},
		{5e-324, 0, 1000},
		{1e-300, 0, 1000},
		{1.0 / 3, 355, 1000},
		{0.5, 506, 1000},
		{math.Nextafter(1, 0), 1000, 1000},
		{1, 1000, 0},
		{2, 1000, 0},
		{-1, 0, 0},
		{math.NaN(), 0, 1000},
	}
	for _, c := range cases {
		r := NewRNG(42)
		s := NewBernoulliSampler(c.p)
		trues := 0
		for i := 0; i < 1000; i++ {
			if s.Sample(r) {
				trues++
			}
		}
		if trues != c.trues {
			t.Errorf("p=%g: %d trues, want %d", c.p, trues, c.trues)
		}
		ref := NewRNG(42)
		for i := 0; i < c.consumed; i++ {
			ref.Uint64()
		}
		if r.Uint64() != ref.Uint64() {
			t.Errorf("p=%g: stream position differs from %d raw draws", c.p, c.consumed)
		}
	}
}

// TestBernoulliSamplerThresholds pins ceil(p·2⁵³) where rounding
// matters: a floor would differ from the float comparison only on one
// draw in 2⁵³, which no draw-by-draw test reaches.
func TestBernoulliSamplerThresholds(t *testing.T) {
	cases := []struct {
		p    float64
		want uint64
	}{
		{5e-324, 1},
		{1e-300, 1},
		{1.0 / 3, 3002399751580331},
		{0.5, 1 << 52},
		{math.Nextafter(1, 0), 1<<53 - 1},
	}
	for _, c := range cases {
		if got := NewBernoulliSampler(c.p); !got.draw || got.threshold != c.want {
			t.Errorf("p=%g: sampler %+v, want a draw against threshold %d", c.p, got, c.want)
		}
	}
}
