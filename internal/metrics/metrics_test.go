package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty inputs must yield 0")
	}
	if s := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(s-2) > 1e-9 {
		t.Fatalf("stddev = %v, want 2", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("median = %v", p)
	}
	if p := Percentile(xs, 25); p != 2 {
		t.Fatalf("p25 = %v", p)
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{5, 5, 5, 5}); math.Abs(j-1) > 1e-12 {
		t.Fatalf("equal allocation: %v", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Fatalf("single hog over 4: %v, want 0.25", j)
	}
}

// Property: Jain's index lies in [1/n, 1] for positive allocations.
func TestJainIndexBoundsProperty(t *testing.T) {
	f := func(xs []uint8) bool {
		if len(xs) == 0 {
			return true
		}
		alloc := make([]float64, len(xs))
		for i, x := range xs {
			alloc[i] = float64(x) + 1
		}
		j := JainIndex(alloc)
		n := float64(len(alloc))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCDFAndFracAtLeast(t *testing.T) {
	xs := []float64{3, 1, 2}
	if f := FracAtLeast(xs, 2); math.Abs(f-2.0/3) > 1e-12 {
		t.Fatalf("frac >= 2: %v", f)
	}
}

func TestConvergenceTime(t *testing.T) {
	// Converges at t=3: within ±25% of 50 from there on.
	series := []float64{10, 20, 90, 50, 45, 55, 50, 48, 52, 50, 50}
	if c := ConvergenceTime(series, 50, 5, 0.25); c != 3 {
		t.Fatalf("convergence = %v, want 3", c)
	}
	if c := ConvergenceTime([]float64{1, 1, 1}, 50, 5, 0.25); c != -1 {
		t.Fatalf("non-convergent series gave %v", c)
	}
	for _, tc := range []struct {
		name   string
		series []float64
		want   float64
	}{
		// A second in which the flow received nothing reads 0, which no
		// window may contain: convergence waits until the window clears it.
		{"silent second", []float64{50, 50, 50, 0, 50, 50, 50, 50, 50, 50}, 4},
		// A silent last second leaves the window one short.
		{"silent last second", []float64{50, 50, 50, 50, 50, 0}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if c := ConvergenceTime(tc.series, 50, 5, 0.25); c != tc.want {
				t.Fatalf("convergence = %v, want %v", c, tc.want)
			}
		})
	}
}

// FuzzConvergenceTimePrefix checks the property fig16's early stop rests
// on: a convergence time found on a prefix of a series is the series'
// convergence time, and the series' convergence time is found on every
// prefix that holds its whole window.
func FuzzConvergenceTimePrefix(f *testing.F) {
	f.Add([]byte{10, 20, 90, 50, 45, 55, 50, 48, 52, 50, 50}, uint8(5), uint8(9))
	f.Add([]byte{50, 50, 50, 0, 50, 50, 50, 50, 50, 50}, uint8(5), uint8(10))
	f.Add([]byte{50, 60, 40, 50, 0, 50, 50, 50}, uint8(2), uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, window, cut uint8) {
		// Bytes are Mbps around a 50 Mbps share, so both in- and
		// out-of-band seconds are common.
		s := make([]float64, len(raw))
		for i, b := range raw {
			s[i] = float64(b)
		}
		w := int(window % 8)
		l := int(cut) % (len(s) + 1)
		full := ConvergenceTime(s, 50, w, 0.25)
		pre := ConvergenceTime(s[:l], 50, w, 0.25)
		if pre >= 0 && pre != full {
			t.Fatalf("prefix of %d gives %v, whole series %v", l, pre, full)
		}
		if full >= 0 && int(full)+w < l && pre != full {
			t.Fatalf("prefix of %d holds the window of %v but gives %v", l, full, pre)
		}
	})
}

func TestWindowedJain(t *testing.T) {
	// Two flows alternating 0/10 are unfair at scale 1 but fair at scale 2.
	a := []float64{10, 0, 10, 0, 10, 0, 10, 0}
	b := []float64{0, 10, 0, 10, 0, 10, 0, 10}
	short := WindowedJain([][]float64{a, b}, 1)
	long := WindowedJain([][]float64{a, b}, 2)
	if short >= 0.6 {
		t.Fatalf("alternating flows fair at scale 1: %v", short)
	}
	if long < 0.99 {
		t.Fatalf("alternating flows unfair at scale 2: %v", long)
	}
}

func TestSortedScratchPathsMatchAllocatingOnes(t *testing.T) {
	xs := []float64{9, 2, 7, 2, 5, 1, 8}
	buf := SortInto(nil, xs)
	for _, p := range []float64{0, 10, 50, 90, 95, 100} {
		if got, want := PercentileSorted(buf, p), Percentile(xs, p); got != want {
			t.Fatalf("PercentileSorted(%v) = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 9 {
		t.Fatal("SortInto mutated its input")
	}
}

func TestScratchPathsAllocateNothingWhenWarm(t *testing.T) {
	xs := []float64{9, 2, 7, 2, 5, 1, 8, 4, 6, 3}
	buf := make([]float64, 0, len(xs))
	if avg := testing.AllocsPerRun(20, func() {
		buf = SortInto(buf, xs)
		_ = PercentileSorted(buf, 95)
	}); avg != 0 {
		t.Errorf("SortInto+PercentileSorted with warm scratch: %.1f allocs, want 0", avg)
	}
}
