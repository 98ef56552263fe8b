package main

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestHistQuantileMatchesExact records a known sample and holds every
// quantile to within the histogram's design error (2^-6 of the value)
// against the exact sorted answer.
func TestHistQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h latHist
	var exact []time.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~ns to ~10s, the range real latencies span.
		d := time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
		h.record(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		got := h.quantile(q)
		want := exact[int(q*float64(len(exact)-1))]
		// The bucket holds values within 1/64 of each other; allow one
		// rank of slack on top for the differing rank conventions.
		tol := time.Duration(float64(want)/32) + 2*time.Microsecond
		if got < want-tol || got > want+tol {
			t.Errorf("quantile(%g) = %v, exact %v (tol %v)", q, got, want, tol)
		}
	}
	if h.quantile(1) != h.max {
		t.Errorf("p100 = %v, want the observed max %v", h.quantile(1), h.max)
	}
}

// TestHistIndexBounds: every value lands in a bucket whose upper edge
// is within 2^-6 relative error above it, and indexes are monotonic.
func TestHistIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	values := []int64{0, 1, 63, 64, 127, 128, 129, 1 << 20, 1<<62 + 12345}
	for i := 0; i < 5000; i++ {
		values = append(values, rng.Int63())
	}
	for _, v := range values {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		edge := histValue(i)
		if edge < v {
			t.Errorf("histValue(histIndex(%d)) = %d < value", v, edge)
		}
		if v >= 128 && float64(edge) > float64(v)*(1+1.0/32) {
			t.Errorf("bucket edge %d overstates %d by more than the design error", edge, v)
		}
	}
	prev := -1
	for v := int64(0); v < 4096; v++ {
		if i := histIndex(v); i < prev {
			t.Fatalf("histIndex not monotonic at %d", v)
		} else {
			prev = i
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, both latHist
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		both.record(d)
		if i%2 == 0 {
			a.record(d)
		} else {
			b.record(d)
		}
	}
	a.merge(&b)
	if a.total != both.total || a.max != both.max {
		t.Fatalf("merge: total %d max %v, want %d %v", a.total, a.max, both.total, both.max)
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != both.quantile(q) {
			t.Errorf("quantile(%g) differs after merge: %v vs %v", q, a.quantile(q), both.quantile(q))
		}
	}
}
