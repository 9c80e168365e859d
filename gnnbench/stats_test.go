package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.01, 1}, {0.50, 50}, {0.90, 90}, {0.99, 99}, {1, 100},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("p%v of 1..100 = %v, want %v", tc.q*100, got, tc.want)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("p50 of {1,2,3} = %v, want 2", got)
	}
	if got := percentile([]float64{4, 1, 3, 2}, 0.5); got != 2 {
		t.Errorf("p50 of {1,2,3,4} = %v, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median {1,3,5} = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median {1,2,3,4} = %v, want 2.5", got)
	}
}

func TestHistQuantile(t *testing.T) {
	// Values 1 (x2), 2 (x1), 5 (x1): p50 is 1, p75 is 2, max is 5.
	h := make([]int64, 8)
	h[1], h[2], h[5] = 2, 1, 1
	if q, maxV := histQuantile(h, 0.50); q != 1 || maxV != 5 {
		t.Errorf("p50, max = %v, %v; want 1, 5", q, maxV)
	}
	if q, _ := histQuantile(h, 0.75); q != 2 {
		t.Errorf("p75 = %v, want 2", q)
	}
	if q, maxV := histQuantile(make([]int64, 4), 0.5); q != 0 || maxV != 0 {
		t.Errorf("empty histogram gave %v, %v", q, maxV)
	}
}

func TestCountingGateNeverBinds(t *testing.T) {
	var g countingGate
	for i := 0; i < 300; i++ {
		if !g.TryAcquire(1) {
			t.Fatal("gate refused a permit")
		}
	}
	g.Release(300)
	if g.inflight.Load() != 0 {
		t.Fatalf("in flight %d after release", g.inflight.Load())
	}
	if _, maxV := histQuantile(g.histogram(), 0.5); maxV != 300 {
		t.Fatalf("max occupancy %v, want 300", maxV)
	}
}
