package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/linebacker-sim/linebacker/internal/harness"
	"github.com/linebacker-sim/linebacker/internal/serve"
	"github.com/linebacker-sim/linebacker/internal/sim"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{50, 0.9, false}, // 5 samples beyond p90
		{99, 0.9, false},
		{100, 0.9, true},
		{19, 0.5, true}, // the median is always defined
		{1, 0.5, true},
		{40, 0.75, true},
		{39, 0.75, false},
	} {
		_, err := percentile(seq(tc.n), tc.q)
		if (err == nil) != tc.want {
			t.Errorf("percentile(n=%d, q=%v): err = %v, want ok=%v", tc.n, tc.q, err, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of an empty sample must fail")
	}
	if got, err := percentile(seq(100), 0.9); err != nil || math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90.1", got, err)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSummary(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.N != 5 || s.Median != 3 || s.IQR != 2 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
}

func TestRequestListsFollowTheSeed(t *testing.T) {
	a, b, c := newServeLoad(1), newServeLoad(1), newServeLoad(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different request lists")
	}
	if reflect.DeepEqual(a.sweeps, c.sweeps) || reflect.DeepEqual(a.estimates, c.estimates) || reflect.DeepEqual(a.resubmit, c.resubmit) {
		t.Error("a different seed left a request list unchanged")
	}
}

func TestSweepRequestsCoverDistinctColdPoints(t *testing.T) {
	reqs := sweepRequests(7)
	if len(reqs) != 120 {
		t.Fatalf("%d sweep requests, want 120", len(reqs))
	}
	points := map[sweepPoint]bool{}
	tickets := map[string]bool{}
	for _, r := range reqs {
		tickets[fmt.Sprint(r)] = true
		for _, b := range r.Benches {
			for _, s := range r.Schemes {
				points[sweepPoint{r.Windows, b, s}] = true
			}
		}
	}
	if len(tickets) != 120 || len(points) != 240 {
		t.Errorf("%d distinct requests covering %d distinct points, want 120 and 240", len(tickets), len(points))
	}
	l := newServeLoad(7)
	seen := map[int]bool{}
	for _, i := range l.resubmit {
		if i < 0 || i >= len(l.sweeps) || seen[i] {
			t.Fatalf("resubmit index %d out of range or repeated", i)
		}
		seen[i] = true
	}
	if len(seen) != resubmits {
		t.Errorf("%d resubmits, want %d", len(seen), resubmits)
	}
}

func TestEstimateQueries(t *testing.T) {
	cfg := harness.BenchConfig()
	maxRes := map[string]int{}
	for _, b := range estimateBenches {
		maxRes[b] = sim.MaxResidentCTAs(&cfg.GPU, mustKernel(b))
	}
	qs := estimateRequests(3, maxRes, cfg.LB.MaxPartitions)
	if len(qs) != estimateQueries {
		t.Fatalf("%d queries, want %d", len(qs), estimateQueries)
	}
	fallbacks := map[serve.EstimateRequest]bool{}
	for _, q := range qs {
		if !contains(estimateBenches, q.req.Bench) {
			t.Fatalf("query on uncalibrated bench %q", q.req.Bench)
		}
		base := q.req.L1KB == 0 || q.req.L1KB*1024 == cfg.GPU.L1Bytes
		limited := q.req.SWLLimit > 0 || q.req.VTTParts > 0
		if q.fallback {
			if base || !limited {
				t.Errorf("fallback query %+v is not an out-of-envelope cross-product", q.req)
			}
			fallbacks[q.req] = true
			continue
		}
		if limited && !base || q.req.L1KB != 0 && (q.req.L1KB < 16 || q.req.L1KB > 192) ||
			q.req.SWLLimit > maxRes[q.req.Bench] || q.req.VTTParts > cfg.LB.MaxPartitions {
			t.Errorf("in-envelope query %+v lies outside the calibrated axes", q.req)
		}
	}
	if len(fallbacks) != fallbackQueries {
		t.Errorf("%d distinct fallback queries, want %d", len(fallbacks), fallbackQueries)
	}
}
