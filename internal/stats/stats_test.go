package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Counter = %d, want 42", got)
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(1, 0); got != 0 {
		t.Errorf("Ratio(1,0) = %v, want 0", got)
	}
	if got := Ratio(3, 4); got != 0.75 {
		t.Errorf("Ratio(3,4) = %v, want 0.75", got)
	}
}

func TestMPKI(t *testing.T) {
	if got := MPKI(5, 1000); got != 5 {
		t.Errorf("MPKI(5,1000) = %v, want 5", got)
	}
	if got := MPKI(5, 0); got != 0 {
		t.Errorf("MPKI with 0 instructions = %v, want 0", got)
	}
	if got := MPKI(1, 2000); got != 0.5 {
		t.Errorf("MPKI(1,2000) = %v, want 0.5", got)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	// Non-positive entries are skipped rather than producing NaN.
	got = GeoMean([]float64{0, 2, 8})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(0,2,8) = %v, want 4", got)
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	f := func(a, b, c uint16) bool {
		xs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs[1:] {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHitRate(t *testing.T) {
	var h HitRate
	if got := h.Rate(); got != 0 {
		t.Errorf("empty Rate = %v, want 0", got)
	}
	h.Hit()
	h.Hit()
	h.Hit()
	h.Miss()
	if got := h.Rate(); got != 0.75 {
		t.Errorf("Rate = %v, want 0.75", got)
	}
	if got := h.MissRate(); got != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", got)
	}
	if got := h.Accesses(); got != 4 {
		t.Errorf("Accesses = %v, want 4", got)
	}
	h.Reset()
	if h.Accesses() != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestRunningMean(t *testing.T) {
	var r RunningMean
	if got := r.Mean(); got != 0 {
		t.Errorf("empty Mean = %v, want 0", got)
	}
	for _, x := range []float64{2, 4, 6} {
		r.Observe(x)
	}
	if got := r.Mean(); got != 4 {
		t.Errorf("Mean = %v, want 4", got)
	}
	if got := r.N(); got != 3 {
		t.Errorf("N = %v, want 3", got)
	}
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestHistogramTotalMatchesBuckets(t *testing.T) {
	f := func(samples []uint64) bool {
		var h Log2Histogram
		var sum uint64
		for _, s := range samples {
			h.Observe(s)
		}
		for i := 0; i < 65; i++ {
			sum += h.Bucket(i)
		}
		return sum == h.Total() && h.Total() == uint64(len(samples))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Demo", "workload", "speedup")
	tb.AddRow("gups", 1.25)
	tb.AddRow("canneal", float32(0.5))
	tb.AddRow("n", 7)
	if tb.NumRows() != 3 {
		t.Fatalf("NumRows = %d, want 3", tb.NumRows())
	}
	if got := tb.Cell(0, 1); got != "1.250" {
		t.Errorf("Cell(0,1) = %q, want 1.250", got)
	}
	out := tb.String()
	for _, want := range []string{"== Demo ==", "workload", "gups", "1.250", "0.500", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
}
