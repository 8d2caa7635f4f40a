package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRegistrySnapshotReadsLiveValues(t *testing.T) {
	r := NewRegistry()
	var count uint64
	g := r.Group("tlb.l2tlb0")
	g.Counter("misses", func() uint64 { return count })
	g.Gauge("rate", func() float64 { return float64(count) / 10 })

	count = 7
	snap := r.Snapshot()
	if got := snap["tlb.l2tlb0"]["misses"]; got != float64(7) {
		t.Fatalf("misses = %v, want 7 (snapshot must read live state)", got)
	}
	if got := snap["tlb.l2tlb0"]["rate"]; got != 0.7 {
		t.Fatalf("rate = %v, want 0.7", got)
	}
	if same := r.Group("tlb.l2tlb0"); same != g {
		t.Fatal("Group must return the existing group on re-lookup")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Group("b").Gauge("y", func() float64 { return 2 })
	r.Group("a").Gauge("x", func() float64 { return 1 })
	var out1, out2 bytes.Buffer
	if err := r.Snapshot().WriteJSON(&out1); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatal("snapshot JSON not deterministic")
	}
	var decoded map[string]map[string]float64
	if err := json.Unmarshal(out1.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	var text bytes.Buffer
	if err := r.Snapshot().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if want := "a.x 1\nb.y 2\n"; text.String() != want {
		t.Fatalf("WriteText = %q, want %q", text.String(), want)
	}
}

func TestSamplerDownsamples(t *testing.T) {
	s := NewSampler([]string{"a", "b"}, 8)
	for i := 0; i < 100; i++ {
		s.Offer([]float64{float64(i), 1})
	}
	if s.Len() >= 8 {
		t.Fatalf("sampler exceeded capacity: %d rows", s.Len())
	}
	if s.Stride() == 1 {
		t.Fatal("stride never doubled across 100 offers into capacity 8")
	}
	if s.Offered() != 100 {
		t.Fatalf("Offered = %d, want 100", s.Offered())
	}
	// Stored rows must stay in offer order and evenly strided.
	rows := s.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i][0] <= rows[i-1][0] {
			t.Fatalf("rows out of order at %d: %v after %v", i, rows[i][0], rows[i-1][0])
		}
	}
	if s.Column("b") != 1 || s.Column("missing") != -1 {
		t.Fatal("Column lookup broken")
	}

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(csv.String(), "\n"), "\n")
	if lines[0] != "a,b" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	if len(lines)-1 != s.Len() {
		t.Fatalf("CSV has %d data rows, sampler holds %d", len(lines)-1, s.Len())
	}
}

func TestParseEvents(t *testing.T) {
	m, err := ParseEvents("context_switch,repartition")
	if err != nil {
		t.Fatal(err)
	}
	if !((&Tracer{mask: m}).Enabled(EvContextSwitch)) || (&Tracer{mask: m}).Enabled(EvPOMFill) {
		t.Fatal("mask enables the wrong kinds")
	}
	if m, err = ParseEvents("pom"); err != nil || m != EvPOMFill.Mask()|EvPOMEvict.Mask() {
		t.Fatalf("pom alias = %b, err %v", m, err)
	}
	if m, err = ParseEvents("all"); err != nil || m != AllEvents {
		t.Fatalf("all = %b, err %v", m, err)
	}
	if m, err = ParseEvents("none"); err != nil || m != 0 {
		t.Fatalf("none = %b, err %v", m, err)
	}
	if _, err = ParseEvents("bogus"); err == nil {
		t.Fatal("bogus event accepted")
	}
}

func TestTracerJSONL(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, FormatJSONL, AllEvents)
	tr.ContextSwitch(100, 0, 0, 1)
	tr.Repartition("l3", 1, 8, 10, 11, 1.5, 2.25)
	tr.POMFill(200, 3, 0xabc)
	tr.POMEvict(200, 2, 0xdef)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 4 || tr.Count(EvRepartition) != 1 {
		t.Fatalf("events=%d repartitions=%d", tr.Events(), tr.Count(EvRepartition))
	}

	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var ev map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, ev["event"].(string))
		if ev["event"] == "repartition" {
			if ev["before"] != float64(8) || ev["after"] != float64(10) || ev["raw"] != float64(11) {
				t.Fatalf("repartition payload wrong: %v", ev)
			}
		}
	}
	want := []string{"context_switch", "repartition", "pom_fill", "pom_evict"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("event order %v, want %v", kinds, want)
	}
}

func TestTracerChromeIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, FormatChrome, AllEvents)
	tr.ContextSwitch(100, 1, 0, 1)
	tr.POMFill(150, 2, 42)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 2 || events[0]["ph"] != "i" {
		t.Fatalf("chrome events malformed: %v", events)
	}

	// An empty chrome trace must still be a valid array.
	buf.Reset()
	if err := NewTracer(&buf, FormatChrome, AllEvents).Close(); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("empty chrome trace invalid: %v", err)
	}
}

func TestTracerMaskFiltersKinds(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf, FormatJSONL, EvRepartition.Mask())
	tr.ContextSwitch(1, 0, 0, 1)
	tr.POMFill(1, 1, 1)
	tr.Repartition("l3", 1, 8, 8, 8, 1, 1)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != 1 {
		t.Fatalf("masked tracer recorded %d events, want 1", tr.Events())
	}
	if !strings.Contains(buf.String(), "repartition") || strings.Contains(buf.String(), "pom_fill") {
		t.Fatalf("output has wrong kinds: %s", buf.String())
	}
}

// TestDisabledHooksDoNotAllocate is the zero-cost guarantee the tentpole
// rests on: a nil tracer (what every unobserved component holds) and a
// zero-mask tracer must both make every hook a no-allocation early return.
func TestDisabledHooksDoNotAllocate(t *testing.T) {
	var nilTracer *Tracer
	masked := NewTracer(&bytes.Buffer{}, FormatJSONL, 0)
	for _, tc := range []struct {
		name string
		tr   *Tracer
	}{
		{"nil", nilTracer},
		{"zero-mask", masked},
	} {
		tr := tc.tr
		if n := testing.AllocsPerRun(1000, func() {
			tr.ContextSwitch(1, 0, 0, 1)
			tr.Repartition("l3", 1, 8, 8, 8, 1, 1)
			tr.POMFill(1, 1, 1)
			tr.POMEvict(1, 1, 1)
		}); n != 0 {
			t.Errorf("%s tracer hooks allocate %.1f allocs/op, want 0", tc.name, n)
		}
	}
	if n := testing.AllocsPerRun(1000, func() {
		var g *Group
		g.Counter("x", nil)
		g.Gauge("y", nil)
		g.Histogram("z", nil)
	}); n != 0 {
		t.Errorf("nil group registration allocates %.1f allocs/op, want 0", n)
	}
}

func TestObserverEnabled(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	if (&Observer{}).Enabled() {
		t.Fatal("empty observer reports enabled")
	}
	if !(&Observer{Registry: NewRegistry()}).Enabled() {
		t.Fatal("observer with registry reports disabled")
	}
}

func TestParseFormat(t *testing.T) {
	if f, err := ParseFormat("jsonl"); err != nil || f != FormatJSONL {
		t.Fatalf("jsonl: %v %v", f, err)
	}
	if f, err := ParseFormat("chrome"); err != nil || f != FormatChrome {
		t.Fatalf("chrome: %v %v", f, err)
	}
	if _, err := ParseFormat("xml"); err == nil {
		t.Fatal("xml accepted")
	}
}

func TestSamplerNotifySeesEveryOfferedRow(t *testing.T) {
	s := NewSampler([]string{"a"}, 4)
	var seen int
	s.SetNotify(func(row []float64) {
		seen++
		if len(row) != 1 {
			t.Fatalf("notify row has %d cols, want 1", len(row))
		}
	})
	for i := 0; i < 20; i++ {
		s.Offer([]float64{float64(i)})
	}
	if seen != 20 {
		t.Fatalf("notify saw %d rows, want all 20 offered (stride must not filter the subscription)", seen)
	}
	if s.Len() >= 20 {
		t.Fatalf("sampler stored %d rows, expected downsampling below 20", s.Len())
	}
	s.SetNotify(nil)
	s.Offer([]float64{99})
	if seen != 20 {
		t.Fatal("nil notify must remove the subscription")
	}
}
