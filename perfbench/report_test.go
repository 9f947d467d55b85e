package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(n - i) // reversed, so the helper must sort
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want time.Duration // 0: refused
	}{
		{19, 50, 0},
		{20, 50, 10},
		{99, 90, 0},
		{100, 90, 90},
		{1000, 99, 990},
		{10, 1, 0},
	} {
		got, err := percentile(durations(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want refusal", c.p, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median(durations(5)); got != 3 {
		t.Errorf("median of 1..5 = %v", got)
	}
	if got := median(durations(4)); got != 2 {
		t.Errorf("median of 1..4 = %v (integer mean of 2 and 3)", got)
	}
}

// TestMetricNames checks every name the benchmark can print against the
// name rule and against BENCHMARK.json, so the two lists cannot drift.
func TestMetricNames(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []def, spec []struct{ Name, Unit string }) {
		if len(defs) != len(spec) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(spec))
			return
		}
		for i, d := range defs {
			if !metricName.MatchString(d.name) {
				t.Errorf("%s: name %q does not match %s", kind, d.name, metricName)
			}
			if d.name != spec[i].Name || d.unit != spec[i].Unit {
				t.Errorf("%s %d: benchmark prints %s [%s], BENCHMARK.json lists %s [%s]",
					kind, i, d.name, d.unit, spec[i].Name, spec[i].Unit)
			}
		}
	}
	check("end_to_end", endToEndDefs(), spec.EndToEnd)
	check("per_layer", perLayerDefs(), spec.PerLayer)
	if n := len(perLayerDefs()); n > 128 {
		t.Errorf("%d per-layer metrics, at most 128", n)
	}
	r := &report{}
	for _, d := range append(endToEndDefs(), perLayerDefs()...) {
		r.add(d.name, d.unit, 1, 1)
	}
	if err := r.validate(); err != nil {
		t.Error(err)
	}
	r.add("bad name", "ms", 1, 1)
	if r.validate() == nil {
		t.Error("validate accepted a name with a space")
	}
}

func TestReportLastLineIsTheResult(t *testing.T) {
	r := &report{}
	r.add("ops_per_s", "1/s", 12.5, 3)
	r.check(true, "fine")
	r.check(false, "broken %d", 7)
	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("result keys = %v", got)
	}
	var out struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Attempted != 2 || out.Failed != 1 || out.Metrics["ops_per_s"].Value != 12.5 {
		t.Errorf("result = %+v", out)
	}
	if !strings.Contains(buf.String(), "FAIL: broken 7") {
		t.Errorf("failure not printed:\n%s", buf.String())
	}
}

// TestTracedRuns drives every workload's traced run over its shortest
// window: every correctness check must pass (traced purity and replay
// fidelity included), and the audit span must hold most of the audited
// step time and none of the unaudited.
func TestTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload")
	}
	for _, name := range []string{"churn-audited", "churn", "fault-cells"} {
		r := &report{}
		if err := workloads[name](opts{workload: name, seed: 3, window: time.Millisecond, trace: true}, r); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.correct() {
			t.Fatalf("%s: %v", name, r.failures)
		}
		if err := r.validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string]float64{}
		for _, m := range r.metrics {
			got[m.Name] = m.Value
		}
		share := got["audit.verify_ms"] / got["trace.step_ms_total"]
		switch {
		case name == "churn-audited" && share < 0.5:
			t.Errorf("%s: audit.verify_ms is %.0f%% of step time, want most", name, share*100)
		case name != "churn-audited" && got["audit.verify_ms"] != 0:
			t.Errorf("%s: audit.verify_ms = %v, want 0", name, got["audit.verify_ms"])
		}
		if name == "fault-cells" && got["replay.cells"] == 0 {
			t.Errorf("%s: no NIC cell replayed", name)
		}
	}
}
