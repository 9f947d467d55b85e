package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"time"
)

// metricName is the shape every reported metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metric is one reported number with its unit and the number of samples
// (steps, packets, cells, set-up passes) it was computed from.
type metric struct {
	Name    string
	Unit    string
	Value   float64
	Samples int
}

// report collects one run's metrics and correctness verdicts. Every step the
// benchmark drives and every correctness check it makes is one attempted
// op; a public call that errors or a check that fails is one failed op.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string
}

func (r *report) add(name, unit string, v float64, samples int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Samples: samples})
}

// ms reports a duration in milliseconds.
func (r *report) ms(name string, d time.Duration, samples int) {
	r.add(name, "ms", float64(d.Nanoseconds())/1e6, samples)
}

// check counts one correctness check and records its failure message.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

// fail records one failed op (a step whose public call errored, or a
// failed check already counted as attempted).
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 }

// validate refuses a report whose names are malformed or repeated, or whose
// values cannot be written as JSON numbers.
func (r *report) validate() error {
	seen := map[string]bool{}
	for _, m := range r.metrics {
		if !metricName.MatchString(m.Name) {
			return fmt.Errorf("metric name %q does not match %s", m.Name, metricName)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric %q reported twice", m.Name)
		}
		seen[m.Name] = true
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %q is %v", m.Name, m.Value)
		}
	}
	return nil
}

// write prints the human-readable table (one metric per line, with unit and
// sample count, plus the error rate and any failures) followed by the
// one-line JSON result, which is always the last line.
func (r *report) write(w io.Writer) error {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-44s %16.6g %-6s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-44s %16.6g %-6s samples=%d\n", "error_rate", rate, "ratio", r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// minTail is how many samples must lie beyond a percentile for it to be
// reported: a tail of fewer samples says more about one outlier than about
// the distribution.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, refusing when fewer than minTail samples lie beyond it.
func percentile(samples []time.Duration, p float64) (time.Duration, error) {
	n := len(samples)
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1], nil
}

// median is the middle sample (mean of the middle two for an even count).
func median(samples []time.Duration) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when there is no base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
