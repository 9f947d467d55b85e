// Command perfbench is the repository's host-time benchmark: it runs one
// named workload for a given seed and window, checks the simulator's
// outputs, and prints every metric by name with its unit and sample count.
// The last line of standard output is a one-line JSON result.
//
//	perfbench --workload churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with nothing
// wrapped. With --trace 1 it repeats the measurement, then drives the same
// work again with the layer boundaries wrapped and timed, and prints the
// per-layer metrics. It exits 1 when a correctness check fails and 2 on a
// usage error.
//
// The benchmark reaches the simulator only through public entry points:
// traffic.NewEngine/Tick/Finish/Close, campaign.Run, sim and driver, and the
// DMA engine's SetTranslator and SetAudit seams.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"riommu/internal/cycles"
	"riommu/internal/sim"
)

// benchModes are every workload's protection modes: the strict baseline,
// the fastest deferred baseline, and the rIOMMU.
var benchModes = []sim.Mode{sim.Strict, sim.DeferPlus, sim.RIOMMU}

// setupPasses is how many times each run sets its workload up; setup_s is
// the median pass.
const setupPasses = 5

type opts struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(opts, *report) error{
	"churn":         func(o opts, r *report) error { return runChurn(o, false, r) },
	"churn-audited": func(o opts, r *report) error { return runChurn(o, true, r) },
	"fault-cells":   runFaultCells,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: churn, churn-audited or fault-cells")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 prints the traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload churn|churn-audited|fault-cells, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	// The simulator is single-threaded. With more than one P, the mem
	// backing pool's per-P slots make backing reuse, and so peak memory and
	// world construction time, depend on goroutine scheduling.
	runtime.GOMAXPROCS(1)

	o := opts{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	r := &report{}
	if err := drive(o, r); err != nil {
		r.attempted++
		r.fail("%s: %v", o.workload, err)
	}
	if r.correct() {
		if err := r.validate(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// reportWindow adds the end-to-end host-time metrics of an untraced window.
func reportWindow(r *report, w *window) {
	r.add("ops_per_s", "1/s", w.opsPerSec(), int(w.ops))
	for _, p := range []struct {
		name string
		p    float64
	}{{"step_ms_p50", 50}, {"step_ms_p90", 90}} {
		v, err := percentile(w.steps, p.p)
		if err != nil {
			r.attempted++
			r.fail("%s: %v", p.name, err)
			continue
		}
		r.ms(p.name, v, len(w.steps))
	}
	r.add("alloc_kib_per_op", "KiB", ratio(float64(w.alloc)/1024, float64(w.ops)), int(w.ops))
	r.add("peak_rss_mib", "MiB", w.rss, 1)
}

// reportTrace adds the metrics that compare the traced window with the
// untraced one, and the collector's activity during the traced window.
func reportTrace(pl *perLayer, w, tw *window) {
	pl.set("trace.overhead_pct", (ratio(w.opsPerSec(), tw.opsPerSec())-1)*100, len(tw.steps))
	pl.ms("trace.step_ms_total", tw.busy, len(tw.steps))
	pl.set("go.gc_cycles", float64(tw.gcs), 1)
	pl.ms("go.gc_pause_ms", tw.pause, int(tw.gcs))
	pl.set("go.peak_rss_end_mib", peakRSSMiB(), 1)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// modeKey is a mode's name as it appears in metric names.
func modeKey(m sim.Mode) string {
	return strings.NewReplacer("+", "plus", "-", "minus").Replace(m.String())
}

// ledgerRows are the cycle-ledger components reported per packet: the
// map/unmap breakdown of the paper's Table 1 and the stack.
var ledgerRows = []cycles.Component{
	cycles.MapIOVAAlloc, cycles.MapPageTable, cycles.MapOther,
	cycles.UnmapIOVAFind, cycles.UnmapIOVAFree, cycles.UnmapPageTable,
	cycles.UnmapIOTLBInv, cycles.UnmapOther, cycles.Stack,
}

func cycleName(c cycles.Component, mode string) string {
	return "cycles." + strings.ReplaceAll(c.String(), "/", "_") + "_per_pkt." + mode
}

// def names a metric and its unit.
type def struct{ name, unit string }

// endToEndDefs lists the metrics --trace 0 prints, in order.
func endToEndDefs() []def {
	defs := []def{
		{"setup_s", "s"}, {"ops_per_s", "1/s"}, {"step_ms_p50", "ms"}, {"step_ms_p90", "ms"},
		{"alloc_kib_per_op", "KiB"}, {"peak_rss_mib", "MiB"},
	}
	for _, m := range benchModes {
		defs = append(defs, def{"sim_cycles_per_pkt." + modeKey(m), "cycles"})
	}
	return defs
}

// perLayerDefs lists the metrics --trace 1 prints, in order. Every
// workload prints all of them; a layer a workload does not exercise reads 0.
func perLayerDefs() []def {
	defs := []def{
		{"audit.verify_ms", "ms"}, {"audit.verify_calls", "count"},
		{"audit.checked_per_pkt", "1/pkt"}, {"audit.live_peak", "count"},
		{"audit.violations.deferplus", "count"},
		{"dma.translate_ms", "ms"}, {"dma.translate_calls", "count"},
		{"traffic.tick_self_ms", "ms"}, {"traffic.new_engine_ms", "ms"}, {"traffic.close_ms", "ms"},
		{"sim.new_system_ms", "ms"}, {"sim.attach_nic_ms", "ms"}, {"driver.round_ms", "ms"},
		{"driver.watch_ms", "ms"}, {"sim.close_ms", "ms"},
		{"faults.injected", "count"}, {"driver.retries", "count"}, {"driver.recoveries", "count"},
		{"replay.cells", "count"},
		{"setup.first_s", "s"}, {"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
		{"go.peak_rss_end_mib", "MiB"},
		{"trace.step_ms_total", "ms"}, {"trace.overhead_pct", "%"},
	}
	for _, m := range benchModes {
		mk := modeKey(m)
		defs = append(defs,
			def{"traffic.ops_per_s." + mk, "1/s"},
			def{"iotlb.hit_ratio." + mk, "ratio"}, def{"iotlb.lookups." + mk, "count"},
			def{"iotlb.invalidates." + mk, "count"}, def{"iotlb.global_flushes." + mk, "count"},
			def{"core.prefetch_hit_ratio." + mk, "ratio"}, def{"core.rpte_loads." + mk, "count"},
			def{"core.table_fetches." + mk, "count"},
			def{"iova.max_alloc_visits." + mk, "count"}, def{"iova.carved_pages." + mk, "pages"},
			def{"traffic.map_events_per_pkt." + mk, "1/pkt"}, def{"dma.bytes_per_pkt." + mk, "B/pkt"},
			def{"cycles.recovery_per_cell." + mk, "cycles"})
		for _, c := range ledgerRows {
			defs = append(defs, def{cycleName(c, mk), "cycles"})
		}
	}
	return defs
}

// perLayer collects a traced run's metrics by name and emits them in the
// order of perLayerDefs.
type perLayer struct {
	m map[string]metric
}

func newPerLayer() *perLayer { return &perLayer{m: map[string]metric{}} }

func (p *perLayer) set(name string, v float64, samples int) {
	p.m[name] = metric{Name: name, Value: v, Samples: samples}
}

func (p *perLayer) ms(name string, d time.Duration, samples int) {
	p.set(name, float64(d.Nanoseconds())/1e6, samples)
}

// emit adds every per-layer metric to r, with its unit; a name set here but
// missing from perLayerDefs is a bug.
func (p *perLayer) emit(r *report) error {
	for _, d := range perLayerDefs() {
		m := p.m[d.name]
		r.add(d.name, d.unit, m.Value, m.Samples)
		delete(p.m, d.name)
	}
	for n := range p.m {
		return fmt.Errorf("per-layer metric %q is not in perLayerDefs", n)
	}
	return nil
}
