// Command riommu-faults runs deterministic fault-injection campaigns against
// the simulated systems: it sweeps fault rates across the safe protection
// modes (the strict baselines and both rIOMMU variants), drives supervised
// NIC / NVMe / SATA workloads through the injection window, and reports how
// the recovery layer held up — recovery success, cycles lost to recovery,
// and throughput degradation under the paper's performance model (§3.3).
//
// Usage:
//
//	riommu-faults [-seed N] [-rates r1,r2,...] [-modes m1,m2,...] [-rounds N]
//	              [-parallel N] [-json FILE] [-audit] [-chaos s1,s2,...|all]
//	              [-cores n1,n2,...] [-intchaos s1,s2,...|all] [-hotplug s1,s2,...|all]
//	              [-tenants n1,n2,...] [-tenantchaos s1,s2,...|all]
//	              [-churn n1,n2,...]
//
// -cores adds multi-queue scale-out cells: for each width > 1, every mode x
// rate combination soaks an MQNIC with that many queue pairs under one
// supervised recovery domain (the port recovers as a unit).
//
// -audit installs the shadow translation oracle in every cell: an
// independent record of the live mappings that verifies each DMA the
// devices perform, with zero effect on the measured virtual clocks.
//
// -chaos adds hostile-device cells (stale replay, overreach, read-only
// write, invalidation flood, cascade) across all protection modes including
// the deferred ones, quarantined by the supervisor's circuit breaker.
// -chaos implies -audit. After an audited run the isolation gate is
// enforced: any violation in a gap-free mode fails the command.
//
// -tenants adds multi-tenant two-stage cells: for each guest count >= 2,
// every hostile-tenant scenario (-tenantchaos, default all: stage-2 stale
// replay, GPA overreach, BDF spoofing, invalidation-queue flooding) runs
// against every presentation mode with that many guests sharing one
// hypervisor. Tenant 0 is hostile; the cross-tenant gate then requires
// zero cross-tenant accesses, the hostile tenant quarantined, and every
// victim tenant at exactly 100% availability — any miss fails the command.
//
// -churn adds fleet-traffic connection-churn cells: for each target
// connection count, every selected mode drives the internal/traffic engine
// (seeded open/close churn, mixed kernel/bypass fleet) with the shadow
// oracle attached, so the map/unmap storm regime is exercised and gated
// alongside the fault campaign.
//
// -intchaos adds hostile-MSI interrupt cells (unmapped-vector storms,
// spoofed-requester messages, stale-IRTE replay) across all seven
// presentation modes, judged by the interrupt shadow oracle. -hotplug adds
// topology-churn cells (attach storms, DMA before attach, surprise removal
// with state live) driving the device-lifecycle state machine. Both imply
// -audit and both are gated: a delivered interrupt the shadow table
// disowns, a ghost delivery after removal, or a surprise removal without a
// finite MTTR fails the command.
//
// Every number in the output is a pure function of the flags: each cell's
// fault engine is seeded from the base seed and the cell's identity, all
// backoff/watchdog time is virtual, and no wall clock or global randomness
// is consulted. Two runs with the same flags produce identical bytes for
// any -parallel value, which makes the campaign diffable across code
// changes.
//
// SIGINT/SIGTERM stop the campaign cooperatively: in-flight cells finish,
// the partial -json report is flushed with "interrupted": true, and the
// command exits 130.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"riommu/internal/campaign"
	"riommu/internal/chaos"
	"riommu/internal/parallel"
	"riommu/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// notifyInterrupt translates SIGINT/SIGTERM into the worker pool's
// cooperative cancellation flag: in-flight cells finish, unstarted ones are
// skipped, and run flushes a partial report. The returned stop func
// detaches the handler (a second signal then kills the process normally).
func notifyInterrupt() (stop func()) {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		for range sigc {
			parallel.Interrupt()
		}
	}()
	return func() {
		signal.Stop(sigc)
		close(sigc)
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	parallel.ResetInterrupt()
	defer notifyInterrupt()()

	fs := flag.NewFlagSet("riommu-faults", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 42, "base campaign seed (same seed => identical output)")
		rates    = fs.String("rates", "0,0.002,0.01,0.05", "comma-separated per-opportunity fault rates")
		modes    = fs.String("modes", "strict,strict+,riommu-,riommu", "comma-separated safe modes to sweep")
		rounds   = fs.Int("rounds", 150, "workload rounds per campaign cell")
		workers  = fs.Int("parallel", 0, "cell-level worker count (0 = GOMAXPROCS, 1 = serial)")
		jsonOut  = fs.String("json", "", "write the machine-readable per-cell report to this file")
		auditOn  = fs.Bool("audit", false, "install the shadow translation oracle and enforce the isolation gate")
		chaosArg = fs.String("chaos", "", "comma-separated hostile-device scenarios, or \"all\" (implies -audit)")
		coresArg = fs.String("cores", "", "comma-separated multi-queue scale-out widths (e.g. \"2,4\"); adds mode x rate cells on an MQNIC with that many queue pairs")
		intArg   = fs.String("intchaos", "", "comma-separated hostile-MSI interrupt scenarios, or \"all\" (implies -audit)")
		plugArg  = fs.String("hotplug", "", "comma-separated hot-plug storm scenarios, or \"all\" (implies -audit)")
		tenArg   = fs.String("tenants", "", "comma-separated guest counts (e.g. \"3,8\"); adds hostile-tenant two-stage cells and enforces the cross-tenant gate")
		churnArg = fs.String("churn", "", "comma-separated fleet connection counts (e.g. \"2000,500000\"); adds audited connection-churn traffic cells per mode")
		tchArg   = fs.String("tenantchaos", "", "comma-separated hostile-tenant scenarios, or \"all\" (default all when -tenants is set)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProf  = fs.String("memprofile", "", "write an allocs heap profile to this file on exit")
		shardArg = fs.String("shard", "", "compute only every K-th grid cell: \"i/K\" with 0 <= i < K (requires -checkpoint)")
		ckptArg  = fs.String("checkpoint", "", "versioned JSON checkpoint: completed cells are flushed here and restored on rerun; extra comma-separated files are merged read-only")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Every list flag is parsed before anything runs; the first bad value
	// is a usage error naming its flag.
	var usage error
	check := func(flag string, err error) {
		if err != nil && usage == nil {
			usage = fmt.Errorf("-%s: %w", flag, err)
		}
	}
	ms, err := campaign.ParseModes(*modes)
	check("modes", err)
	rs, err := campaign.ParseRates(*rates)
	check("rates", err)
	cores, err := campaign.ParseCores(*coresArg)
	check("cores", err)
	tenants, err := campaign.ParseTenants(*tenArg)
	check("tenants", err)
	churn, err := campaign.ParseChurn(*churnArg)
	check("churn", err)
	scenarios, err := chaos.ParseList(*chaosArg, chaos.Scenarios())
	check("chaos", err)
	intScenarios, err := chaos.ParseList(*intArg, chaos.IntScenarios())
	check("intchaos", err)
	plugScenarios, err := chaos.ParseList(*plugArg, campaign.HotplugScenarios())
	check("hotplug", err)
	tenantScenarios, err := chaos.ParseList(*tchArg, chaos.TenantScenarios())
	check("tenantchaos", err)
	if len(tenantScenarios) > 0 && len(tenants) == 0 {
		check("tenantchaos", errors.New("requires -tenants"))
	}
	shardIdx, shardCount, err := parallel.ParseShard(*shardArg)
	check("shard", err)
	if usage != nil {
		fmt.Fprintln(stderr, "riommu-faults:", usage)
		return 2
	}
	// Hostile and hot-plug cells are meaningless without the oracle.
	if len(scenarios) > 0 || len(intScenarios) > 0 || len(plugScenarios) > 0 {
		*auditOn = true
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 2
	}
	// Deferred (not run at exit) so profiles are flushed before the 130 of an
	// interrupted run reaches os.Exit.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "riommu-faults:", err)
		}
	}()

	var ckptPath string
	var mergePaths []string
	if *ckptArg != "" {
		parts := strings.Split(*ckptArg, ",")
		ckptPath = strings.TrimSpace(parts[0])
		for _, p := range parts[1:] {
			if p = strings.TrimSpace(p); p != "" {
				mergePaths = append(mergePaths, p)
			}
		}
	}

	opts := campaign.Options{
		Seed:     *seed,
		Rates:    rs,
		Modes:    ms,
		Rounds:   *rounds,
		Workers:  parallel.Workers(*workers),
		Audit:    *auditOn,
		Chaos:    scenarios,
		Cores:    cores,
		IntChaos: intScenarios,
		Hotplug:  plugScenarios,
		Tenants:  tenants,
		// Run defaults TenantChaos to every scenario when Tenants is set.
		TenantChaos: tenantScenarios,
		Churn:       churn,
		ShardIndex:  shardIdx,
		ShardCount:  shardCount,
		Checkpoint:  ckptPath,
		Merge:       mergePaths,
	}
	res, err := campaign.Run(opts)
	done := 0
	for _, ok := range res.Completed {
		if ok {
			done++
		}
	}
	if parallel.Interrupted() {
		fmt.Fprintf(stderr, "riommu-faults: interrupted — %d of %d cells completed\n", done, len(res.Keys))
		if ckptPath != "" {
			fmt.Fprintf(stderr, "riommu-faults: completed cells saved; rerun with -checkpoint %s to resume\n", ckptPath)
		}
		if *jsonOut != "" {
			if werr := campaign.WriteJSON(*jsonOut, campaign.BuildReport(res)); werr != nil {
				fmt.Fprintln(stderr, "riommu-faults:", werr)
			} else {
				fmt.Fprintf(stderr, "riommu-faults: wrote partial report to %s\n", *jsonOut)
			}
		}
		return 130
	}
	if err != nil {
		fmt.Fprintln(stderr, "riommu-faults:", err)
		return 1
	}
	if !res.Complete() {
		// A shard finished its slice but the checkpoint does not yet cover
		// the grid: report/gates wait for the run that completes it.
		fmt.Fprintf(stderr, "riommu-faults: shard %d/%d done — %d of %d cells in %s\n",
			shardIdx, shardCount, done, len(res.Keys), ckptPath)
		return 0
	}

	fmt.Fprintf(stdout, "riommu-faults: seed=%d rounds=%d (all clocks virtual; output is seed-deterministic)\n\n",
		*seed, *rounds)
	fmt.Fprintln(stdout, res.Render())

	if *jsonOut != "" {
		if err := campaign.WriteJSON(*jsonOut, campaign.BuildReport(res)); err != nil {
			fmt.Fprintln(stderr, "riommu-faults:", err)
			return 1
		}
		fmt.Fprintf(stderr, "riommu-faults: wrote %s\n", *jsonOut)
	}

	for _, g := range []struct {
		name string
		on   bool
		run  func() []string
	}{
		{"isolation", *auditOn, res.AuditViolationsGate},
		{"interrupt", len(intScenarios) > 0 || len(plugScenarios) > 0, res.IntremapViolationsGate},
		{"cross-tenant", len(tenants) > 0, res.CrossTenantViolationsGate},
	} {
		if !g.on {
			continue
		}
		fails := g.run()
		for _, f := range fails {
			fmt.Fprintf(stderr, "riommu-faults: %s gate: %s\n", g.name, f)
		}
		if len(fails) != 0 {
			fmt.Fprintf(stderr, "riommu-faults: %s gate failed (%d violation(s))\n", g.name, len(fails))
			return 1
		}
		fmt.Fprintf(stderr, "riommu-faults: %s gate passed\n", g.name)
	}
	return 0
}
