package driver

import (
	"errors"
	"fmt"

	"riommu/internal/cycles"
	"riommu/internal/pci"
)

// This file implements the driver-level fault-recovery machinery layered on
// the fault-injection engine (package faults): bounded retry with
// virtual-clock backoff, a watchdog that detects hung devices by the absence
// of forward progress, graceful degradation to a safer protection mode when
// a device keeps faulting, and (breaker.go) circuit breaking that
// quarantines a device that keeps failing anyway. Everything is charged to
// the virtual clock's Recovery component, so campaigns can report exactly
// how many cycles fault handling costs (cmd/riommu-faults).

// Sentinel errors for the recovery outcomes callers need to distinguish;
// every path wraps them with %w, so use errors.Is — never string matching.
var (
	// ErrRetriesExhausted: every attempt of an operation failed; the last
	// underlying error is wrapped alongside.
	ErrRetriesExhausted = errors.New("driver: retries exhausted")
	// ErrWatchdogHang: a watchdog-detected hang could not be recovered.
	ErrWatchdogHang = errors.New("driver: watchdog hang recovery failed")
	// ErrDegraded: switching the device to degraded protection failed.
	ErrDegraded = errors.New("driver: protection degradation failed")
	// ErrQuarantined: the circuit breaker holds the device isolated;
	// operations fast-fail until the quarantine backoff expires.
	ErrQuarantined = errors.New("driver: device quarantined")
)

// RecoveryStats aggregates a Supervisor's fault-handling activity.
type RecoveryStats struct {
	Retries       uint64 // individual retry attempts
	Recoveries    uint64 // successful device reinitializations
	WatchdogFires uint64 // hangs detected by the watchdog
	Degradations  uint64 // protection-mode degradations performed
	Unrecovered   uint64 // operations abandoned after exhausting retries
	Rejected      uint64 // operations fast-failed while quarantined
}

// SLOStats is the supervisor's recovery-SLO ledger, all in virtual cycles:
// an outage runs from the first failed Do to the next successful one, so
// MTTR and availability are pure functions of the seed.
type SLOStats struct {
	Outages        uint64
	DowntimeCycles uint64
}

// MTTRCycles is the mean time (virtual cycles) to recover from an outage.
func (s SLOStats) MTTRCycles() float64 {
	if s.Outages == 0 {
		return 0
	}
	return float64(s.DowntimeCycles) / float64(s.Outages)
}

// Availability is uptime as a fraction of the given total elapsed cycles.
func (s SLOStats) Availability(totalCycles uint64) float64 {
	if totalCycles == 0 {
		return 1
	}
	av := 1 - float64(s.DowntimeCycles)/float64(totalCycles)
	if av < 0 {
		return 0
	}
	return av
}

// RetryPolicy bounds the retry loop: at most MaxAttempts tries of the
// operation, with a virtual-clock backoff that starts at BackoffCycles and
// doubles after each failed attempt (charged to cycles.Recovery), saturating
// at MaxBackoffCycles (0 = unbounded).
type RetryPolicy struct {
	MaxAttempts      int
	BackoffCycles    uint64
	MaxBackoffCycles uint64
}

// DefaultRetryPolicy retries three times starting at a 1,000-cycle backoff —
// small next to a device reset (~ResetCycles) but enough to model the
// latency cost of fault handling — and never backs off longer than one
// device reset.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 3, BackoffCycles: 1_000, MaxBackoffCycles: 50_000}

// Recoverable is the driver capability the recovery layer needs: a full
// device/mapping reinitialization (the OS response to an I/O page fault, §4)
// and a monotonic progress counter the watchdog samples.
type Recoverable interface {
	Recover() error
	Progress() uint64
}

// Watchdog detects hung devices: each Check samples the driver's progress
// counter and reports a hang when it has not advanced since the previous
// Check. Every check charges CheckCycles to the Recovery component — the
// periodic timer work a real watchdog costs even when nothing is wrong.
type Watchdog struct {
	clk *cycles.Clock

	// CheckCycles is charged per Check (the timer callback).
	CheckCycles uint64

	last   uint64
	primed bool
	Fires  uint64 // hangs detected
	Checks uint64 // total checks performed
}

// NewWatchdog creates a watchdog charging the given clock.
func NewWatchdog(clk *cycles.Clock) *Watchdog {
	return &Watchdog{clk: clk, CheckCycles: 200}
}

// Check samples progress and reports whether the device appears hung (no
// forward progress since the previous Check). The first call only primes the
// baseline and never fires.
func (w *Watchdog) Check(progress uint64) bool {
	w.clk.Charge(cycles.Recovery, w.CheckCycles)
	w.Checks++
	hung := w.primed && progress == w.last
	w.last, w.primed = progress, true
	if hung {
		w.Fires++
	}
	return hung
}

// Reset re-primes the watchdog (after a device reinitialization, whose
// progress counters may move arbitrarily).
func (w *Watchdog) Reset() { w.primed = false }

// Supervisor ties the pieces together for one device: it runs driver
// operations under the retry policy, reinitializes the device when retries
// alone cannot clear the fault, watches for hangs, and — when the device
// keeps needing recovery — degrades its protection via DegradeFn.
type Supervisor struct {
	clk    *cycles.Clock
	bdf    pci.BDF
	target Recoverable

	Policy   RetryPolicy
	Watchdog *Watchdog

	// ResetCycles is the cost of one device reinitialization (Recover):
	// quiescing the device, tearing down and re-creating its mappings.
	ResetCycles uint64

	// DegradeFn, when set, switches the device to a stricter/safer
	// protection mode (e.g. rIOMMU -> baseline strict); it is invoked once,
	// after DegradeAfter device recoveries, and costs DegradeCycles.
	DegradeFn     func() error
	DegradeAfter  uint64
	DegradeCycles uint64
	degraded      bool

	// Breaker, when non-nil, circuit-breaks the device: repeated failures
	// quarantine it (operations fast-fail with ErrQuarantined) until a
	// virtual-clock backoff expires and a probe re-admits it. Isolator is
	// the physical detach/re-admit (typically a dma.Router blackhole route);
	// a nil Isolator makes quarantine purely logical (fast-fail only).
	Breaker  *Breaker
	Isolator Isolator
	// IsolateCycles/ReadmitCycles are charged per quarantine transition.
	IsolateCycles, ReadmitCycles uint64

	// Guard, when non-nil, is the tenant-scoped circuit breaker shared by
	// every supervisor of one tenant's devices. It is consulted before the
	// per-device breaker and fed the outcome of every operation, so any
	// device of the tenant can spend the tenant's error budget — and a trip
	// quarantines them all.
	Guard *TenantGuard

	Stats RecoveryStats

	slo       SLOStats
	down      bool
	downSince uint64
}

// NewSupervisor wraps a recoverable driver for the device bdf.
func NewSupervisor(clk *cycles.Clock, bdf pci.BDF, target Recoverable) *Supervisor {
	return &Supervisor{
		clk:           clk,
		bdf:           bdf,
		target:        target,
		Policy:        DefaultRetryPolicy,
		Watchdog:      NewWatchdog(clk),
		ResetCycles:   50_000, // ~16 µs at 3.1 GHz: ring teardown + refill
		DegradeAfter:  8,
		DegradeCycles: 200_000, // rebuild page tables + remap under new unit
		IsolateCycles: 20_000,  // detach the route, drain in-flight state
		ReadmitCycles: 20_000,
	}
}

// Degraded reports whether DegradeFn has run.
func (s *Supervisor) Degraded() bool { return s.degraded }

// reinit performs one charged device recovery and the degradation check.
func (s *Supervisor) reinit() error {
	s.clk.Charge(cycles.Recovery, s.ResetCycles)
	if err := s.target.Recover(); err != nil {
		return err
	}
	s.Stats.Recoveries++
	s.Watchdog.Reset()
	if !s.degraded && s.DegradeFn != nil && s.Stats.Recoveries >= s.DegradeAfter {
		s.clk.Charge(cycles.Recovery, s.DegradeCycles)
		if err := s.DegradeFn(); err != nil {
			return fmt.Errorf("%w: %w", ErrDegraded, err)
		}
		s.degraded = true
		s.Stats.Degradations++
	}
	return nil
}

// attempt runs op under the retry policy: after each failure it backs off
// (doubling, saturating at MaxBackoffCycles), reinitializes the device, and
// retries. When every attempt fails the fault is counted unrecovered and the
// last error returned wrapped in ErrRetriesExhausted.
func (s *Supervisor) attempt(op func() error) error {
	attempts := s.Policy.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := s.Policy.BackoffCycles
	var err error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			s.clk.Charge(cycles.Recovery, backoff)
			backoff *= 2
			if max := s.Policy.MaxBackoffCycles; max > 0 && backoff > max {
				backoff = max
			}
			s.Stats.Retries++
			if rerr := s.reinit(); rerr != nil {
				return fmt.Errorf("driver: recovery failed: %w (after %v)", rerr, err)
			}
		}
		if err = op(); err == nil {
			return nil
		}
	}
	s.Stats.Unrecovered++
	return fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, attempts, err)
}

// Do runs op through the circuit breaker and the retry policy, and keeps
// the SLO ledger. While quarantined it fast-fails with ErrQuarantined; the
// first call after the quarantine backoff expires tentatively re-admits the
// device and probes it — success closes the breaker, failure re-isolates
// with a doubled backoff.
func (s *Supervisor) Do(op func() error) error {
	if s.Guard != nil {
		ok, gerr := s.Guard.Allow(s.clk.Now())
		if gerr != nil {
			s.noteOutcome(true)
			return gerr
		}
		if !ok {
			s.clk.Charge(cycles.Recovery, s.Guard.Breaker.RejectCycles)
			s.Stats.Rejected++
			s.noteOutcome(true)
			return fmt.Errorf("%w: tenant %d: %s", ErrQuarantined, s.Guard.Tenant, s.bdf)
		}
	}
	if s.Breaker != nil {
		wasOpen := s.Breaker.State() == BreakerOpen
		if !s.Breaker.Allow(s.clk.Now()) {
			s.clk.Charge(cycles.Recovery, s.Breaker.RejectCycles)
			s.Stats.Rejected++
			s.noteOutcome(true)
			return fmt.Errorf("%w: %s", ErrQuarantined, s.bdf)
		}
		if wasOpen {
			// Allow moved open → half-open: this operation is the probe.
			// Physically re-admit the device first so the probe exercises
			// the real DMA path rather than the blackhole.
			s.clk.Charge(cycles.Recovery, s.ReadmitCycles)
			if s.Isolator != nil {
				if err := s.Isolator.Readmit(); err != nil {
					s.noteOutcome(true)
					return fmt.Errorf("driver: re-admitting %s: %w", s.bdf, err)
				}
			}
		}
	}
	err := s.attempt(op)
	if s.Breaker != nil {
		if err != nil {
			if s.Breaker.OnFailure(s.clk.Now()) {
				if ierr := s.isolate(); ierr != nil {
					err = fmt.Errorf("%w; %w", err, ierr)
				}
			}
		} else {
			s.Breaker.OnSuccess(s.clk.Now())
		}
	}
	if s.Guard != nil {
		if err != nil {
			if gerr := s.Guard.OnFailure(s.clk.Now()); gerr != nil {
				err = fmt.Errorf("%w; %w", err, gerr)
			}
		} else {
			s.Guard.OnSuccess(s.clk.Now())
		}
	}
	s.noteOutcome(err != nil)
	return err
}

func (s *Supervisor) isolate() error {
	s.clk.Charge(cycles.Recovery, s.IsolateCycles)
	if s.Isolator == nil {
		return nil
	}
	if err := s.Isolator.Isolate(); err != nil {
		return fmt.Errorf("driver: isolating %s: %w", s.bdf, err)
	}
	return nil
}

// noteOutcome advances the SLO ledger: a failure opens an outage (if none is
// running), a success closes it.
func (s *Supervisor) noteOutcome(failed bool) {
	now := s.clk.Now()
	if failed {
		if !s.down {
			s.down, s.downSince = true, now
		}
		return
	}
	if s.down {
		s.slo.Outages++
		s.slo.DowntimeCycles += now - s.downSince
		s.down = false
	}
}

// SLO returns the recovery-SLO ledger; an outage still in progress is
// counted up to the current virtual time.
func (s *Supervisor) SLO() SLOStats {
	out := s.slo
	if s.down {
		out.Outages++
		out.DowntimeCycles += s.clk.Now() - s.downSince
	}
	return out
}

// Watch runs one watchdog check; on a detected hang it reinitializes the
// device. It reports whether a hang was handled. A hang spends circuit-
// breaker error budget even when the reinit succeeds; while the device is
// quarantined the watchdog stands down (the breaker owns re-admission).
func (s *Supervisor) Watch() (bool, error) {
	if s.Breaker != nil && s.Breaker.Quarantined(s.clk.Now()) {
		s.clk.Charge(cycles.Recovery, s.Breaker.RejectCycles)
		return false, nil
	}
	if !s.Watchdog.Check(s.target.Progress()) {
		return false, nil
	}
	s.Stats.WatchdogFires++
	if s.Breaker != nil {
		if s.Breaker.OnFailure(s.clk.Now()) {
			if ierr := s.isolate(); ierr != nil {
				return true, fmt.Errorf("%w: %w", ErrWatchdogHang, ierr)
			}
		}
	}
	if err := s.reinit(); err != nil {
		return true, fmt.Errorf("%w: %w", ErrWatchdogHang, err)
	}
	return true, nil
}
