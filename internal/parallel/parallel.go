// Package parallel is the deterministic worker-pool engine behind the
// experiment grid. Every Figure/Table cell, ablation point and
// fault-campaign sweep point is an independent simulation world (its own
// PhysMem, clocks and seeded fault engine), so the grid is embarrassingly
// parallel — the only thing that must NOT depend on scheduling is the
// output. The engine guarantees that by construction:
//
//   - Work is handed out by an atomic cursor, but every cell writes its
//     result into a slot preallocated at the cell's grid index, so the
//     merged result order equals the grid order regardless of which worker
//     ran which cell.
//   - All cells run even when some fail, and the reported error is the one
//     from the lowest-index failing cell. (Cancelling on first error would
//     make the *set of executed cells* — and therefore the surviving
//     error — a function of scheduling.)
//   - Per-cell randomness is derived with CellSeed, a pure function of the
//     base seed and the cell's identity, never of worker identity or
//     execution order.
//
// Together these make the parallel output byte-identical to the serial
// (workers == 1) path for a fixed seed, which is what lets CI diff
// experiment output exactly.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"riommu/internal/detrand"
)

// ErrInterrupted marks a cell that was never started because the run was
// interrupted (e.g. by SIGINT). Cells that were already in flight when the
// interrupt arrived run to completion, so every result slot holds either a
// real outcome or ErrInterrupted — never a half-finished cell.
var ErrInterrupted = errors.New("parallel: run interrupted")

// interrupted is the process-wide cooperative cancellation flag checked by
// Run before handing out each cell.
var interrupted atomic.Bool

// Interrupt requests that all in-progress and future Run calls stop handing
// out new cells. Safe to call from a signal-handling goroutine.
func Interrupt() { interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called since the last
// ResetInterrupt.
func Interrupted() bool { return interrupted.Load() }

// ResetInterrupt clears the interrupt flag. Call it at the start of a
// command's run function so earlier interrupts don't leak into a new run.
func ResetInterrupt() { interrupted.Store(false) }

// Workers resolves a -parallel flag value: n >= 1 is taken literally,
// anything else (the flag default 0) means one worker per CPU.
func Workers(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.NumCPU()
}

// Run executes fn(i) for every i in [0, n) on at most workers concurrent
// goroutines. workers <= 1 is the legacy serial path: every cell runs
// in index order on the calling goroutine. In both paths every cell is
// executed (failures do not cancel the rest) and the returned error is the
// lowest-index cell's error, so the outcome is independent of scheduling.
//
// If Interrupt is called mid-run, cells not yet started get ErrInterrupted
// instead of executing; cells already running finish normally.
func Run(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers <= 1 {
		for i := range errs {
			if interrupted.Load() {
				errs[i] = ErrInterrupted
				continue
			}
			errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if interrupted.Load() {
						errs[i] = ErrInterrupted
						continue
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over every element of in using Run and returns the results
// in input order. On error the returned slice still holds the results of
// every cell that succeeded (failed cells keep the zero value).
func Map[T, R any](workers int, in []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	err := Run(workers, len(in), func(i int) error {
		r, err := fn(i, in[i])
		out[i] = r
		return err
	})
	return out, err
}

// CellSeed derives the RNG seed for one grid cell from the campaign's base
// seed and the cell's identity string. It is a pure function — FNV-1a over
// the id folded into the base seed, finalized with splitmix64 — so a cell's
// randomness depends only on what the cell *is*, never on which worker ran
// it or when. Distinct cells get statistically independent streams.
func CellSeed(base uint64, id string) uint64 {
	s := detrand.Source(base + detrand.FNVBytes(0, id))
	return s.Uint64()
}

// ParseShard parses a -shard flag value "i/K" into (index, count): process
// i of K cooperating processes, each computing every K-th grid cell. The
// empty string means unsharded (0, 0). Like the worker count, the shard
// split is pure scheduling — it must never change what any cell computes.
func ParseShard(s string) (index, count int, err error) {
	if strings.TrimSpace(s) == "" {
		return 0, 0, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad shard %q (want i/K, e.g. 0/4)", s)
	}
	index, err = strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad shard index in %q: %w", s, err)
	}
	count, err = strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return 0, 0, fmt.Errorf("bad shard count in %q: %w", s, err)
	}
	if count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("shard %q out of range (want 0 <= i < K)", s)
	}
	return index, count, nil
}
