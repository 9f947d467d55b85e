package traffic

// The traffic mixes: the heavy-tailed message-size and flow-length
// distributions and the diurnal load curve, drawn from the engine's
// schedule stream. Everything is integer arithmetic so results are
// identical on every platform.

// drawMsgBytes samples the heavy-tailed request-size mix: mostly small
// RPCs, a tail of multi-packet responses out to ~64 MSS bulk transfers.
func (e *Engine) drawMsgBytes() int {
	r := e.rng.Uint64()
	switch p := r % 100; {
	case p < 50:
		return 64 + int((r>>8)%448) // small RPC request
	case p < 80:
		return e.mss // one full segment
	case p < 95:
		return 4 * e.mss // medium response
	case p < 99:
		return 16 * e.mss // netperf-sized message
	default:
		return 64 * e.mss // bulk tail
	}
}

// drawFlowLen samples a flow's data-packet budget around MeanFlowPackets:
// most flows are short, a tail lives 10x the mean.
func (e *Engine) drawFlowLen() int {
	m := e.cfg.MeanFlowPackets
	if m < 1 {
		m = 1
	}
	r := e.rng.Uint64()
	var l int
	switch p := r % 16; {
	case p < 10:
		l = m / 4
	case p < 14:
		l = m
	case p < 15:
		l = 3 * m
	default:
		l = 10 * m
	}
	l += int((r >> 16) % uint64(m))
	if l < 1 {
		l = 1
	}
	return l
}

// drawSteerPages samples the per-flow steering-buffer size in pages. The
// mixed size classes are what exercise the IOVA allocators' free-stack
// reuse (and the Linux allocator's gap-search pathology) under churn.
func (e *Engine) drawSteerPages() int {
	switch p := e.rng.Uint64() % 16; {
	case p < 9:
		return 1
	case p < 13:
		return 2
	case p < 15:
		return 3
	default:
		return steerMaxPages
	}
}

// diurnalCurve is the load multiplier over one simulated day, in eighths
// of the peak; diurnalPeriod ticks per phase.
var diurnalCurve = [8]int{3, 5, 8, 10, 12, 10, 7, 4}

const (
	diurnalPeriod = 4
	diurnalPeak   = 8 // divisor: curve value 8 == the configured base load
)

func diurnalLoad(tick int) int {
	phase := (tick / diurnalPeriod) % len(diurnalCurve)
	return diurnalCurve[phase]
}
