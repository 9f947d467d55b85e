package prefetch

import (
	"riommu/internal/detrand"
	"riommu/internal/pci"
	"riommu/internal/trace"
)

// SyntheticRingTrace synthesizes the streaming ring workload of §5.4: an Rx ring of
// pre-mapped single-use buffers. Each slot's buffer is translated once, then
// unmapped and immediately replaced by a freshly mapped buffer (the refill),
// so the ring stays full of mapped pages ahead of the access frontier.
// Slot pages are scattered (allocator-assigned, not sequential), and per lap
// a fraction `churnPct` of refills receive a brand-new page, modeling IOVA
// allocator drift. With rings > 1, accesses interleave across rings as real
// Rx/Tx traffic does.
func SyntheticRingTrace(bdf pci.BDF, ringPages, laps, rings, churnPct int) *trace.Trace {
	tr := &trace.Trace{}
	lcg := uint64(88172645463325252)
	next := func() uint64 { return detrand.XorShift(&lcg) }
	freshPage := func() uint64 { return (next() % (1 << 20) << 12) }

	// Assign scattered pages per slot per ring and pre-map the rings.
	pages := make([][]uint64, rings)
	for r := range pages {
		pages[r] = make([]uint64, ringPages)
		for i := range pages[r] {
			pages[r][i] = freshPage()
			tr.Record(trace.EvMap, bdf, pages[r][i], pci.DirFromDevice)
		}
	}
	// Rings drain in irregular interleaving, as real Rx/Tx traffic does:
	// each step services a pseudorandomly chosen ring's frontier. This
	// preserves per-address successor locality (Markov/Recency) but
	// destroys stride patterns (Distance), matching §5.4's findings.
	frontier := make([]int, rings)
	total := ringPages * laps * rings
	r, burst := 0, 0
	for step := 0; step < total; step++ {
		if burst == 0 { // bursty interleave: stay on one ring for a while
			r = int(next() % uint64(rings))
			burst = 4 + int(next()%28)
		}
		burst--
		i := frontier[r] % ringPages
		frontier[r]++
		p := pages[r][i]
		tr.Record(trace.EvTranslate, bdf, p, pci.DirFromDevice)
		tr.Record(trace.EvUnmap, bdf, p, pci.DirNone)
		// Refill: usually the same page is recycled (LIFO buffer pool +
		// allocator reuse); sometimes the allocator drifts.
		if int(next()%100) < churnPct {
			pages[r][i] = freshPage()
		}
		tr.Record(trace.EvMap, bdf, pages[r][i], pci.DirFromDevice)
	}
	return tr
}
