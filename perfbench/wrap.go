package main

import (
	"time"

	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// span accumulates the host time and call count of one layer boundary.
type span struct {
	busy  time.Duration
	calls uint64
}

func (s *span) since(t0 time.Time) {
	s.busy += time.Since(t0)
	s.calls++
}

// translateSpan is the translator boundary: host time, calls, and the DMA
// bytes the calls resolved.
type translateSpan struct {
	span
	bytes uint64
}

// timedTranslator forwards every call to the translator it wraps and times
// it. It charges nothing and draws no randomness, so the simulated run is
// unchanged.
type timedTranslator struct {
	inner dma.Translator
	sp    *translateSpan
}

func (t timedTranslator) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	t0 := time.Now()
	pa, err := t.inner.Translate(bdf, iova, size, dir)
	t.sp.since(t0)
	t.sp.bytes += uint64(size)
	return pa, err
}

// timedBatchTranslator adds the batched verb, and exists only for inner
// translators that have it, so the engine's batch/scalar choice is the same
// with and without the wrapper.
type timedBatchTranslator struct {
	timedTranslator
	batch dma.BatchTranslator
}

func (t timedBatchTranslator) TranslateBatch(bdf pci.BDF, reqs []dma.Req, out []dma.Resp) int {
	t0 := time.Now()
	n := t.batch.TranslateBatch(bdf, reqs, out)
	t.sp.since(t0)
	for _, r := range reqs {
		t.sp.bytes += uint64(r.Size)
	}
	return n
}

// timeTranslator wraps inner so that it presents exactly inner's dma
// interfaces: a BatchTranslator stays one, a scalar Translator stays scalar.
func timeTranslator(inner dma.Translator, sp *translateSpan) dma.Translator {
	t := timedTranslator{inner: inner, sp: sp}
	if bt, ok := inner.(dma.BatchTranslator); ok {
		return timedBatchTranslator{timedTranslator: t, batch: bt}
	}
	return t
}

// timedAuditor forwards every verdict request to the auditor it wraps and
// times it.
type timedAuditor struct {
	inner dma.Auditor
	sp    *span
}

func (a timedAuditor) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	t0 := time.Now()
	a.inner.VerifyDMA(bdf, iova, pa, size, dir)
	a.sp.since(t0)
}
