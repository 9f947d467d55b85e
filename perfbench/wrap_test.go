package main

import (
	"errors"
	"reflect"
	"testing"

	"riommu/internal/dma"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

type call struct {
	bdf  pci.BDF
	iova uint64
	pa   mem.PA
	size uint32
	dir  pci.Dir
}

// scalarFake answers Translate with a canned result and records the call.
type scalarFake struct{ calls []call }

var errFake = errors.New("fake fault")

func (f *scalarFake) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	f.calls = append(f.calls, call{bdf: bdf, iova: iova, size: size, dir: dir})
	if iova == 0 {
		return 0, errFake
	}
	return mem.PA(iova + 7), nil
}

// batchFake also speaks the batched verb.
type batchFake struct {
	scalarFake
	batches [][]dma.Req
}

func (f *batchFake) TranslateBatch(bdf pci.BDF, reqs []dma.Req, out []dma.Resp) int {
	f.batches = append(f.batches, append([]dma.Req(nil), reqs...))
	for i, r := range reqs {
		out[i] = dma.Resp{PA: mem.PA(r.IOVA + 9)}
	}
	return len(reqs) - 1
}

type auditFake struct{ calls []call }

func (a *auditFake) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	a.calls = append(a.calls, call{bdf, iova, pa, size, dir})
}

func TestTranslatorWrapperKeepsInterfaces(t *testing.T) {
	var sp translateSpan
	if _, ok := timeTranslator(&scalarFake{}, &sp).(dma.BatchTranslator); ok {
		t.Error("wrapped scalar translator offers TranslateBatch")
	}
	if _, ok := timeTranslator(&batchFake{}, &sp).(dma.BatchTranslator); !ok {
		t.Error("wrapped batch translator lost TranslateBatch")
	}
}

func TestTranslatorWrapperForwards(t *testing.T) {
	bdf := pci.NewBDF(0, 3, 0)
	for _, inner := range []interface {
		dma.Translator
		recorded() []call
	}{&scalarFake{}, &batchFake{}} {
		var sp translateSpan
		w := timeTranslator(inner, &sp)
		pa, err := w.Translate(bdf, 0x1000, 64, pci.DirToDevice)
		if pa != 0x1007 || err != nil {
			t.Errorf("Translate = %#x, %v", pa, err)
		}
		if _, err := w.Translate(bdf, 0, 8, pci.DirFromDevice); !errors.Is(err, errFake) {
			t.Errorf("Translate error = %v, want the inner error", err)
		}
		want := []call{{bdf: bdf, iova: 0x1000, size: 64, dir: pci.DirToDevice}, {bdf: bdf, iova: 0, size: 8, dir: pci.DirFromDevice}}
		if got := inner.recorded(); !reflect.DeepEqual(got, want) {
			t.Errorf("inner saw %+v, want %+v", got, want)
		}
		if sp.calls != 2 || sp.bytes != 72 {
			t.Errorf("span = %d calls, %d bytes; want 2, 72", sp.calls, sp.bytes)
		}
	}

	inner := &batchFake{}
	var sp translateSpan
	w := timeTranslator(inner, &sp).(dma.BatchTranslator)
	reqs := []dma.Req{{IOVA: 0x2000, Size: 100, Dir: pci.DirToDevice}, {IOVA: 0x3000, Size: 28, Dir: pci.DirToDevice}}
	out := make([]dma.Resp, len(reqs))
	if n := w.TranslateBatch(bdf, reqs, out); n != 1 {
		t.Errorf("TranslateBatch = %d, want the inner count 1", n)
	}
	if out[0].PA != 0x2009 || out[1].PA != 0x3009 {
		t.Errorf("TranslateBatch out = %+v", out)
	}
	if !reflect.DeepEqual(inner.batches, [][]dma.Req{reqs}) {
		t.Errorf("inner saw %+v", inner.batches)
	}
	if sp.calls != 1 || sp.bytes != 128 {
		t.Errorf("span = %d calls, %d bytes; want 1, 128", sp.calls, sp.bytes)
	}
}

func (f *scalarFake) recorded() []call { return f.calls }

func TestAuditorWrapperForwards(t *testing.T) {
	inner := &auditFake{}
	var sp span
	var a dma.Auditor = timedAuditor{inner: inner, sp: &sp}
	c := call{pci.NewBDF(0, 7, 0), 0x4000, 0x9000, 16, pci.DirFromDevice}
	a.VerifyDMA(c.bdf, c.iova, c.pa, c.size, c.dir)
	if !reflect.DeepEqual(inner.calls, []call{c}) || sp.calls != 1 {
		t.Errorf("inner saw %+v, span %d calls", inner.calls, sp.calls)
	}
}
