package audit

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

var bdf = pci.NewBDF(0, 3, 0)

func newTestOracle() (*Oracle, *cycles.Clock) {
	clk := &cycles.Clock{}
	return NewOracle("strict", clk), clk
}

func TestVerifyInsideLiveMapping(t *testing.T) {
	o, _ := newTestOracle()
	o.OnMap(bdf, 0x1000, mem.PA(0x8000), 2048, pci.DirBidi)
	o.VerifyDMA(bdf, 0x1000, mem.PA(0x8000), 2048, pci.DirToDevice)
	o.VerifyDMA(bdf, 0x1400, mem.PA(0x8400), 64, pci.DirFromDevice)
	if o.Violations != 0 {
		t.Fatalf("in-bounds accesses flagged: %+v", o.Events)
	}
	if o.Checked != 2 {
		t.Fatalf("Checked = %d, want 2", o.Checked)
	}
}

func TestVerifyClassifiesReasons(t *testing.T) {
	o, clk := newTestOracle()
	o.OnMap(bdf, 0x1000, mem.PA(0x8000), 2048, pci.DirToDevice)

	// Wrong direction: the mapping is read-only for the device.
	o.VerifyDMA(bdf, 0x1000, mem.PA(0x8000), 64, pci.DirFromDevice)
	// Bounds: starts inside, runs past the 2048-byte buffer.
	o.VerifyDMA(bdf, 0x1700, mem.PA(0x8700), 512, pci.DirToDevice)
	// PA mismatch: hardware resolved to the wrong frame.
	o.VerifyDMA(bdf, 0x1000, mem.PA(0x9000), 64, pci.DirToDevice)
	// Unmapped: nothing ever lived there.
	o.VerifyDMA(bdf, 0x55000, mem.PA(0x8000), 64, pci.DirToDevice)

	// Stale: unmap, then access the dead range.
	clk.Charge(cycles.Recovery, 100)
	o.OnUnmap(bdf, 0x1000)
	clk.Charge(cycles.Recovery, 400)
	o.VerifyDMA(bdf, 0x1010, mem.PA(0x8010), 64, pci.DirToDevice)

	want := map[string]uint64{
		ReasonDirection: 1, ReasonBounds: 1, ReasonPAMismatch: 1,
		ReasonUnmapped: 1, ReasonStale: 1,
	}
	for r, n := range want {
		if o.ByReason[r] != n {
			t.Errorf("ByReason[%s] = %d, want %d", r, o.ByReason[r], n)
		}
	}
	if o.Violations != 5 {
		t.Errorf("Violations = %d, want 5", o.Violations)
	}
	var stale *Violation
	for i := range o.Events {
		if o.Events[i].Reason == ReasonStale {
			stale = &o.Events[i]
		}
	}
	if stale == nil {
		t.Fatal("no stale-translation event recorded")
	}
	if stale.StaleCycles != 400 {
		t.Errorf("StaleCycles = %d, want 400 (cycles between unmap and access)", stale.StaleCycles)
	}
}

func TestUnmapRetiresAndRemapOverwrites(t *testing.T) {
	o, _ := newTestOracle()
	o.OnMap(bdf, 0x1000, mem.PA(0x8000), 2048, pci.DirBidi)
	o.OnUnmap(bdf, 0x1000)
	if o.LiveNow != 0 {
		t.Fatalf("LiveNow = %d after unmap", o.LiveNow)
	}
	// Same IOVA reallocated to a different buffer: the oracle must judge
	// accesses against the new mapping, not the tombstone.
	o.OnMap(bdf, 0x1000, mem.PA(0xA000), 2048, pci.DirBidi)
	o.VerifyDMA(bdf, 0x1000, mem.PA(0xA000), 64, pci.DirToDevice)
	if o.Violations != 0 {
		t.Fatalf("reallocated-IOVA access flagged: %+v", o.Events)
	}
	// A duplicate OnMap (recovery lost the unmap) retires the old mapping
	// instead of leaking it.
	o.OnMap(bdf, 0x1000, mem.PA(0xB000), 2048, pci.DirBidi)
	if o.LiveNow != 1 {
		t.Fatalf("LiveNow = %d after duplicate map, want 1", o.LiveNow)
	}
	if got := len(o.RecentRetired(bdf, 10)); got != 2 {
		t.Fatalf("RecentRetired = %d entries, want 2", got)
	}
}

func TestPassThroughCountsWithoutJudging(t *testing.T) {
	o, _ := newTestOracle()
	o.SetPassThrough(true)
	o.VerifyDMA(bdf, 0xdead000, mem.PA(0xdead000), 64, pci.DirFromDevice)
	if o.Checked != 1 || o.Violations != 0 {
		t.Fatalf("pass-through: Checked=%d Violations=%d, want 1/0", o.Checked, o.Violations)
	}
}

func TestLiveSortedDeterministic(t *testing.T) {
	o, _ := newTestOracle()
	for _, base := range []uint64{0x5000, 0x1000, 0x9000, 0x3000} {
		o.OnMap(bdf, base, mem.PA(base), 512, pci.DirBidi)
	}
	ms := o.LiveSorted(bdf)
	for i := 1; i < len(ms); i++ {
		if ms[i-1].IOVA >= ms[i].IOVA {
			t.Fatalf("LiveSorted not ordered: %#x before %#x", ms[i-1].IOVA, ms[i].IOVA)
		}
	}
	if len(ms) != 4 {
		t.Fatalf("LiveSorted = %d mappings, want 4", len(ms))
	}
}

func TestRetiredHistoryBounded(t *testing.T) {
	o, _ := newTestOracle()
	for i := 0; i < 3*retiredCap; i++ {
		iova := uint64(0x1000 + 0x1000*i)
		o.OnMap(bdf, iova, mem.PA(iova), 512, pci.DirBidi)
		o.OnUnmap(bdf, iova)
	}
	if got := len(o.retired[bdf]); got > retiredCap {
		t.Fatalf("retired history %d exceeds cap %d", got, retiredCap)
	}
	// The newest tombstone is still the most recent unmap.
	last := o.RecentRetired(bdf, 1)
	if len(last) != 1 || last[0].IOVA != uint64(0x1000+0x1000*(3*retiredCap-1)) {
		t.Fatalf("newest tombstone wrong: %+v", last)
	}
}

func TestOracleAccessorsAndStats(t *testing.T) {
	o, _ := newTestOracle()
	if o.Mode() != "strict" {
		t.Errorf("Mode() = %q", o.Mode())
	}
	want := []string{ReasonStale, ReasonUnmapped, ReasonBounds, ReasonDirection, ReasonPAMismatch}
	got := Reasons()
	if len(got) != len(want) {
		t.Fatalf("Reasons() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Reasons()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	// A wild access renders with every field an operator needs to triage it.
	o.VerifyDMA(bdf, 0xdead000, mem.PA(0xdead000), 64, pci.DirFromDevice)
	if o.Violations != 1 || len(o.Events) != 1 {
		t.Fatalf("wild access not flagged: %d violations", o.Violations)
	}
	s := o.Events[0].String()
	for _, frag := range []string{"strict", ReasonUnmapped, "iova=0xdead000", "size=64"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Violation.String() = %q missing %q", s, frag)
		}
	}
}

func TestOverlappingMapRetiresCoveredMappings(t *testing.T) {
	o, clk := newTestOracle()
	// A spans pages 1-2, B sits in page 3; C covers pages 2-3, so it must
	// retire both (in page order) rather than leave the verdict on the
	// shared pages to map iteration order.
	o.OnMap(bdf, 0x1800, mem.PA(0x10800), 0x1000, pci.DirBidi)
	o.OnMap(bdf, 0x3100, mem.PA(0x20100), 0x200, pci.DirBidi)
	clk.Charge(cycles.Recovery, 50)
	o.OnMap(bdf, 0x2400, mem.PA(0x30400), 0x1000, pci.DirBidi)
	if o.LiveNow != 1 {
		t.Fatalf("LiveNow = %d after overlapping map, want 1", o.LiveNow)
	}
	rr := o.RecentRetired(bdf, 10)
	if len(rr) != 2 || rr[0].IOVA != 0x3100 || rr[1].IOVA != 0x1800 {
		t.Fatalf("RecentRetired = %+v, want B (0x3100) then A (0x1800)", rr)
	}
	if ms := o.LiveSorted(bdf); len(ms) != 1 || ms[0].IOVA != 0x2400 {
		t.Fatalf("LiveSorted = %+v, want only C", ms)
	}
	// The overlapped pages now belong to C alone: its own translation is
	// clean, B's old frame is a pa-mismatch, and A's uncovered page 1 is
	// stale.
	o.VerifyDMA(bdf, 0x3100, mem.PA(0x30400+0xd00), 64, pci.DirToDevice)
	o.VerifyDMA(bdf, 0x2900, mem.PA(0x30900), 64, pci.DirToDevice)
	if o.Violations != 0 {
		t.Fatalf("access through C flagged: %+v", o.Events)
	}
	o.VerifyDMA(bdf, 0x3100, mem.PA(0x20100), 64, pci.DirToDevice)
	o.VerifyDMA(bdf, 0x1900, mem.PA(0x10900), 64, pci.DirToDevice)
	if o.ByReason[ReasonPAMismatch] != 1 || o.ByReason[ReasonStale] != 1 || o.Violations != 2 {
		t.Fatalf("ByReason = %v, want 1 pa-mismatch and 1 stale", o.ByReason)
	}
}

func TestChunkPastEndInLastPageIsNotBounds(t *testing.T) {
	o, _ := newTestOracle()
	// A retired buffer in page 2, then a live one whose end (0x2800) falls
	// in that same page.
	o.OnMap(bdf, 0x2a00, mem.PA(0x9a00), 0x100, pci.DirBidi)
	o.OnUnmap(bdf, 0x2a00)
	o.OnMap(bdf, 0x1000, mem.PA(0x8000), 0x1800, pci.DirBidi)
	o.VerifyDMA(bdf, 0x2a00, mem.PA(0x9a00), 64, pci.DirToDevice)
	o.VerifyDMA(bdf, 0x2f00, mem.PA(0x9f00), 64, pci.DirToDevice)
	if o.ByReason[ReasonStale] != 1 || o.ByReason[ReasonUnmapped] != 1 || o.ByReason[ReasonBounds] != 0 {
		t.Fatalf("ByReason = %v, want 1 stale, 1 unmapped, 0 bounds", o.ByReason)
	}
}

func TestChunkBeforeSubPageBaseIsUnmapped(t *testing.T) {
	o, _ := newTestOracle()
	// A sub-page buffer in the middle of page 1: chunks before its base and
	// past its end share its page but lie outside it.
	o.OnMap(bdf, 0x1800, mem.PA(0x8800), 0x400, pci.DirBidi)
	o.VerifyDMA(bdf, 0x1100, mem.PA(0x8100), 64, pci.DirToDevice)
	o.VerifyDMA(bdf, 0x1d00, mem.PA(0x8d00), 64, pci.DirToDevice)
	if o.ByReason[ReasonUnmapped] != 2 || o.Violations != 2 {
		t.Fatalf("ByReason = %v, want 2 unmapped", o.ByReason)
	}
}

func TestMultiPageMappingHitsEveryPage(t *testing.T) {
	o, _ := newTestOracle()
	// A baseline-style 3-page mapping with a sub-page offset: 0x5234 to
	// 0x7334, spanning pages 5, 6 and 7.
	const base, pa, size = 0x5234, 0x40234, 2*mem.PageSize + 0x100
	o.OnMap(bdf, base, mem.PA(pa), size, pci.DirBidi)
	for _, iova := range []uint64{base, 0x5ff0, 0x6000, 0x6800, 0x7000, base + size - 1} {
		n := uint32(min(16, base+size-iova))
		o.VerifyDMA(bdf, iova, mem.PA(pa+iova-base), n, pci.DirFromDevice)
	}
	if o.Violations != 0 {
		t.Fatalf("in-mapping accesses flagged: %+v", o.Events)
	}
	o.VerifyDMA(bdf, base+size, mem.PA(pa+size), 16, pci.DirFromDevice)
	if o.ByReason[ReasonUnmapped] != 1 {
		t.Fatalf("access at the mapping's end: ByReason = %v, want 1 unmapped", o.ByReason)
	}
}

func TestUnmapOfNonBaseIOVAMisses(t *testing.T) {
	o, _ := newTestOracle()
	o.OnMap(bdf, 0x5234, mem.PA(0x40234), 2*mem.PageSize, pci.DirBidi)
	o.OnUnmap(bdf, 0x5300) // same page as the base
	o.OnUnmap(bdf, 0x6000) // a later page of the mapping
	if o.UnmapMisses != 2 || o.LiveNow != 1 {
		t.Fatalf("UnmapMisses=%d LiveNow=%d, want 2/1", o.UnmapMisses, o.LiveNow)
	}
	o.VerifyDMA(bdf, 0x6000, mem.PA(0x40234+0x6000-0x5234), 64, pci.DirToDevice)
	if o.Violations != 0 || len(o.RecentRetired(bdf, 10)) != 0 {
		t.Fatalf("mapping not left live: %+v", o.Events)
	}
	// Past the mapping's end in its last page: nothing was retired, so the
	// chunk is wild, not stale.
	o.VerifyDMA(bdf, 0x7300, mem.PA(0x40300+0x2000), 64, pci.DirToDevice)
	if o.ByReason[ReasonUnmapped] != 1 || o.Violations != 1 {
		t.Fatalf("ByReason = %v, want 1 unmapped", o.ByReason)
	}
}

func TestLiveSortedListsMultiPageMappingOnce(t *testing.T) {
	o, _ := newTestOracle()
	o.OnMap(bdf, 0x1800, mem.PA(0x8800), 3*mem.PageSize, pci.DirBidi)
	o.OnMap(bdf, 0x9000, mem.PA(0x9000), 512, pci.DirBidi)
	ms := o.LiveSorted(bdf)
	if len(ms) != 2 || ms[0].IOVA != 0x1800 || ms[1].IOVA != 0x9000 {
		t.Fatalf("LiveSorted = %+v, want the two mappings once each", ms)
	}
}

// refOracle is the linear-scan oracle the page index replaced, kept as the
// reference FuzzOracleIndex compares against: every VerifyDMA ranges over
// all of the device's live mappings.
type refOracle struct {
	clk        *cycles.Clock
	live       map[pci.BDF]map[uint64]*Mapping
	retired    map[pci.BDF][]Retired
	Checked    uint64
	Violations uint64
	ByReason   map[string]uint64
	Events     []Violation
	UnmapMiss  uint64
	LiveNow    int
}

func newRefOracle(clk *cycles.Clock) *refOracle {
	return &refOracle{
		clk:      clk,
		live:     make(map[pci.BDF]map[uint64]*Mapping),
		retired:  make(map[pci.BDF][]Retired),
		ByReason: make(map[string]uint64),
	}
}

func (o *refOracle) OnMap(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	dev := o.live[bdf]
	if dev == nil {
		dev = make(map[uint64]*Mapping)
		o.live[bdf] = dev
	}
	if old, ok := dev[iova]; ok {
		o.retire(bdf, old)
		o.LiveNow--
	}
	dev[iova] = &Mapping{BDF: bdf, IOVA: iova, PA: pa, Size: size, Dir: dir, MapCycle: o.clk.Now()}
	o.LiveNow++
}

func (o *refOracle) OnUnmap(bdf pci.BDF, iova uint64) {
	m, ok := o.live[bdf][iova]
	if !ok {
		o.UnmapMiss++
		return
	}
	delete(o.live[bdf], iova)
	o.LiveNow--
	o.retire(bdf, m)
}

func (o *refOracle) retire(bdf pci.BDF, m *Mapping) {
	r := append(o.retired[bdf], Retired{Mapping: *m, UnmapCycle: o.clk.Now()})
	if len(r) >= 2*retiredCap {
		r = append(r[:0:0], r[len(r)-retiredCap:]...)
	}
	o.retired[bdf] = r
}

func (o *refOracle) VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir) {
	o.Checked++
	v := Violation{Mode: "strict", BDF: bdf, IOVA: iova, Size: size, Dir: dir, Cycle: o.clk.Now()}
	var m *Mapping
	for _, cand := range o.live[bdf] {
		if iova >= cand.IOVA && iova < cand.IOVA+uint64(cand.Size) {
			m = cand
			break
		}
	}
	switch {
	case m != nil && !m.Dir.Allows(dir):
		v.Reason = ReasonDirection
	case m != nil && iova+uint64(size) > m.IOVA+uint64(m.Size):
		v.Reason = ReasonBounds
	case m != nil && pa != m.PA+mem.PA(iova-m.IOVA):
		v.Reason = ReasonPAMismatch
	case m != nil:
		return
	default:
		v.Reason = ReasonUnmapped
		r := o.retired[bdf]
		for i := len(r) - 1; i >= 0; i-- {
			if iova >= r[i].IOVA && iova < r[i].IOVA+uint64(r[i].Size) {
				v.Reason, v.StaleCycles = ReasonStale, o.clk.Now()-r[i].UnmapCycle
				break
			}
		}
	}
	o.Violations++
	o.ByReason[v.Reason]++
	if len(o.Events) < maxEvents {
		o.Events = append(o.Events, v)
	}
}

func (o *refOracle) LiveSorted(bdf pci.BDF) []Mapping {
	out := make([]Mapping, 0, len(o.live[bdf]))
	for _, m := range o.live[bdf] {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IOVA < out[j].IOVA })
	return out
}

// FuzzOracleIndex drives the page-indexed oracle and the linear-scan
// reference with the same random sequence of non-overlapping maps, unmaps
// (by base and by arbitrary IOVA) and page-contained DMA chunks, and
// requires identical verdicts and views. Each op is 6 bytes.
func FuzzOracleIndex(f *testing.F) {
	f.Add([]byte{0, 3, 0x34, 0x02, 0x00, 0x21, 3, 3, 0x40, 0x02, 0x10, 0x01, 2, 1, 0, 0, 0, 0, 3, 3, 0x40, 0x02, 0x10, 0x01})
	f.Add([]byte{4, 1, 0, 0, 0xff, 0x2f, 0, 7, 0x00, 0x08, 0x00, 0x08, 3, 2, 0x10, 0, 8, 3, 3, 7, 0xf0, 0x0f, 8, 2, 6, 5, 0, 0, 0, 0, 3, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		clk := &cycles.Clock{}
		o, ref := NewOracle("strict", clk), newRefOracle(clk)
		bdfs := [2]pci.BDF{bdf, pci.NewBDF(0, 4, 0)}
		for ; len(ops) >= 6; ops = ops[6:] {
			b := bdfs[ops[0]>>2&1]
			iova := uint64(ops[1]%16)<<mem.PageShift | (uint64(ops[2])|uint64(ops[3])<<8)&mem.PageMask
			clk.Charge(cycles.Recovery, uint64(ops[5]))
			switch ops[0] % 4 {
			case 0, 1:
				size := (uint32(ops[4]) | uint32(ops[5])<<8) % (3 * mem.PageSize)
				first, last := pages(iova, size)
				free := true
				for _, m := range ref.LiveSorted(b) {
					mf, ml := pages(m.IOVA, m.Size)
					free = free && (ml < first || mf > last)
				}
				if free {
					dir := pci.Dir(ops[4]%3 + 1)
					pa := mem.PA(0x100000 + iova)
					o.OnMap(b, iova, pa, size, dir)
					ref.OnMap(b, iova, pa, size, dir)
				}
			case 2:
				if ms := ref.LiveSorted(b); ops[4]&1 == 1 && len(ms) > 0 {
					iova = ms[int(ops[2])%len(ms)].IOVA
				}
				o.OnUnmap(b, iova)
				ref.OnUnmap(b, iova)
			case 3:
				size := 1 + uint32(ops[4])%uint32(mem.PageSize-iova&mem.PageMask)
				pa := mem.PA(0x100000 + iova)
				if ops[5]&1 == 1 {
					pa += mem.PA(ops[5])
				}
				dir := pci.Dir(ops[5]>>1%2 + 1)
				o.VerifyDMA(b, iova, pa, size, dir)
				ref.VerifyDMA(b, iova, pa, size, dir)
			}
		}
		if o.Checked != ref.Checked || o.Violations != ref.Violations ||
			o.UnmapMisses != ref.UnmapMiss || o.LiveNow != ref.LiveNow {
			t.Fatalf("counters: index %d/%d/%d/%d, reference %d/%d/%d/%d (checked/violations/unmap-misses/live)",
				o.Checked, o.Violations, o.UnmapMisses, o.LiveNow,
				ref.Checked, ref.Violations, ref.UnmapMiss, ref.LiveNow)
		}
		if !reflect.DeepEqual(o.ByReason, ref.ByReason) {
			t.Fatalf("ByReason: index %v, reference %v", o.ByReason, ref.ByReason)
		}
		if !reflect.DeepEqual(o.Events, ref.Events) {
			t.Fatalf("Events:\nindex     %+v\nreference %+v", o.Events, ref.Events)
		}
		for _, b := range bdfs {
			if got, want := o.LiveSorted(b), ref.LiveSorted(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s LiveSorted:\nindex     %+v\nreference %+v", b, got, want)
			}
			want := make([]Retired, 0, len(ref.retired[b]))
			for i := len(ref.retired[b]) - 1; i >= 0; i-- {
				want = append(want, ref.retired[b][i])
			}
			if got := o.RecentRetired(b, 2*retiredCap); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s RecentRetired:\nindex     %+v\nreference %+v", b, got, want)
			}
		}
	})
}

// BenchmarkOracleVerify times one VerifyDMA hit against a device holding
// 10K live single-page mappings — the fleet-traffic oracle's steady state.
func BenchmarkOracleVerify(b *testing.B) {
	o, _ := newTestOracle()
	const n = 10000
	for i := uint64(1); i <= n; i++ {
		iova := i<<mem.PageShift | 0x100
		o.OnMap(bdf, iova, mem.PA(iova), 1500, pci.DirBidi)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iova := uint64(1+i%n)<<mem.PageShift | 0x140
		o.VerifyDMA(bdf, iova, mem.PA(iova), 64, pci.DirFromDevice)
	}
	if o.Violations != 0 {
		b.Fatalf("in-bounds hits flagged: %+v", o.Events)
	}
}
