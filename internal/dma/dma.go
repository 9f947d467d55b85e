// Package dma implements the DMA engine: the path by which simulated devices
// read and write memory. Every access carries the device's BDF and an I/O
// virtual address and is mediated by a Translator — the baseline IOMMU, the
// rIOMMU, or the identity mapping of a disabled IOMMU — so DMAs genuinely
// exercise the protection hardware, including faults on errant accesses.
package dma

import (
	"fmt"

	"riommu/internal/faults"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// Translator resolves a device access to a physical address. Accesses
// passed to Translate never cross a 4 KiB boundary of the IOVA value (the
// engine splits larger transfers), so implementations may assume single-page
// (baseline) or single-chunk (rIOMMU offset arithmetic) semantics.
type Translator interface {
	Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error)
}

// Req is one translation request inside a batch. Like a scalar Translate
// argument set, a request never crosses a 4 KiB IOVA boundary.
type Req struct {
	IOVA uint64
	Size uint32
	Dir  pci.Dir
}

// Resp is one resolved batch entry: the physical address on success, or the
// fault that stopped the batch.
type Resp struct {
	PA  mem.PA
	Err error
}

// BatchTranslator is the optional batched verb: a Translator that can
// resolve N chunks per call instead of paying one virtual dispatch per
// 4 KiB chunk. TranslateBatch fills out[i] for reqs[i] in order and stops at
// the first failure, returning the number of successful translations; when
// that count is < len(reqs), out[count].Err holds the fault. The observable
// side effects — TLB state, cycle charges, charge-event counts — must be
// identical to calling Translate sequentially, which is what the generic
// ScalarBatch fallback literally does (and what the batch-vs-scalar
// equivalence suite in internal/check pins).
type BatchTranslator interface {
	Translator
	TranslateBatch(bdf pci.BDF, reqs []Req, out []Resp) int
}

// ScalarBatch resolves a batch through a plain Translator one chunk at a
// time: the generic fallback that keeps every existing Translator working
// behind the batched engine, and the reference semantics for native
// implementations.
func ScalarBatch(tr Translator, bdf pci.BDF, reqs []Req, out []Resp) int {
	for i := range reqs {
		pa, err := tr.Translate(bdf, reqs[i].IOVA, reqs[i].Size, reqs[i].Dir)
		out[i] = Resp{PA: pa, Err: err}
		if err != nil {
			return i
		}
	}
	return len(reqs)
}

// Router dispatches each device's DMAs to its own translation unit. PCIe
// allows multiple IOMMUs in one system, and §4 proposes rIOMMU as a
// supplement to — not a replacement for — the baseline IOMMU: ring-based
// devices sit behind an rIOMMU while e.g. RDMA NICs (whose persistent
// full-memory mappings rIOMMU cannot serve) stay behind the conventional
// one. A device with no route has no IOMMU path at all and faults, unless a
// default unit is installed (graceful degradation reroutes one device while
// the rest keep their original unit through the default).
type Router struct {
	routes map[pci.BDF]Translator
	def    Translator
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{routes: make(map[pci.BDF]Translator)}
}

// Route binds a device to a translation unit.
func (r *Router) Route(bdf pci.BDF, tr Translator) { r.routes[bdf] = tr }

// SetDefault installs the unit used by devices with no explicit route.
func (r *Router) SetDefault(tr Translator) { r.def = tr }

// RouteOf returns the device's explicit route, if any (quarantine code saves
// it before splicing in a Blackhole so re-admission can restore it).
func (r *Router) RouteOf(bdf pci.BDF) (Translator, bool) {
	tr, ok := r.routes[bdf]
	return tr, ok
}

// Unroute removes a device's explicit route; its DMAs fall back to the
// default unit (or fault if none is installed).
func (r *Router) Unroute(bdf pci.BDF) { delete(r.routes, bdf) }

// Translate dispatches to the device's unit.
func (r *Router) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	tr, ok := r.routes[bdf]
	if !ok {
		if r.def == nil {
			return 0, fmt.Errorf("dma: no IOMMU route for device %s", bdf)
		}
		tr = r.def
	}
	return tr.Translate(bdf, iova, size, dir)
}

// TranslateBatch resolves the per-BDF route once for the whole batch (every
// request in a batch carries the same requester) and hands the batch to the
// unit natively when it speaks the verb, falling back to the scalar loop
// otherwise.
func (r *Router) TranslateBatch(bdf pci.BDF, reqs []Req, out []Resp) int {
	tr, ok := r.routes[bdf]
	if !ok {
		if r.def == nil {
			out[0] = Resp{Err: fmt.Errorf("dma: no IOMMU route for device %s", bdf)}
			return 0
		}
		tr = r.def
	}
	if bt, ok := tr.(BatchTranslator); ok {
		return bt.TranslateBatch(bdf, reqs, out)
	}
	return ScalarBatch(tr, bdf, reqs, out)
}

// Blackhole is the quarantine translator: every access faults. The
// supervisor's circuit breaker routes a repeatedly-failing device here
// (detach → isolate) until a probe re-admits it.
type Blackhole struct{}

// Translate always rejects the access.
func (Blackhole) Translate(bdf pci.BDF, iova uint64, size uint32, dir pci.Dir) (mem.PA, error) {
	return 0, fmt.Errorf("dma: device %s quarantined", bdf)
}

// TranslateBatch rejects the batch at its first chunk.
func (Blackhole) TranslateBatch(bdf pci.BDF, reqs []Req, out []Resp) int {
	out[0] = Resp{Err: fmt.Errorf("dma: device %s quarantined", bdf)}
	return 0
}

// Auditor observes every successfully translated DMA chunk before the
// memory access happens; *audit.Oracle satisfies it. The engine defines the
// interface (rather than importing the audit package) so the dependency
// points from the auditor to the audited.
type Auditor interface {
	VerifyDMA(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir)
}

// MapObserver mirrors a protection driver's successful map/unmap operations
// into an external shadow tracker; *audit.Oracle satisfies it. Together with
// Auditor it is the whole DMA-side observation path: the oracle learns what
// the OS mapped from here and judges what the device touched through
// Auditor.
type MapObserver interface {
	OnMap(bdf pci.BDF, iova uint64, pa mem.PA, size uint32, dir pci.Dir)
	OnUnmap(bdf pci.BDF, iova uint64)
}

// Engine performs device-initiated memory accesses through a Translator.
type Engine struct {
	mm  *mem.PhysMem
	tr  Translator
	bt  BatchTranslator // tr's batched verb, nil when tr is scalar-only
	inj *faults.Engine
	aud Auditor

	// batchOff forces the scalar chunk loop even when the translator speaks
	// TranslateBatch (the equivalence suite's control arm).
	batchOff bool

	// reqs/resps are the engine-owned batch scratch: a DMA is single-threaded
	// per engine, so reusing them keeps multi-chunk transfers at 0 allocs/op.
	reqs  []Req
	resps []Resp

	// qw is the quadword scratch for ReadU64/WriteU64. A stack array would
	// escape (the memory fault hook sees the slice through an interface), so
	// the buffer lives in the engine to keep descriptor reads at 0 allocs/op.
	qw [8]byte

	// closers run at world teardown (see AddCloser).
	closers []func()

	// Reads/Writes/Bytes count completed DMA operations for statistics.
	Reads, Writes, Bytes uint64
}

// NewEngine returns an engine accessing mm through tr.
func NewEngine(mm *mem.PhysMem, tr Translator) *Engine {
	e := &Engine{mm: mm}
	e.SetTranslator(tr)
	return e
}

// Clone returns an independent copy of the engine in a cloned world,
// accessing mm through tr with the same statistics and batch setting. The
// copy has no fault engine or auditor installed. Closers release resources
// of one world, so an engine with closers registered cannot be cloned.
func (e *Engine) Clone(mm *mem.PhysMem, tr Translator) (*Engine, error) {
	if len(e.closers) > 0 {
		return nil, fmt.Errorf("dma: cannot clone an engine with closers registered")
	}
	c := &Engine{mm: mm, batchOff: e.batchOff, Reads: e.Reads, Writes: e.Writes, Bytes: e.Bytes}
	c.SetTranslator(tr)
	return c, nil
}

// Translator returns the engine's current translator.
func (e *Engine) Translator() Translator { return e.tr }

// AddCloser registers a cleanup to run when the engine's world is torn down
// (sim.System.Close). Devices use it to return pooled resources — e.g. block
// storage chunks — without every construction site needing a release call.
func (e *Engine) AddCloser(f func()) { e.closers = append(e.closers, f) }

// Close runs the registered cleanups (once) in registration order.
func (e *Engine) Close() {
	for _, f := range e.closers {
		f()
	}
	e.closers = nil
}

// SetTranslator swaps the translation path (used when comparing modes).
func (e *Engine) SetTranslator(tr Translator) {
	e.tr = tr
	e.bt, _ = tr.(BatchTranslator)
}

// SetBatch toggles the batched translation path. Batching is on by default
// whenever the translator implements BatchTranslator; turning it off is the
// control arm of the batch-vs-scalar equivalence property.
func (e *Engine) SetBatch(on bool) { e.batchOff = !on }

// batch returns the translator's batch verb, or nil when the scalar loop
// must be used (translator doesn't speak it, or batching is toggled off).
func (e *Engine) batch() BatchTranslator {
	if e.batchOff {
		return nil
	}
	return e.bt
}

// scratch returns the engine-owned request/response arrays sized for n
// chunks.
func (e *Engine) scratch(n int) ([]Req, []Resp) {
	if cap(e.reqs) < n {
		e.reqs = make([]Req, n)
		e.resps = make([]Resp, n)
	}
	return e.reqs[:n], e.resps[:n]
}

// SetFaults installs the fault-injection engine. Device models reach it via
// Faults(), so wiring the engine here threads injection through every layer
// that accesses memory on the device's behalf.
func (e *Engine) SetFaults(f *faults.Engine) { e.inj = f }

// Faults returns the fault-injection engine (nil when disabled; all its
// methods are nil-safe).
func (e *Engine) Faults() *faults.Engine { return e.inj }

// SetAudit installs the isolation auditor: every chunk the translator
// accepts is reported before the memory access. Accesses the translator
// rejects never reach the auditor — containment worked.
func (e *Engine) SetAudit(a Auditor) { e.aud = a }

// chunks counts the 4 KiB-boundary segments of a transfer.
func chunks(iova uint64, total int) int {
	first := int(mem.PageSize - iova&mem.PageMask)
	if total <= first {
		return 1
	}
	return 1 + (total-first+int(mem.PageSize)-1)/int(mem.PageSize)
}

// Read performs a device read of len(buf) bytes from memory at iova (a
// to-device DMA, e.g. fetching a packet to transmit or a descriptor). The
// transfer is split at 4 KiB IOVA boundaries. Multi-chunk transfers resolve
// every chunk with one TranslateBatch call when the translator speaks the
// batched verb; single-chunk transfers and scalar-only translators take the
// inline loop (written without callbacks so the per-DMA path allocates
// nothing either way).
func (e *Engine) Read(bdf pci.BDF, iova uint64, buf []byte) error {
	if len(buf) == 0 {
		return fmt.Errorf("dma: zero-length read")
	}
	iova, _ = e.inj.StaleDMA(bdf, iova)
	total := len(buf)
	if nc := chunks(iova, total); nc > 1 {
		if bt := e.batch(); bt != nil {
			return e.readBatch(bt, bdf, iova, buf, nc)
		}
	}
	for off := 0; off < total; {
		n := int(mem.PageSize - iova&mem.PageMask)
		if rem := total - off; n > rem {
			n = rem
		}
		pa, err := e.tr.Translate(bdf, iova, uint32(n), pci.DirToDevice)
		if err != nil {
			return err
		}
		if e.aud != nil {
			e.aud.VerifyDMA(bdf, iova, pa, uint32(n), pci.DirToDevice)
		}
		if err := e.mm.ReadInto(pa, buf[off:off+n]); err != nil {
			return err
		}
		iova += uint64(n)
		off += n
	}
	e.Reads++
	e.Bytes += uint64(len(buf))
	return nil
}

// readBatch is Read's multi-chunk body: one TranslateBatch resolves every
// chunk, then the data moves. Translation side effects order exactly as the
// scalar loop's (copies touch no translator or clock state), the auditor
// still sees chunks in transfer order, and a translation fault stops the
// batch at the same chunk the scalar loop would have stopped at.
func (e *Engine) readBatch(bt BatchTranslator, bdf pci.BDF, iova uint64, buf []byte, nc int) error {
	total := len(buf)
	reqs, resps := e.scratch(nc)
	iv := iova
	for i, off := 0, 0; off < total; i++ {
		n := int(mem.PageSize - iv&mem.PageMask)
		if rem := total - off; n > rem {
			n = rem
		}
		reqs[i] = Req{IOVA: iv, Size: uint32(n), Dir: pci.DirToDevice}
		iv += uint64(n)
		off += n
	}
	done := bt.TranslateBatch(bdf, reqs, resps)
	for i, off := 0, 0; i < done; i++ {
		n := int(reqs[i].Size)
		if e.aud != nil {
			e.aud.VerifyDMA(bdf, reqs[i].IOVA, resps[i].PA, reqs[i].Size, pci.DirToDevice)
		}
		if err := e.mm.ReadInto(resps[i].PA, buf[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	if done < nc {
		return resps[done].Err
	}
	e.Reads++
	e.Bytes += uint64(total)
	return nil
}

// Write performs a device write of data to memory at iova (a from-device
// DMA, e.g. depositing a received packet or a completion status). Split and
// structured exactly like Read, including the batched multi-chunk path.
func (e *Engine) Write(bdf pci.BDF, iova uint64, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("dma: zero-length write")
	}
	iova, _ = e.inj.StaleDMA(bdf, iova)
	total := len(data)
	if nc := chunks(iova, total); nc > 1 {
		if bt := e.batch(); bt != nil {
			return e.writeBatch(bt, bdf, iova, data, nc)
		}
	}
	for off := 0; off < total; {
		n := int(mem.PageSize - iova&mem.PageMask)
		if rem := total - off; n > rem {
			n = rem
		}
		pa, err := e.tr.Translate(bdf, iova, uint32(n), pci.DirFromDevice)
		if err != nil {
			return err
		}
		if e.aud != nil {
			e.aud.VerifyDMA(bdf, iova, pa, uint32(n), pci.DirFromDevice)
		}
		if err := e.mm.Write(pa, data[off:off+n]); err != nil {
			return err
		}
		iova += uint64(n)
		off += n
	}
	e.Writes++
	e.Bytes += uint64(len(data))
	return nil
}

// writeBatch is Write's multi-chunk body; see readBatch.
func (e *Engine) writeBatch(bt BatchTranslator, bdf pci.BDF, iova uint64, data []byte, nc int) error {
	total := len(data)
	reqs, resps := e.scratch(nc)
	iv := iova
	for i, off := 0, 0; off < total; i++ {
		n := int(mem.PageSize - iv&mem.PageMask)
		if rem := total - off; n > rem {
			n = rem
		}
		reqs[i] = Req{IOVA: iv, Size: uint32(n), Dir: pci.DirFromDevice}
		iv += uint64(n)
		off += n
	}
	done := bt.TranslateBatch(bdf, reqs, resps)
	for i, off := 0, 0; i < done; i++ {
		n := int(reqs[i].Size)
		if e.aud != nil {
			e.aud.VerifyDMA(bdf, reqs[i].IOVA, resps[i].PA, reqs[i].Size, pci.DirFromDevice)
		}
		if err := e.mm.Write(resps[i].PA, data[off:off+n]); err != nil {
			return err
		}
		off += n
	}
	if done < nc {
		return resps[done].Err
	}
	e.Writes++
	e.Bytes += uint64(total)
	return nil
}

// ReadU64 reads a little-endian quadword at iova (descriptor fields). The
// callers are descriptor and completion reads, which are 8-byte aligned and
// so can never cross a page: the aligned fast path performs exactly the one
// translate + audit + copy the chunk loop would, without entering it.
func (e *Engine) ReadU64(bdf pci.BDF, iova uint64) (uint64, error) {
	b := e.qw[:]
	if iova&mem.PageMask <= mem.PageSize-8 {
		iv, _ := e.inj.StaleDMA(bdf, iova)
		pa, err := e.tr.Translate(bdf, iv, 8, pci.DirToDevice)
		if err != nil {
			return 0, err
		}
		if e.aud != nil {
			e.aud.VerifyDMA(bdf, iv, pa, 8, pci.DirToDevice)
		}
		if err := e.mm.ReadInto(pa, b); err != nil {
			return 0, err
		}
		e.Reads++
		e.Bytes += 8
	} else if err := e.Read(bdf, iova, b); err != nil {
		return 0, err
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
}

// WriteU64 writes a little-endian quadword at iova, with the same
// never-crosses-a-page fast path as ReadU64.
func (e *Engine) WriteU64(bdf pci.BDF, iova uint64, v uint64) error {
	b := e.qw[:]
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	if iova&mem.PageMask <= mem.PageSize-8 {
		iv, _ := e.inj.StaleDMA(bdf, iova)
		pa, err := e.tr.Translate(bdf, iv, 8, pci.DirFromDevice)
		if err != nil {
			return err
		}
		if e.aud != nil {
			e.aud.VerifyDMA(bdf, iv, pa, 8, pci.DirFromDevice)
		}
		if err := e.mm.Write(pa, b); err != nil {
			return err
		}
		e.Writes++
		e.Bytes += 8
		return nil
	}
	return e.Write(bdf, iova, b)
}
