package sim

import (
	"fmt"

	"riommu/internal/baseline"
	"riommu/internal/core"
	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/dma"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/iommu"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

// NICTemplate is a system with one NIC attached, captured once so that any
// number of worlds can start from it without re-mapping the Rx ring. It
// holds the Go-side state of every component with no memory behind it,
// plus a compact image of the simulated memory. A template is read-only
// once built, so goroutines may Clone one concurrently.
type NICTemplate struct {
	sys *System
	drv *driver.NICDriver
	img *mem.Image
}

// NewNICTemplate builds a memPages-page system in mode, audited when asked,
// attaches a NIC of the given profile at bdf, and captures the result.
//
// A clone is only a faithful stand-in for a freshly built world if
// building that world consumed no fault-engine randomness, since a cell
// installs its own seeded engine on the clone afterwards. The attach is
// therefore run under an engine that injects on every opportunity, and the
// template is refused if the attach offered it even one.
func NewNICTemplate(mode Mode, memPages uint64, profile device.NICProfile, bdf pci.BDF, audited bool) (*NICTemplate, error) {
	s, err := NewSystem(mode, memPages)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	guard := s.EnableFaults(faults.UniformConfig(0, 1))
	if audited {
		s.EnableAudit()
	}
	drv, _, err := s.AttachNIC(profile, bdf)
	if err != nil {
		return nil, err
	}
	if n := guard.Opportunities(); n != 0 {
		return nil, fmt.Errorf("sim: %s NIC attach drew %d fault opportunities; a template would not match a fresh world", mode, n)
	}
	t := &NICTemplate{img: s.Mem.Image()}
	if t.sys, t.drv, err = s.cloneNIC(drv, nil); err != nil {
		return nil, err
	}
	return t, nil
}

// Clone returns a new world equal to the one the template captured, as
// AttachNIC left it: its memory restored from the image onto a pooled
// backing and every component copied. Fault injection is off; the caller
// installs its own engine with EnableFaults. Close the system as usual.
func (t *NICTemplate) Clone() (*System, *driver.NICDriver, *device.NIC, error) {
	mm := t.img.Restore()
	sys, drv, err := t.sys.cloneNIC(t.drv, mm)
	if err != nil {
		mm.Release()
		return nil, nil, nil, err
	}
	return sys, drv, drv.NIC(), nil
}

// cloneNIC clones the system onto mm together with drv, the NIC driver
// attached to it.
func (s *System) cloneNIC(drv *driver.NICDriver, mm *mem.PhysMem) (*System, *driver.NICDriver, error) {
	c, err := s.clone(mm)
	if err != nil {
		return nil, nil, err
	}
	bdf := drv.NIC().BDF()
	cd, err := drv.Clone(mm, c.Protections[bdf], c.Eng)
	if err != nil {
		return nil, nil, err
	}
	return c, cd, nil
}

// clone returns an independent copy of the system over mm (nil for a
// template that holds no memory): clocks, hardware units, DMA engine,
// shadow oracle and every protection driver. No slice or map is shared
// with s. The fault engine is never copied; the copy's protection drivers
// are re-instrumented through wire, as EnableFaults and EnableAudit do.
func (s *System) clone(mm *mem.PhysMem) (*System, error) {
	if s.IntRemap != nil || len(s.intSources) > 0 || len(s.lifecycles) > 0 {
		return nil, fmt.Errorf("sim: cannot clone a system with interrupt remapping or hot-plug state")
	}
	cpu, dev := *s.CPU, *s.Dev
	c := &System{Mode: s.Mode, Model: s.Model, CPU: &cpu, Dev: &dev, Mem: mm}
	rb := cycles.Rebind{From: []*cycles.Clock{s.CPU, s.Dev}, To: []*cycles.Clock{c.CPU, c.Dev}, Model: &c.Model}

	var tr dma.Translator
	switch s.Eng.Translator() {
	case dma.Translator(iommu.Identity{}):
		tr = iommu.Identity{}
	case dma.Translator(s.BaseHW):
		c.BaseHW = s.BaseHW.Clone(mm, rb)
		tr = c.BaseHW
	case dma.Translator(s.RHW):
		rhw, err := s.RHW.Clone(mm, rb)
		if err != nil {
			return nil, err
		}
		c.RHW, tr = rhw, rhw
	default:
		return nil, fmt.Errorf("sim: cannot clone a system whose DMA is rerouted")
	}
	eng, err := s.Eng.Clone(mm, tr)
	if err != nil {
		return nil, err
	}
	c.Eng = eng
	if s.Auditor != nil {
		c.Auditor = s.Auditor.Clone(c.CPU)
		c.Eng.SetAudit(c.Auditor)
	}

	c.Protections = make(map[pci.BDF]driver.Protection, len(s.Protections))
	for bdf, p := range s.Protections {
		var cp driver.Protection
		switch p := p.(type) {
		case *baseline.Driver:
			cp, err = p.Clone(mm, c.BaseHW, rb)
		case *core.Driver:
			cp, err = p.Clone(mm, c.RHW, rb)
		case driver.PassThrough:
			cp = driver.PassThrough{Clk: rb.Clock(p.Clk), Model: rb.Model}
		case driver.NoProtection:
			cp = p
		default:
			err = fmt.Errorf("sim: cannot clone protection %T", p)
		}
		if err != nil {
			return nil, err
		}
		c.wire(cp)
		c.Protections[bdf] = cp
	}
	return c, nil
}
