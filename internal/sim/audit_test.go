package sim

import (
	"testing"

	"riommu/internal/audit"
	"riommu/internal/baseline"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/faults"
	"riommu/internal/mem"
	"riommu/internal/pci"
)

var auditBDF = pci.NewBDF(0, 3, 0)

// nicWorkload drives a NIC through rounds of Tx+Rx and returns final CPU time.
func nicWorkload(t *testing.T, sys *System, rounds int) uint64 {
	t.Helper()
	drv, _, err := sys.AttachNIC(device.ProfileBRCM, auditBDF)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	for r := 0; r < rounds; r++ {
		if err := drv.Send(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.PumpTx(2); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.ReapTx(); err != nil {
			t.Fatal(err)
		}
		if err := drv.Deliver(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := drv.ReapRx(); err != nil {
			t.Fatal(err)
		}
	}
	return sys.CPU.Now()
}

// TestAuditIsPureObserver: enabling the oracle must not change a single
// measured cycle — the determinism argument every audited campaign cell
// rests on.
func TestAuditIsPureObserver(t *testing.T) {
	for _, mode := range []Mode{Strict, Defer, RIOMMU} {
		plain, err := NewSystem(mode, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		base := nicWorkload(t, plain, 10)

		audited, err := NewSystem(mode, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		orc := audited.EnableAudit()
		got := nicWorkload(t, audited, 10)
		if got != base {
			t.Errorf("%s: audited run took %d CPU cycles, unaudited %d — oracle is not a pure observer", mode, got, base)
		}
		if orc.Checked == 0 || orc.Maps == 0 {
			t.Errorf("%s: oracle saw nothing (checked=%d maps=%d)", mode, orc.Checked, orc.Maps)
		}
		if orc.Violations != 0 {
			t.Errorf("%s: legitimate traffic flagged: %+v", mode, orc.Events)
		}
	}
}

// TestAuditPassThroughModes: the unprotected modes map nothing, so the
// oracle must count without judging.
func TestAuditPassThroughModes(t *testing.T) {
	sys, err := NewSystem(None, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	orc := sys.EnableAudit()
	nicWorkload(t, sys, 5)
	if orc.Checked == 0 {
		t.Fatal("pass-through oracle counted no DMAs")
	}
	if orc.Violations != 0 {
		t.Fatalf("pass-through oracle judged: %+v", orc.Events)
	}
}

// TestWireInstrumentsEveryProtection: a baseline protection driver reaches
// the oracle and the fault engine however it was built — attached before
// EnableFaults and EnableAudit (in either order, so each one's re-wiring is
// exercised on its own), attached after them, or returned by
// DegradeToStrict.
func TestWireInstrumentsEveryProtection(t *testing.T) {
	var cfg faults.Config
	cfg.Rates[faults.InvDrop] = 1
	instrument := func(sys *System) *audit.Oracle {
		sys.EnableFaults(cfg)
		return sys.EnableAudit()
	}
	auditFirst := func(sys *System) *audit.Oracle {
		orc := sys.EnableAudit()
		sys.EnableFaults(cfg)
		return orc
	}
	attach := func(t *testing.T, sys *System) driver.Protection {
		t.Helper()
		if _, _, err := sys.AttachNIC(device.ProfileBRCM, auditBDF); err != nil {
			t.Fatal(err)
		}
		return sys.Protections[auditBDF]
	}
	cases := []struct {
		name  string
		mode  Mode
		build func(*testing.T, *System) (driver.Protection, *audit.Oracle)
	}{
		{"attached-before", Strict, func(t *testing.T, sys *System) (driver.Protection, *audit.Oracle) {
			p := attach(t, sys)
			return p, instrument(sys)
		}},
		{"attached-before-audit-first", Strict, func(t *testing.T, sys *System) (driver.Protection, *audit.Oracle) {
			p := attach(t, sys)
			return p, auditFirst(sys)
		}},
		{"attached-after", Strict, func(t *testing.T, sys *System) (driver.Protection, *audit.Oracle) {
			orc := instrument(sys)
			return attach(t, sys), orc
		}},
		{"degraded", RIOMMU, func(t *testing.T, sys *System) (driver.Protection, *audit.Oracle) {
			orc := instrument(sys)
			p, err := sys.DegradeToStrict(auditBDF)
			if err != nil {
				t.Fatal(err)
			}
			return p, orc
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := NewSystem(tc.mode, 1<<15)
			if err != nil {
				t.Fatal(err)
			}
			p, orc := tc.build(t, sys)
			bd, ok := p.(*baseline.Driver)
			if !ok {
				t.Fatalf("protection is %T, want *baseline.Driver", p)
			}
			var iovas [2]uint64
			for i := range iovas {
				f, err := sys.Mem.AllocFrame()
				if err != nil {
					t.Fatal(err)
				}
				if iovas[i], err = bd.Map(0, mem.PA(f)<<mem.PageShift, 512, pci.DirBidi); err != nil {
					t.Fatal(err)
				}
			}
			if err := bd.Unmap(0, iovas[0], 512, true); err != nil {
				t.Fatal(err)
			}
			if len(orc.LiveSorted(auditBDF)) == 0 {
				t.Error("oracle saw none of the driver's maps")
			}
			if bd.InvQueue().Dropped == 0 {
				t.Error("invalidation queue has no fault engine: nothing dropped at rate 1")
			}
		})
	}
}

// TestIsolatorQuarantinesDevice: Isolate must make every DMA of the device
// fault and Readmit must restore the original translation path, leaving
// other devices untouched throughout.
func TestIsolatorQuarantinesDevice(t *testing.T) {
	for _, mode := range []Mode{Strict, RIOMMU} {
		sys, err := NewSystem(mode, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		drv, _, err := sys.AttachNIC(device.ProfileBRCM, auditBDF)
		if err != nil {
			t.Fatal(err)
		}
		otherBDF := pci.NewBDF(0, 9, 0)
		otherDrv, _, err := sys.AttachNIC(device.ProfileBRCM, otherBDF)
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 256)
		roundTx := func(d interface {
			Send([]byte) error
			PumpTx(int) (int, error)
			ReapTx() (int, error)
		}) error {
			if err := d.Send(payload); err != nil {
				return err
			}
			if _, err := d.PumpTx(2); err != nil {
				return err
			}
			_, err := d.ReapTx()
			return err
		}

		iso := sys.IsolatorFor(auditBDF)
		if err := roundTx(drv); err != nil {
			t.Fatalf("%s: pre-isolation traffic failed: %v", mode, err)
		}
		if err := iso.Isolate(); err != nil {
			t.Fatal(err)
		}
		if err := roundTx(drv); err == nil {
			t.Errorf("%s: quarantined device still performed DMA", mode)
		}
		if err := roundTx(otherDrv); err != nil {
			t.Errorf("%s: quarantine leaked onto another device: %v", mode, err)
		}
		if err := iso.Readmit(); err != nil {
			t.Fatal(err)
		}
		if err := roundTx(drv); err != nil {
			t.Errorf("%s: re-admitted device cannot DMA: %v", mode, err)
		}
	}
}
