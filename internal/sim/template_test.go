package sim

import (
	"fmt"
	"reflect"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/device"
	"riommu/internal/driver"
	"riommu/internal/faults"
)

// TestAttachNICDrawsNoFaultOpportunities pins the precondition NIC
// templates rest on: attaching a NIC consults no fault engine, at any rate,
// so a clone of an attached world can take its seeded engine afterwards and
// still match a world built with that engine from the start.
func TestAttachNICDrawsNoFaultOpportunities(t *testing.T) {
	for _, p := range []device.NICProfile{device.ProfileBRCM, device.ProfileMLX} {
		for _, mode := range allNine() {
			for _, rate := range []float64{0, 0.01, 1} {
				t.Run(fmt.Sprintf("%s/%s/r=%g", p.Name, mode, rate), func(t *testing.T) {
					sys, err := NewSystem(mode, 1<<15)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					f := sys.EnableFaults(faults.UniformConfig(7, rate))
					if _, _, err := sys.AttachNIC(p, bdf); err != nil {
						t.Fatal(err)
					}
					if n := f.Opportunities(); n != 0 {
						t.Errorf("AttachNIC drew %d fault opportunities", n)
					}
					if n := f.TotalInjected(); n != 0 {
						t.Errorf("AttachNIC injected %d faults", n)
					}
				})
			}
		}
	}
}

// nicOutcome is what a short faulted NIC soak leaves behind.
type nicOutcome struct {
	Clock                  cycles.Snapshot
	Tx, Rx, NICFaults      uint64
	Injected, Checked, Bad uint64
	Recovery               driver.RecoveryStats
}

// soakNIC runs a short supervised NIC workload under injection in sys.
func soakNIC(t *testing.T, sys *System, drv *driver.NICDriver, nic *device.NIC) nicOutcome {
	t.Helper()
	f := sys.EnableFaults(faults.UniformConfig(11, 0.02))
	sup := sys.Supervise(bdf, drv)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i)
	}
	for round := 0; round < 12; round++ {
		_ = sup.Do(func() error {
			if err := drv.Send(payload); err != nil {
				return err
			}
			if _, err := drv.PumpTx(2); err != nil {
				return err
			}
			if _, err := drv.ReapTx(); err != nil {
				return err
			}
			if err := drv.Deliver(payload); err != nil {
				return err
			}
			_, err := drv.ReapRx()
			return err
		})
		if _, err := sup.Watch(); err != nil {
			t.Fatalf("round %d: watchdog: %v", round, err)
		}
	}
	out := nicOutcome{
		Clock: sys.CPU.Snapshot(), Tx: nic.TxPackets, Rx: nic.RxPackets, NICFaults: nic.Faults,
		Injected: f.TotalInjected(), Recovery: sup.Stats,
	}
	if sys.Auditor != nil {
		out.Checked, out.Bad = sys.Auditor.Checked, sys.Auditor.Violations
	}
	return out
}

// TestNICTemplateMatchesFreshWorld checks that a world cloned from a
// template behaves exactly like one built from scratch, in every mode,
// audited or not, and that soaking one clone leaves the next untouched.
func TestNICTemplateMatchesFreshWorld(t *testing.T) {
	for _, mode := range allNine() {
		for _, audited := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/audit=%v", mode, audited), func(t *testing.T) {
				sys, err := NewSystem(mode, 1<<15)
				if err != nil {
					t.Fatal(err)
				}
				if audited {
					sys.EnableAudit()
				}
				drv, nic, err := sys.AttachNIC(device.ProfileBRCM, bdf)
				if err != nil {
					t.Fatal(err)
				}
				want := soakNIC(t, sys, drv, nic)
				sys.Close()

				tmpl, err := NewNICTemplate(mode, 1<<15, device.ProfileBRCM, bdf, audited)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					sys, drv, nic, err := tmpl.Clone()
					if err != nil {
						t.Fatal(err)
					}
					if got := soakNIC(t, sys, drv, nic); !reflect.DeepEqual(got, want) {
						t.Errorf("clone %d: %+v\nfresh:   %+v", i, got, want)
					}
					sys.Close()
				}
			})
		}
	}
}

// TestNICTemplateImageIsCompact pins what a template holds of simulated
// memory: the handful of frames an attach writes nonzero bytes to, not the
// world's backing.
func TestNICTemplateImageIsCompact(t *testing.T) {
	for _, mode := range AllModes() {
		tmpl, err := NewNICTemplate(mode, 1<<15, device.ProfileBRCM, bdf, false)
		if err != nil {
			t.Fatal(err)
		}
		if n := tmpl.img.Frames(); n == 0 || n > 16 {
			t.Errorf("%s: image holds %d frames, want 1..16", mode, n)
		}
	}
}
