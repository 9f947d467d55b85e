package campaign

import (
	"fmt"
	"reflect"
	"testing"

	"riommu/internal/chaos"
	"riommu/internal/device"
	"riommu/internal/parallel"
	"riommu/internal/sim"
)

// freshNICWorld builds a NIC cell's world from scratch, the way every cell
// did before templates: the cell's engine installed first, then the oracle,
// then the attach.
func freshNICWorld(t *testing.T, mode sim.Mode, seed uint64, rate float64, audited bool) nicWorld {
	t.Helper()
	sys, f, err := newWorld(mode, 1<<15, seed, rate, audited)
	if err != nil {
		t.Fatal(err)
	}
	drv, nic, err := sys.AttachNIC(device.ProfileBRCM, nicBDF)
	if err != nil {
		t.Fatal(err)
	}
	return nicWorld{sys: sys, f: f, drv: drv, nic: nic}
}

// TestTemplateCellsMatchFreshWorlds checks that NIC and chaos cells cloned
// from the template cache report exactly what cells in freshly built worlds
// report. Each key runs twice from the cache, so a clone that aliased
// template state would corrupt the second run.
func TestTemplateCellsMatchFreshWorlds(t *testing.T) {
	const rounds = 16
	for _, mode := range sim.AllModes() {
		for _, rate := range []float64{0, 0.01, 0.1} {
			for _, audited := range []bool{false, true} {
				name := fmt.Sprintf("nic/%s/r=%g/audit=%v", mode, rate, audited)
				t.Run(name, func(t *testing.T) {
					seed := parallel.CellSeed(5, name)
					want, err := freshNICWorld(t, mode, seed, rate, audited).soakNIC(rounds)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 2; i++ {
						got, err := nicCell(mode, seed, rate, rounds, audited)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("run %d from the template:\n%+v\nfresh world:\n%+v", i, got, want)
						}
					}
				})
			}
		}
	}
	for _, mode := range []sim.Mode{sim.Strict, sim.RIOMMU} {
		for _, sc := range chaos.Scenarios() {
			name := fmt.Sprintf("chaos/%s/%s", mode, sc)
			t.Run(name, func(t *testing.T) {
				seed := parallel.CellSeed(5, name)
				want, err := freshNICWorld(t, mode, seed, 0, true).chaosSoak(sc, rounds)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					got, err := chaosCell(mode, sc, seed, rounds)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("run %d from the template:\n%+v\nfresh world:\n%+v", i, got, want)
					}
				}
			})
		}
	}
}
