package sim

import (
	"bytes"
	"testing"

	"riommu/internal/device"
	"riommu/internal/faults"
)

// fuzzProfile keeps the rings tiny so one fuzz execution (which may run
// dozens of recoveries, each refilling the whole Rx ring) stays well under
// the fuzzer's per-input deadline.
var fuzzProfile = device.NICProfile{
	Name:             "fuzz",
	LineRateGbps:     10,
	BuffersPerPacket: 1,
	RxEntries:        64,
	TxEntries:        64,
	CostScale:        1.0,
}

// faultRun drives one freshly built system through a fixed supervised NIC
// workload under uniform fault injection and returns the engine's schedule
// plus both virtual-clock readings. Everything observable must be a pure
// function of (mode, seed, rate, steps).
func faultRun(t testing.TB, mode Mode, seed uint64, rate float64, steps int) (sched []byte, cpu, dev uint64) {
	sys, err := NewSystem(mode, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	f := sys.EnableFaults(faults.UniformConfig(seed, rate))
	drv, _, err := sys.AttachNIC(fuzzProfile, bdf)
	if err != nil {
		t.Fatal(err)
	}
	sup := sys.Supervise(bdf, drv)
	payload := bytes.Repeat([]byte{0x5A}, 300)
	for i := 0; i < steps; i++ {
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
			t.Fatalf("step %d watchdog: %v", i, err)
		}
	}
	return f.ScheduleBytes(), sys.CPU.Now(), sys.Dev.Now()
}

// FuzzFaultDeterminism is the acceptance property for the injection engine:
// for any (seed, rate, workload length), two runs of the identical workload
// produce a byte-identical fault schedule and identical virtual-clock totals.
// Any use of wall time, math/rand global state, or map-iteration order in a
// fault or recovery path breaks this immediately.
func FuzzFaultDeterminism(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(20))
	f.Add(uint64(42), uint8(0), uint8(10))
	f.Add(uint64(0xDEAD), uint8(100), uint8(40))
	f.Add(uint64(7), uint8(37), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, ratePct uint8, steps uint8) {
		rate := float64(ratePct%31) / 100
		n := int(steps%16) + 1
		for _, mode := range []Mode{Strict, RIOMMU} {
			s1, c1, d1 := faultRun(t, mode, seed, rate, n)
			s2, c2, d2 := faultRun(t, mode, seed, rate, n)
			if !bytes.Equal(s1, s2) {
				t.Errorf("%s: seed=%d rate=%v steps=%d: fault schedules differ (%d vs %d bytes)",
					mode, seed, rate, n, len(s1), len(s2))
			}
			if c1 != c2 {
				t.Errorf("%s: CPU clocks differ: %d vs %d", mode, c1, c2)
			}
			if d1 != d2 {
				t.Errorf("%s: device clocks differ: %d vs %d", mode, d1, d2)
			}
		}
	})
}
