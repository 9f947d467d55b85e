package chaos

import (
	"testing"

	"riommu/internal/audit"
	"riommu/internal/cycles"
	"riommu/internal/intremap"
	"riommu/internal/pci"
)

func intFixture(t *testing.T, deferred bool) (*intremap.Remapper, *audit.IntOracle, *IntHostile) {
	t.Helper()
	cpu, dev := &cycles.Clock{}, &cycles.Clock{}
	model := cycles.DefaultModel()
	rem, err := intremap.New(intremap.Config{TableOrder: 6, DeferredInv: deferred}, cpu, dev, &model)
	if err != nil {
		t.Fatal(err)
	}
	orc := audit.NewIntOracle("test", cpu)
	rem.SetObserver(orc)
	victim := pci.NewBDF(0, 3, 0)
	h := NewIntHostile(rem, orc, pci.NewBDF(0, 66, 6), victim)
	return rem, orc, h
}

func TestParseIntScenarios(t *testing.T) {
	all, err := ParseList("all", IntScenarios())
	if err != nil || len(all) != len(IntScenarios()) {
		t.Fatalf("all: %v %v", all, err)
	}
	one, err := ParseList(" spoof-bdf ,vector-storm", IntScenarios())
	if err != nil || len(one) != 2 || one[0] != SpoofBDF {
		t.Fatalf("list: %v %v", one, err)
	}
	if _, err := ParseList("nope", IntScenarios()); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := ParseList("stale-replay", IntScenarios()); err == nil {
		t.Fatal("a DMA scenario accepted as an interrupt scenario")
	}
	if _, err := ParseList(" , ", IntScenarios()); err == nil {
		t.Fatal("empty list accepted")
	}
}

func TestVectorStormContained(t *testing.T) {
	rem, orc, h := intFixture(t, false)
	// One legitimate IRTE so the storm can also collide with a live entry.
	victim := pci.NewBDF(0, 3, 0)
	if _, err := rem.Alloc(victim, 0x22, 1, false); err != nil {
		t.Fatal(err)
	}
	h.RunInt(VectorStorm, 128)
	if h.Stats.Attempts != 128 || h.Stats.Landed != 0 {
		t.Fatalf("storm: %+v", h.Stats)
	}
	if h.Stats.Contained != 128 {
		t.Fatalf("storm containment: %+v", h.Stats)
	}
	if orc.Violations != 0 {
		t.Fatalf("storm produced delivered violations: %+v", orc.ByReason)
	}
	if rem.Stats().Blocked() == 0 {
		t.Fatal("remapper blocked no messages")
	}
}

func TestSpoofBlockedBySourceID(t *testing.T) {
	rem, orc, h := intFixture(t, false)
	victim := pci.NewBDF(0, 3, 0)
	for v := 0; v < 4; v++ {
		if _, err := rem.Alloc(victim, 0x20+uint8(v), v, false); err != nil {
			t.Fatal(err)
		}
	}
	h.RunInt(SpoofBDF, 8)
	if h.Stats.Attempts != 4 {
		t.Fatalf("spoof attempts = %d, want 4 (live IRTEs)", h.Stats.Attempts)
	}
	if h.Stats.Landed != 0 || orc.Violations != 0 {
		t.Fatalf("spoof landed: %+v viol %+v", h.Stats, orc.ByReason)
	}
	if got := rem.Stats().BlockedSourceMismatch; got != 4 {
		t.Fatalf("source-mismatch blocks = %d, want 4", got)
	}
}

func TestReplayFreedStrictVsDeferred(t *testing.T) {
	victim := pci.NewBDF(0, 3, 0)
	setup := func(deferred bool) (*audit.IntOracle, *IntHostile) {
		rem, orc, h := intFixture(t, deferred)
		for v := 0; v < 4; v++ {
			idx, err := rem.Alloc(victim, 0x20+uint8(v), v, false)
			if err != nil {
				t.Fatal(err)
			}
			// Warm the IEC, then free: deferred mode leaves the cached entry
			// deliverable until the batched flush.
			if out := rem.Deliver(victim, idx, 0, 0); out != intremap.Delivered {
				t.Fatalf("warmup: %v", out)
			}
			if err := rem.Free(idx); err != nil {
				t.Fatal(err)
			}
		}
		return orc, h
	}

	// Strict invalidation: replay is contained, oracle stays clean.
	orc, h := setup(false)
	h.RunInt(IRTEReplay, 4)
	if h.Stats.Landed != 0 || orc.ByReason[audit.IntReasonStale] != 0 {
		t.Fatalf("strict replay: %+v viol %+v", h.Stats, orc.ByReason)
	}

	// Deferred invalidation: the replay lands inside the stale window and
	// the oracle classifies every landing as int-stale.
	orc, h = setup(true)
	h.RunInt(IRTEReplay, 4)
	if h.Stats.Landed != 4 {
		t.Fatalf("deferred replay should land: %+v", h.Stats)
	}
	if orc.ByReason[audit.IntReasonStale] != 4 {
		t.Fatalf("stale classification: %+v", orc.ByReason)
	}
}

func TestIntHostileDeterminism(t *testing.T) {
	run := func() (Stats, uint64) {
		rem, orc, h := intFixture(t, true)
		victim := pci.NewBDF(0, 3, 0)
		for v := 0; v < 6; v++ {
			idx, err := rem.Alloc(victim, 0x20+uint8(v), v, false)
			if err != nil {
				t.Fatal(err)
			}
			rem.Deliver(victim, idx, 0, 0)
			if v%2 == 0 {
				rem.Free(idx)
			}
		}
		for _, sc := range IntScenarios() {
			h.RunInt(sc, 32)
		}
		return h.Stats, orc.Violations
	}
	s1, v1 := run()
	s2, v2 := run()
	if s1 != s2 || v1 != v2 {
		t.Fatalf("nondeterministic: %+v/%d vs %+v/%d", s1, v1, s2, v2)
	}
}
