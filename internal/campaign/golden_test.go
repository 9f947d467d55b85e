package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riommu/internal/chaos"
	"riommu/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the campaign golden files in testdata/")

// goldenOptions is an all-axes grid: NIC, block, scale-out, chaos,
// interrupt chaos, hot-plug, tenant and churn cells, audited, with one
// fault rate. It is the same grid as
//
//	riommu-faults -rounds 30 -rates 0,0.01 -modes strict,riommu -audit \
//	    -chaos all -intchaos all -hotplug all -cores 2 -tenants 2 -churn 2000
func goldenOptions() Options {
	return Options{
		Seed:     42,
		Rates:    []float64{0, 0.01},
		Modes:    []sim.Mode{sim.Strict, sim.RIOMMU},
		Rounds:   30,
		Workers:  4,
		Audit:    true,
		Chaos:    chaos.Scenarios(),
		Cores:    []int{2},
		IntChaos: chaos.IntScenarios(),
		Hotplug:  HotplugScenarios(),
		Tenants:  []int{2},
		Churn:    []int{2000},
	}
}

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/campaign -run TestCampaignGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s drifted at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestCampaignGolden pins the campaign's output bytes: the machine-readable
// report, the rendered tables, and a digest of the checkpoint encoding of
// every cell (which carries the fields the report flattens away, such as
// the clock ledger and nil-versus-empty maps). A refactor of the cell
// builders, parsers or Render must leave all three unchanged; a deliberate
// model change regenerates them with -update and says why.
func TestCampaignGolden(t *testing.T) {
	res, err := Run(goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Keys) != 120 || !res.Complete() {
		t.Fatalf("golden grid: %d cells, complete=%v; want 120 complete cells", len(res.Keys), res.Complete())
	}
	for name, fails := range map[string][]string{
		"isolation":    res.AuditViolationsGate(),
		"interrupt":    res.IntremapViolationsGate(),
		"cross-tenant": res.CrossTenantViolationsGate(),
	} {
		if len(fails) != 0 {
			t.Errorf("%s gate failed on the golden grid: %v", name, fails)
		}
	}

	rep, err := MarshalReport(BuildReport(res))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_report.json", rep)
	checkGolden(t, "golden_render.txt", []byte(res.Render()))

	var digests bytes.Buffer
	for i, k := range res.Keys {
		b, err := json.Marshal(res.Cells[i])
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		digests.WriteString(k.String() + " " + hex.EncodeToString(sum[:8]) + "\n")
	}
	checkGolden(t, "golden_cells.sha256", digests.Bytes())
}
