package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"riommu/internal/cycles"
	"riommu/internal/sim"
)

// smallOpts is a grid small enough for sharding tests but wide enough to
// cover all three base cell kinds (nic clean/rate, nvme, sata).
func smallOpts() Options {
	return Options{
		Seed:    7,
		Rates:   []float64{0, 0.01},
		Modes:   []sim.Mode{sim.Strict, sim.RIOMMU},
		Rounds:  4,
		Workers: 1,
	}
}

func reportBytes(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := MarshalReport(BuildReport(r))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedResumeByteIdentical: K sequential shard passes over one shared
// checkpoint file must converge to a grid whose rendered and JSON output is
// byte-identical to an uninterrupted serial run.
func TestShardedResumeByteIdentical(t *testing.T) {
	serial, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	ckpt := filepath.Join(t.TempDir(), "grid.ckpt")
	const shards = 3
	var last Result
	for i := 0; i < shards; i++ {
		o := smallOpts()
		o.ShardIndex, o.ShardCount = i, shards
		o.Checkpoint = ckpt
		last, err = Run(o)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, shards, err)
		}
		if i < shards-1 && last.Complete() {
			t.Fatalf("shard %d/%d: grid complete before the last shard ran", i, shards)
		}
	}
	if !last.Complete() {
		t.Fatal("grid incomplete after all shards ran")
	}
	if got := reportBytes(t, last); !bytes.Equal(got, want) {
		t.Errorf("sharded report differs from serial run:\nserial: %d bytes\nsharded: %d bytes", len(want), len(got))
	}
	if got, want := last.Render(), serial.Render(); got != want {
		t.Error("sharded Render differs from serial run")
	}
}

// TestShardMergeSeparateFiles: shards run into separate checkpoint files
// (parallel processes) and a final merge pass restores them all without
// recomputing, byte-identical to the serial run.
func TestShardMergeSeparateFiles(t *testing.T) {
	serial, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := reportBytes(t, serial)

	dir := t.TempDir()
	const shards = 2
	files := make([]string, shards)
	for i := 0; i < shards; i++ {
		files[i] = filepath.Join(dir, "shard.ckpt."+string(rune('0'+i)))
		o := smallOpts()
		o.ShardIndex, o.ShardCount = i, shards
		o.Checkpoint = files[i]
		if _, err := Run(o); err != nil {
			t.Fatalf("shard %d/%d: %v", i, shards, err)
		}
	}

	merged := smallOpts()
	merged.Checkpoint = filepath.Join(dir, "merged.ckpt")
	merged.Merge = files
	res, err := Run(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatal("merge pass left cells incomplete")
	}
	if got := reportBytes(t, res); !bytes.Equal(got, want) {
		t.Error("merged report differs from serial run")
	}
	// The merge target must now hold the whole grid, so a later resume needs
	// only that one file.
	ck, err := LoadCheckpoint(merged.Checkpoint, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || len(ck.Cells) != len(serial.Keys) {
		t.Fatalf("merge target holds %d cells, want %d", len(ck.Cells), len(serial.Keys))
	}
}

// TestCheckpointClockLedger: every checkpointed cell carries its final CPU
// clock snapshot, and restoring it into a fresh Clock reproduces the cell's
// recovery-cycle accounting exactly.
func TestCheckpointClockLedger(t *testing.T) {
	o := smallOpts()
	o.Checkpoint = filepath.Join(t.TempDir(), "grid.ckpt")
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpoint(o.Checkpoint, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("checkpoint not written")
	}
	for i, k := range res.Keys {
		cell, ok := ck.Cells[k.String()]
		if !ok {
			t.Fatalf("%s: missing from checkpoint", k)
		}
		if cell.Clock.Now == 0 {
			t.Errorf("%s: checkpointed clock snapshot is empty", k)
		}
		var clk cycles.Clock
		clk.Restore(cell.Clock)
		if clk.Total(cycles.Recovery) != res.Cells[i].RecoveryCycles {
			t.Errorf("%s: restored clock charges %d recovery cycles, cell recorded %d",
				k, clk.Total(cycles.Recovery), res.Cells[i].RecoveryCycles)
		}
	}
}

// TestCheckpointRejectsMismatchedGrid: a checkpoint from one campaign must
// not silently seed a different one.
func TestCheckpointRejectsMismatchedGrid(t *testing.T) {
	o := smallOpts()
	o.Checkpoint = filepath.Join(t.TempDir(), "grid.ckpt")
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	other := smallOpts()
	other.Seed = 8
	if _, err := LoadCheckpoint(o.Checkpoint, other); err == nil {
		t.Error("checkpoint accepted under a different seed")
	}
	// Version drift is refused too.
	b, err := os.ReadFile(o.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(b), `"version": 1`, `"version": 99`, 1)
	if bad == string(b) {
		t.Fatal("version field not found in checkpoint")
	}
	if err := os.WriteFile(o.Checkpoint, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(o.Checkpoint, smallOpts()); err == nil {
		t.Error("checkpoint accepted with a future version")
	}
}

// TestShardRequiresCheckpoint: a sharded run without a checkpoint would
// discard its cells, so Run refuses it.
func TestShardRequiresCheckpoint(t *testing.T) {
	o := smallOpts()
	o.ShardIndex, o.ShardCount = 0, 2
	if _, err := Run(o); err == nil {
		t.Error("sharded run without checkpoint accepted")
	}
}

// FuzzLoadCheckpoint: checkpoint files are untrusted input. For any bytes,
// LoadCheckpoint returns an error or a checkpoint and never panics. A
// checkpoint that loads restores exactly the grid's own keys and ignores
// every other entry, and the partial result it yields renders and gates
// without panicking.
func FuzzLoadCheckpoint(f *testing.F) {
	opts := smallOpts()
	keys := opts.Grid()
	valid := func(cells map[string]CellMetrics) []byte {
		b, err := json.Marshal(Checkpoint{Version: CheckpointVersion, Fingerprint: opts.Fingerprint(), Cells: cells})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(valid(nil))
	f.Add(valid(map[string]CellMetrics{
		keys[0].String():   {CyclesPerOp: 12, Audited: true, ByReason: map[string]uint64{"bounds": 1}},
		keys[1].String():   {Injected: 3, ByClass: map[string]uint64{"dma-stale": 3}},
		"nic/strict/r=0.5": {Injected: 9},
		"":                 {},
	}))
	f.Add([]byte(`{"version":1,"fingerprint":"","cells":{}}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"cells":{"nic/strict/clean":{"Clock":{"Now":-1}}}}`))
	f.Add([]byte("not json"))
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path, opts)
		if err != nil {
			if ck != nil {
				t.Fatalf("LoadCheckpoint returned both a checkpoint and %v", err)
			}
			return
		}
		if ck == nil {
			t.Fatal("LoadCheckpoint of an existing file returned neither a checkpoint nor an error")
		}
		cells := make([]CellMetrics, len(keys))
		completed := make([]bool, len(keys))
		ck.restore(keys, cells, completed)
		for i, k := range keys {
			if _, ok := ck.Cells[k.String()]; ok != completed[i] {
				t.Fatalf("%s: in checkpoint=%v but restored=%v", k, ok, completed[i])
			}
		}
		r := Result{Opts: opts, Keys: keys, Cells: cells, Completed: completed}
		_ = r.Render()
		_ = BuildReport(r)
		_ = r.AuditViolationsGate()
		_ = r.IntremapViolationsGate()
		_ = r.CrossTenantViolationsGate()
	})
}
