package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CheckpointVersion is the on-disk checkpoint format version. Bump it when
// the CellMetrics schema or the fingerprint recipe changes incompatibly; a
// resume against a checkpoint from another version is refused rather than
// silently merged.
const CheckpointVersion = 1

// Checkpoint is the versioned on-disk record of a partially (or fully)
// completed campaign grid. Cells maps each completed cell's stable identity
// (Key.String()) to its full measurements, including the cell's final CPU
// clock snapshot — so a checkpointed cell carries the same per-component
// cycle ledger a freshly-run cell would, and a resumed run can render
// reports and enforce gates without recomputing anything.
//
// The fingerprint pins the grid identity: every Options field that changes
// which cells exist or what they measure participates, while pure scheduling
// knobs (Workers, the shard assignment, the checkpoint paths themselves) do
// not. Resuming with a different seed, rate list, or scenario set is a
// different campaign and is refused.
type Checkpoint struct {
	Version     int                    `json:"version"`
	Fingerprint string                 `json:"fingerprint"`
	Cells       map[string]CellMetrics `json:"cells"`
}

// fingerprintID is the canonical identity the checkpoint fingerprint hashes:
// Options minus the scheduling-only fields. Field order is fixed by the
// struct, so the encoding is stable.
type fingerprintID struct {
	Seed        uint64    `json:"seed"`
	Rates       []float64 `json:"rates"`
	Modes       []string  `json:"modes"`
	Rounds      int       `json:"rounds"`
	Audit       bool      `json:"audit"`
	Chaos       []string  `json:"chaos"`
	Cores       []int     `json:"cores"`
	IntChaos    []string  `json:"intchaos"`
	Hotplug     []string  `json:"hotplug"`
	Tenants     []int     `json:"tenants"`
	TenantChaos []string  `json:"tenantchaos"`
}

// Fingerprint returns the hex digest identifying this Options' grid, for
// checkpoint validation. Workers, ShardIndex/ShardCount, and the checkpoint
// paths are deliberately excluded: any worker count or shard split of the
// same grid may share (and resume from) the same checkpoint.
func (o Options) Fingerprint() string {
	id := fingerprintID{
		Seed:    o.Seed,
		Rates:   o.Rates,
		Rounds:  o.Rounds,
		Audit:   o.Audit,
		Cores:   o.Cores,
		Tenants: o.Tenants,
	}
	for _, m := range o.Modes {
		id.Modes = append(id.Modes, m.String())
	}
	for _, s := range o.Chaos {
		id.Chaos = append(id.Chaos, string(s))
	}
	for _, s := range o.IntChaos {
		id.IntChaos = append(id.IntChaos, string(s))
	}
	id.Hotplug = append(id.Hotplug, o.Hotplug...)
	for _, s := range o.TenantChaos {
		id.TenantChaos = append(id.TenantChaos, string(s))
	}
	b, err := json.Marshal(id)
	if err != nil {
		// fingerprintID is plain data; Marshal cannot fail on it.
		panic("campaign: fingerprint marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// LoadCheckpoint reads and validates one checkpoint file against the
// campaign's identity. A missing file is not an error: it returns (nil, nil)
// so a first run and a resume share one code path.
func LoadCheckpoint(path string, opts Options) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := json.Unmarshal(b, &ck); err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("checkpoint %s: version %d, want %d", path, ck.Version, CheckpointVersion)
	}
	if fp := opts.Fingerprint(); ck.Fingerprint != fp {
		return nil, fmt.Errorf("checkpoint %s: grid fingerprint %.12s does not match these options (%.12s) — different seed/rates/modes/scenarios", path, ck.Fingerprint, fp)
	}
	if ck.Cells == nil {
		ck.Cells = map[string]CellMetrics{}
	}
	return &ck, nil
}

// restore copies the checkpoint's cells for the grid's keys into cells and
// marks them completed. Entries for keys outside the grid are ignored.
func (ck *Checkpoint) restore(keys []Key, cells []CellMetrics, completed []bool) {
	for i, k := range keys {
		if m, ok := ck.Cells[k.String()]; ok {
			cells[i] = m
			completed[i] = true
		}
	}
}

// checkpointer serializes checkpoint updates from concurrent cell workers
// and persists every completed cell immediately: each record rewrites the
// whole file through a temp-file rename, so a kill at any instant leaves
// either the previous or the new complete checkpoint on disk, never a torn
// one.
type checkpointer struct {
	mu   sync.Mutex
	path string
	ck   Checkpoint
}

// newCheckpointer wraps the state loaded (or freshly created) for path.
func newCheckpointer(path string, opts Options, loaded *Checkpoint) *checkpointer {
	c := &checkpointer{path: path}
	if loaded != nil {
		c.ck = *loaded
	} else {
		c.ck = Checkpoint{Version: CheckpointVersion, Fingerprint: opts.Fingerprint(), Cells: map[string]CellMetrics{}}
	}
	return c
}

// record adds one completed cell and flushes the checkpoint atomically.
func (c *checkpointer) record(key string, m CellMetrics) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ck.Cells[key] = m
	b, err := json.MarshalIndent(c.ck, "", "  ")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	b = append(b, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(c.path), filepath.Base(c.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
