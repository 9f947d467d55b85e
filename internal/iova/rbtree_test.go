package iova

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// insertRange is a test helper adding [lo,hi] to the tree.
func insertRange(t *tree, lo, hi uint64) int32 {
	n := t.newNode(lo, hi)
	t.insert(n)
	return n
}

func TestTreeInsertFindErase(t *testing.T) {
	var tr tree
	n1 := insertRange(&tr, 10, 19)
	n2 := insertRange(&tr, 30, 39)
	n3 := insertRange(&tr, 20, 29)

	if tr.size != 3 {
		t.Fatalf("size = %d", tr.size)
	}
	if tr.checkInvariants() == -1 {
		t.Fatal("invariants violated after inserts")
	}
	if got := tr.find(15); got != n1 {
		t.Errorf("find(15) = %v", got)
	}
	if got := tr.find(29); got != n3 {
		t.Errorf("find(29) = %v", got)
	}
	if got := tr.find(40); got != nilNode {
		t.Errorf("find(40) = %v, want nilNode", got)
	}
	tr.erase(n2)
	if tr.find(35) != nilNode {
		t.Error("erased range still found")
	}
	if tr.checkInvariants() == -1 {
		t.Fatal("invariants violated after erase")
	}
	if tr.size != 2 {
		t.Errorf("size = %d after erase", tr.size)
	}
}

func TestTreeTraversal(t *testing.T) {
	var tr tree
	var nodes []int32
	for _, lo := range []uint64{50, 10, 30, 70, 20, 60, 40} {
		nodes = append(nodes, insertRange(&tr, lo, lo+5))
	}
	_ = nodes
	// last, then walk prev to the smallest.
	var got []uint64
	for n := tr.last(); n != nilNode; n = tr.prev(n) {
		got = append(got, tr.n(n).pfnLo)
	}
	want := []uint64{70, 60, 50, 40, 30, 20, 10}
	if len(got) != len(want) {
		t.Fatalf("prev walk = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prev walk = %v, want %v", got, want)
		}
	}
	// next from smallest.
	var fwd []uint64
	n := tr.find(10)
	for ; n != nilNode; n = tr.next(n) {
		fwd = append(fwd, tr.n(n).pfnLo)
	}
	for i := range want {
		if fwd[i] != want[len(want)-1-i] {
			t.Fatalf("next walk = %v", fwd)
		}
	}
}

func TestTreeEmpty(t *testing.T) {
	var tr tree
	if tr.last() != nilNode {
		t.Error("last of empty tree != nilNode")
	}
	if tr.find(5) != nilNode {
		t.Error("find in empty tree != nilNode")
	}
	if tr.checkInvariants() == -1 {
		t.Error("empty tree fails invariants")
	}
}

func TestTreeVisitCounting(t *testing.T) {
	var tr tree
	for i := uint64(0); i < 64; i++ {
		insertRange(&tr, i*10, i*10+5)
	}
	tr.takeVisits()
	tr.find(635)
	v := tr.takeVisits()
	if v == 0 || v > 10 {
		t.Errorf("find visits = %d, want O(log 64)", v)
	}
}

// Property: random insert/erase sequences preserve RB invariants and agree
// with a sorted-slice reference model.
func TestTreeRandomizedAgainstReference(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr tree
		ref := map[uint64]int32{} // pfnLo -> node
		for op := 0; op < 400; op++ {
			if rng.Intn(2) == 0 || len(ref) == 0 {
				lo := uint64(rng.Intn(10000)) * 10
				if _, dup := ref[lo]; dup {
					continue
				}
				ref[lo] = insertRange(&tr, lo, lo+9)
			} else {
				// Erase a random reference element.
				keys := make([]uint64, 0, len(ref))
				for k := range ref {
					keys = append(keys, k)
				}
				k := keys[rng.Intn(len(keys))]
				tr.erase(ref[k])
				delete(ref, k)
			}
			if tr.checkInvariants() == -1 {
				return false
			}
			if tr.size != len(ref) {
				return false
			}
		}
		// Full in-order scan must equal the sorted reference keys.
		var keys []uint64
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i := len(keys) - 1
		for n := tr.last(); n != nilNode; n = tr.prev(n) {
			if i < 0 || tr.n(n).pfnLo != keys[i] {
				return false
			}
			i--
		}
		if i != -1 {
			return false
		}
		// The succ threads must give the same order forwards.
		if len(keys) > 0 {
			for n := tr.find(keys[0]); n != nilNode; n = tr.next(n) {
				if i++; i >= len(keys) || tr.n(n).pfnLo != keys[i] {
					return false
				}
			}
		}
		return i == len(keys)-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
