// Package iova implements the two IOVA allocators the paper evaluates:
//
//   - LinuxAllocator: a faithful reproduction of the Linux 3.4 kernel's IOVA
//     allocator (drivers/iommu/iova.c as profiled by the paper): a red-black
//     tree of allocated ranges, top-down allocation below a 32-bit limit with
//     the cached32_node optimization. The allocator exhibits the paper's
//     "nontrivial pathology" — the gap search regularly walks linearly over
//     the live ranges — by construction, because the algorithm is the same.
//
//   - ConstAllocator: the authors' constant-time allocator (strict+/defer+
//     modes; Malka et al., FAST'15): freed ranges are kept in the tree and
//     recycled through a free list, making allocation O(1) at the cost of a
//     fuller tree (and hence a slightly slower unmap-time lookup), matching
//     Table 1's strict+ column.
//
// Allocation costs are charged to the virtual clock per node actually
// visited, so the asymptotic behaviour is reproduced rather than assumed.
package iova

import "slices"

// node is a red-black tree node describing one allocated IOVA range
// [pfnLo, pfnHi] in page-frame-number units. Links are indices into the
// owning tree's slices; nilNode is the absent link. Besides the tree
// links, every node is threaded onto the in-order list through pred and
// succ, so prev and next are one load rather than a walk.
type node struct {
	pfnLo, pfnHi uint64
	parent       int32
	pred, succ   int32
	red          bool
	free         bool // ConstAllocator: range is on the free list, not live
}

// Child slots of a node's kids entry.
const (
	left  = 0
	right = 1
)

// nilNode is the null link. Index 0 of a tree's slices is a placeholder
// that is never linked, so the zero tree (root == nilNode) is empty.
const nilNode = int32(0)

// tree is an intrusive red-black tree of non-overlapping IOVA ranges, sorted
// by pfnLo. Nodes live in one slice and link by index, so steady allocation
// churn costs an amortized append per node rather than a heap allocation,
// and cloning the whole tree is a copy of its two slices. The child links
// sit apart in kids, 8 bytes per node, so each step of a descent is one
// scaled load, as cheap as following a pointer. Nodes are never returned
// to the slices; allocators that erase nodes recycle them directly. The
// tree counts node touches so callers can charge cycle costs proportional
// to the work the real kernel would do.
type tree struct {
	nodes  []node
	kids   [][2]int32 // kids[i] = {left, right} children of node i
	root   int32
	size   int
	visits uint64 // node touches since last takeVisits
}

// newNode appends a detached node for [lo, hi] and returns its index. It may
// move the slices, so callers must not hold a *node across it.
func (t *tree) newNode(lo, hi uint64) int32 {
	if len(t.nodes) == 0 {
		t.nodes = append(t.nodes, node{}) // the nilNode placeholder
		t.kids = append(t.kids, [2]int32{})
	}
	if len(t.nodes) == cap(t.nodes) {
		// Double, where append would grow a large slice by a quarter: a
		// tree built node by node then copies each node about once.
		t.nodes = slices.Grow(t.nodes, len(t.nodes))
		t.kids = slices.Grow(t.kids, len(t.kids))
	}
	t.nodes = append(t.nodes, node{pfnLo: lo, pfnHi: hi})
	t.kids = append(t.kids, [2]int32{})
	return int32(len(t.nodes) - 1)
}

// n returns node i. The pointer is valid until the next newNode.
func (t *tree) n(i int32) *node { return &t.nodes[i] }

// clone returns an independent copy of the tree.
func (t *tree) clone() tree {
	c := *t
	c.nodes = slices.Clone(t.nodes)
	c.kids = slices.Clone(t.kids)
	return c
}

// takeVisits returns and resets the touch counter.
func (t *tree) takeVisits() uint64 {
	v := t.visits
	t.visits = 0
	return v
}

func (t *tree) touch() { t.visits++ }

// The loops in last, find and insert read the slices and count visits
// through locals: a store to t.visits inside the loop would otherwise force
// the slice headers to be reloaded on every step.

// red reports whether node i is red (the nil link is black).
func (t *tree) red(i int32) bool { return i != nilNode && t.nodes[i].red }

// last returns the node with the greatest pfnLo, or nilNode.
func (t *tree) last() int32 {
	kids, i := t.kids, t.root
	if i == nilNode {
		return nilNode
	}
	v := uint64(1)
	for kids[i][right] != nilNode {
		v++
		i = kids[i][right]
	}
	t.visits += v
	return i
}

// prev returns the in-order predecessor of i, or nilNode. It counts one
// visit, as the kernel's rb_prev is charged one node touch.
func (t *tree) prev(i int32) int32 {
	t.touch()
	return t.nodes[i].pred
}

// next returns the in-order successor of i, or nilNode, counting one visit.
func (t *tree) next(i int32) int32 {
	t.touch()
	return t.nodes[i].succ
}

// find returns the node whose range contains pfn, or nilNode.
func (t *tree) find(pfn uint64) int32 {
	nodes, kids, i, v := t.nodes, t.kids, t.root, uint64(0)
	for i != nilNode {
		v++
		n := &nodes[i]
		if pfn < n.pfnLo {
			i = kids[i][left]
		} else if pfn > n.pfnHi {
			i = kids[i][right]
		} else {
			break
		}
	}
	t.visits += v
	return i
}

// insert links node i into the tree, keyed by pfnLo, and rebalances.
func (t *tree) insert(i int32) {
	nodes, kids := t.nodes, t.kids
	n := &nodes[i]
	kids[i] = [2]int32{}
	n.red = true
	lo := n.pfnLo
	// The new leaf's in-order neighbours are the last ancestors the
	// descent left to the right (pred) and to the left (succ).
	// Each arm loads its own child, so the next step's address does not
	// wait on the key comparison.
	parent, v := nilNode, uint64(0)
	pred, succ := nilNode, nilNode
	for cur := t.root; cur != nilNode; {
		parent = cur
		v++
		if lo < nodes[cur].pfnLo {
			succ = cur
			cur = kids[cur][left]
		} else {
			pred = cur
			cur = kids[cur][right]
		}
	}
	t.visits += v
	n.pred, n.succ = pred, succ
	if pred != nilNode {
		nodes[pred].succ = i
	}
	if succ != nilNode {
		nodes[succ].pred = i
	}
	n.parent = parent
	switch {
	case parent == nilNode:
		t.root = i
	case parent == succ:
		kids[parent][left] = i
	default:
		kids[parent][right] = i
	}
	t.size++
	t.fixInsert(i)
}

// replaceChild points x's parent (or the root) at y instead of x.
func (t *tree) replaceChild(x, y int32) {
	p := t.nodes[x].parent
	switch {
	case p == nilNode:
		t.root = y
	case x == t.kids[p][left]:
		t.kids[p][left] = y
	default:
		t.kids[p][right] = y
	}
}

func (t *tree) rotateLeft(x int32) {
	nodes, kids := t.nodes, t.kids
	y := kids[x][right]
	yl := kids[y][left]
	kids[x][right] = yl
	if yl != nilNode {
		nodes[yl].parent = x
	}
	nodes[y].parent = nodes[x].parent
	t.replaceChild(x, y)
	kids[y][left] = x
	nodes[x].parent = y
}

func (t *tree) rotateRight(x int32) {
	nodes, kids := t.nodes, t.kids
	y := kids[x][left]
	yr := kids[y][right]
	kids[x][left] = yr
	if yr != nilNode {
		nodes[yr].parent = x
	}
	nodes[y].parent = nodes[x].parent
	t.replaceChild(x, y)
	kids[y][right] = x
	nodes[x].parent = y
}

func (t *tree) fixInsert(z int32) {
	nodes, kids := t.nodes, t.kids
	for {
		zp := nodes[z].parent
		if zp == nilNode || !nodes[zp].red {
			break
		}
		gp := nodes[zp].parent
		if zp == kids[gp][left] {
			u := kids[gp][right]
			if t.red(u) {
				nodes[zp].red = false
				nodes[u].red = false
				nodes[gp].red = true
				z = gp
			} else {
				if z == kids[zp][right] {
					z = zp
					t.rotateLeft(z)
				}
				nodes[nodes[z].parent].red = false
				nodes[gp].red = true
				t.rotateRight(gp)
			}
		} else {
			u := kids[gp][left]
			if t.red(u) {
				nodes[zp].red = false
				nodes[u].red = false
				nodes[gp].red = true
				z = gp
			} else {
				if z == kids[zp][left] {
					z = zp
					t.rotateRight(z)
				}
				nodes[nodes[z].parent].red = false
				nodes[gp].red = true
				t.rotateLeft(gp)
			}
		}
	}
	nodes[t.root].red = false
}

// erase removes node i from the tree and rebalances (CLRS RB-DELETE).
func (t *tree) erase(i int32) {
	t.size--
	nodes, kids := t.nodes, t.kids
	var x, xParent int32
	n := &nodes[i]
	y := i
	yRed := n.red
	switch {
	case kids[i][left] == nilNode:
		x = kids[i][right]
		xParent = n.parent
		t.transplant(i, x)
	case kids[i][right] == nilNode:
		x = kids[i][left]
		xParent = n.parent
		t.transplant(i, x)
	default:
		y = kids[i][right]
		for kids[y][left] != nilNode {
			y = kids[y][left]
		}
		yRed = nodes[y].red
		x = kids[y][right]
		if nodes[y].parent == i {
			xParent = y
		} else {
			xParent = nodes[y].parent
			t.transplant(y, x)
			kids[y][right] = kids[i][right]
			nodes[kids[y][right]].parent = y
		}
		t.transplant(i, y)
		kids[y][left] = kids[i][left]
		nodes[kids[y][left]].parent = y
		nodes[y].red = n.red
	}
	if !yRed {
		t.fixDelete(x, xParent)
	}
	if n.pred != nilNode {
		nodes[n.pred].succ = n.succ
	}
	if n.succ != nilNode {
		nodes[n.succ].pred = n.pred
	}
	kids[i] = [2]int32{}
	n.parent, n.pred, n.succ = nilNode, nilNode, nilNode
}

func (t *tree) transplant(u, v int32) {
	t.replaceChild(u, v)
	if v != nilNode {
		t.nodes[v].parent = t.nodes[u].parent
	}
}

func (t *tree) fixDelete(x, parent int32) {
	nodes, kids := t.nodes, t.kids
	for x != t.root && !t.red(x) {
		if x == kids[parent][left] {
			w := kids[parent][right]
			if nodes[w].red {
				nodes[w].red = false
				nodes[parent].red = true
				t.rotateLeft(parent)
				w = kids[parent][right]
			}
			if !t.red(kids[w][left]) && !t.red(kids[w][right]) {
				nodes[w].red = true
				x = parent
				parent = nodes[x].parent
			} else {
				if !t.red(kids[w][right]) {
					if c := kids[w][left]; c != nilNode {
						nodes[c].red = false
					}
					nodes[w].red = true
					t.rotateRight(w)
					w = kids[parent][right]
				}
				nodes[w].red = nodes[parent].red
				nodes[parent].red = false
				if c := kids[w][right]; c != nilNode {
					nodes[c].red = false
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nilNode
			}
		} else {
			w := kids[parent][left]
			if nodes[w].red {
				nodes[w].red = false
				nodes[parent].red = true
				t.rotateRight(parent)
				w = kids[parent][left]
			}
			if !t.red(kids[w][left]) && !t.red(kids[w][right]) {
				nodes[w].red = true
				x = parent
				parent = nodes[x].parent
			} else {
				if !t.red(kids[w][left]) {
					if c := kids[w][right]; c != nilNode {
						nodes[c].red = false
					}
					nodes[w].red = true
					t.rotateLeft(w)
					w = kids[parent][left]
				}
				nodes[w].red = nodes[parent].red
				nodes[parent].red = false
				if c := kids[w][left]; c != nilNode {
					nodes[c].red = false
				}
				t.rotateRight(parent)
				x = t.root
				parent = nilNode
			}
		}
	}
	if x != nilNode {
		nodes[x].red = false
	}
}

// checkInvariants validates the red-black, ordering and threading
// invariants, returning the black height or -1 on violation. Used by tests
// only.
func (t *tree) checkInvariants() int {
	if t.red(t.root) {
		return -1
	}
	return t.blackHeight(t.root, 0, 1<<63)
}

func (t *tree) blackHeight(i int32, lo, hi uint64) int {
	if i == nilNode {
		return 1
	}
	n := &t.nodes[i]
	l, r := t.kids[i][left], t.kids[i][right]
	if n.pfnLo < lo || n.pfnHi >= hi || n.pfnLo > n.pfnHi {
		return -1
	}
	if n.red && (t.red(l) || t.red(r)) {
		return -1
	}
	bl := t.blackHeight(l, lo, n.pfnLo)
	br := t.blackHeight(r, n.pfnHi+1, hi)
	if bl == -1 || br == -1 || bl != br {
		return -1
	}
	if !n.red {
		bl++
	}
	return bl
}
