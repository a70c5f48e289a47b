package quadtree

import "time"

// heapItem pairs a leaf candidate with its (fixed) SSEG key. SSEG values do
// not change while compression runs — removing a leaf leaves every other
// node's summary, and therefore every other SSEG, untouched — so keys are
// computed once at push time.
type heapItem struct {
	ref  int32
	sseg float64
}

// leafHeap is a min-heap of removal candidates ordered by SSEG. It is
// container/heap's algorithm written out for this one element type, with
// the same comparisons and swaps in the same order, so victims pop in
// exactly the order (ties included) the generic heap produced — without
// boxing every element in an interface.
type leafHeap []heapItem

func (h leafHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *leafHeap) push(it heapItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *leafHeap) pop() heapItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

func (h leafHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].sseg < h[i].sseg) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h leafHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].sseg < h[j1].sseg {
			j = j2 // right child
		}
		if !(h[j].sseg < h[i].sseg) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// maxRetainedVictims bounds the victim heap a tree keeps between passes:
// 1024 entries (16 KB) covers budgets up to about 20 KB, ten times the
// paper's 1843 B, whose trees compress every few inserts. Reusing the heap
// there makes a warm model compress without allocating. A bigger tree walks
// O(nodes) per pass anyway, so it allocates its heap afresh each pass
// rather than carry 16 bytes per leaf in its steady-state footprint.
const maxRetainedVictims = 1024

// victimKey returns leaf n's ordering key for compression victims under the
// configured policy: SSEG (the paper's), point count, or a deterministic
// pseudo-random key drawn from the pass's keySeq stream (for ablations —
// see harness.Ablate("policy", ...)).
func (t *Tree) victimKey(n int32) float64 {
	switch t.cfg.Policy {
	case CompressCount:
		return float64(t.a.nodes[n].count)
	case CompressRandom:
		t.keySeq = t.keySeq*6364136223846793005 + 1442695040888963407
		return float64(t.keySeq >> 11)
	default:
		return t.a.sseg(n)
	}
}

// collectVictims fills the victim heap's array (not yet heap-ordered)
// with every non-root leaf, in the order a depth-first walk visiting
// children in creation order meets them — the order the pointer-linked
// implementation's recursive collection produced, which the heap layout,
// tie-breaking and the CompressRandom key stream all depend on.
//
// The walk is computed without recursion or sorting, in three passes over
// the arena, using each slot's fwd field as scratch. Slot order is
// creation order and every parent precedes its children, so:
//
//  1. in reverse slot order, each node's leaf count is final when it is
//     reached and can be added into its parent's;
//  2. in slot order, a node's children are met in creation order, so a
//     per-parent cursor hands each child the walk position of its first
//     leaf — the parent's position plus the leaves of earlier siblings;
//  3. keys are drawn in walk order, as the recursive walk drew them.
//
// Every slot is live here: compression compacts at the end of each pass.
func (t *Tree) collectVictims() {
	nodes := t.a.nodes
	for i := range nodes {
		nodes[i].fwd = 0
	}
	for i := len(nodes) - 1; i > 0; i-- {
		nd := &nodes[i]
		if nd.kidLen == 0 {
			nd.fwd = 1
		}
		nodes[nd.parent].fwd += nd.fwd
	}
	leaves := int(nodes[0].fwd)
	if cap(t.victims) < leaves {
		t.victims = make(leafHeap, leaves, t.nodeCount) // plus one push per pop
	}
	t.victims = t.victims[:leaves]
	nodes[0].fwd = 0 // the root's cursor: its first leaf opens the walk
	for i := 1; i < len(nodes); i++ {
		nd := &nodes[i]
		count := nd.fwd
		nd.fwd = nodes[nd.parent].fwd
		nodes[nd.parent].fwd += count
		if nd.kidLen == 0 {
			t.victims[nd.fwd].ref = int32(i)
		}
	}
	for j := range t.victims {
		t.victims[j].sseg = t.victimKey(t.victims[j].ref)
	}
}

// Compress runs one compression pass immediately, regardless of current
// memory use. Insert calls this automatically when the memory limit is
// exceeded; exposing it lets callers shrink a model ahead of a known burst.
func (t *Tree) Compress() { t.compress() }

// compress implements the algorithm of Fig. 6. It removes leaves in
// ascending SSEG order — the nodes with the fewest points and the averages
// closest to their parents' — until at least γ of the allocated memory has
// been freed and usage is back under the limit. Parents that become leaves
// join the candidate queue, making the pass incremental bottom-up.
//
// Summaries of surviving nodes are untouched: every ancestor already counts
// the removed leaf's points, so predictions simply fall back to coarser
// resolutions (the minimal increase in TSSENC the SSEG ordering guarantees).
//
// Victims are collected depth-first with children visited in creation
// order — the same enumeration the pointer-linked implementation's child
// slices produced — so heap layout, tie-breaking and the stateful random
// policy's key assignment are all preserved bit-for-bit. The pass ends with
// a stable arena compaction, which keeps slot order equal to creation order
// for the next pass.
func (t *Tree) compress() {
	//lint:ignore detertime stopwatch feeding APC/AUC accounting; the duration is never consulted by any decision
	start := time.Now()
	defer func() {
		d := time.Since(start)
		t.compressTime += d
		t.compressions++
		if t.cfg.Strategy == Lazy {
			// Re-snapshot th_SSE = α·SSE(root) (Eq. 7). Before the
			// first compression the threshold is zero, so lazy
			// behaves eagerly until memory first fills up.
			t.thSSE = t.cfg.Alpha * t.a.sse(0)
		}
		if t.tel != nil {
			t.tel.compressDone(t, d)
		}
	}()

	t.keySeq = uint64(t.compressions)*2654435761 + 1
	t.collectVictims()
	h := &t.victims
	h.init()
	t.ssegQueueDepth = len(*h)

	needFree := int(t.cfg.Gamma * float64(t.cfg.MemoryLimit))
	if needFree < t.cfg.NodeBytes {
		needFree = t.cfg.NodeBytes // always make progress
	}
	freed := 0
	for len(*h) > 0 {
		if freed >= needFree && t.MemoryUsed() <= t.cfg.MemoryLimit {
			break
		}
		it := h.pop()
		leaf := it.ref
		parent := t.a.nodes[leaf].parent
		// Unlink. The parent's span holds the only reference to the leaf.
		for _, c := range t.a.span(parent) {
			if c.ref == leaf {
				t.a.removeChild(parent, c.idx)
				break
			}
		}
		t.a.nodes[leaf].parent = deadParent
		t.nodeCount--
		t.removedNodes++
		freed += t.cfg.NodeBytes
		if parent != 0 && t.a.isLeaf(parent) {
			h.push(heapItem{ref: parent, sseg: t.victimKey(parent)})
		}
	}

	// Stable compaction: squeeze the dead slots out of the arena, so slot
	// order keeps equalling creation order. The kids garbage the removals
	// left follows the arena's one reclamation rule.
	t.a.compactNodes()
	t.a.compactKidsIfSparse()
	if cap(t.victims) > maxRetainedVictims {
		t.victims = nil
	}
}
