package quadtree

import "math"

// The tree's nodes live in a flat arena: a single []node slice addressed by
// int32 slot, with every node's children held as a contiguous span of a
// shared []kidRef slice. The layout replaces the seed implementation's
// pointer-linked nodes (parent pointer + per-node child slice) and buys
// three things at once:
//
//   - the hot Predict descent walks two flat slices instead of chasing heap
//     pointers, and finds children by binary search over a span sorted by
//     quadrant index instead of a linear scan;
//   - per-node Go memory shrinks from ~56 bytes + a 16-byte child entry +
//     one heap allocation per node to a 40-byte slot + an 8-byte child
//     entry, all in two allocations per tree (the slot's last four bytes,
//     alignment padding otherwise, are the compression pass's scratch);
//   - the whole tree is trivially copyable — Snapshot and Clone are a
//     handful of slice copies — which is what makes the lock-free
//     epoch/snapshot read path in core affordable.
//
// Two orderings coexist deliberately. Spans are *stored* sorted by quadrant
// index so lookups can binary-search. Everything that *enumerates* children
// — serialization, compression victim collection, SSENC sums, Walk — visits
// them in creation order (ascending slot, see creationOrder), which is
// exactly the order the seed implementation's append-built child slices
// had. That equivalence is what keeps catalog frames byte-identical and
// every experiment figure bit-identical across the refactor: compression
// tie-breaking and the ablation policies' victim keys depend on collection
// order, and float summation order is observable in the last ULP.
//
// Slot allocation is append-only between compression passes, so ascending
// slot number is ascending creation time; the stable compaction at the end
// of each pass (see compress) preserves relative order, keeping the
// invariant across the tree's whole lifetime.
//
// The kids slice is compacted lazily, under one rule (compactKidsIfSparse):
// only once dead entries outnumber live ones. Garbage entries are never
// read — every walk goes through a live node's span — so leaving them in
// place between compactions changes no output.

// noParent marks the root's parent slot.
const noParent = int32(-1)

// deadParent marks a node slot removed by the current compression pass and
// awaiting compaction. No slot carries it outside compress.
const deadParent = int32(-2)

// kidRef is one child entry: the quadrant index and the child's arena slot.
type kidRef struct {
	idx uint32
	ref int32
}

// node holds the summary information of one block (§4.1): the sum, count and
// sum of squares of the values of every data point that maps into the block
// (including points also counted by its descendants), plus the arena links.
type node struct {
	sum    float64
	ss     float64
	count  int64
	parent int32
	kidOff int32
	kidLen int32
	fwd    int32 // compression scratch: walk positions, then post-compaction index
}

// arena is the flat node store. nodes[0] is always the root.
type arena struct {
	nodes []node
	kids  []kidRef

	// kidGarbage counts dead kidRef entries (spans abandoned by relocation
	// or shrunk by removal); compactKids reclaims them.
	kidGarbage int
}

// span returns n's child entries, sorted by quadrant index.
func (a *arena) span(n int32) []kidRef {
	nd := &a.nodes[n]
	return a.kids[nd.kidOff : nd.kidOff+nd.kidLen : nd.kidOff+nd.kidLen]
}

// child returns the slot of n's child with the given quadrant index, or -1.
// The span is sorted by index, so the lookup is a binary search.
func (a *arena) child(n int32, idx uint32) int32 {
	nd := &a.nodes[n]
	lo, hi := nd.kidOff, nd.kidOff+nd.kidLen
	for lo < hi {
		mid := (lo + hi) >> 1
		if a.kids[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < nd.kidOff+nd.kidLen && a.kids[lo].idx == idx {
		return a.kids[lo].ref
	}
	return -1
}

// isLeaf reports whether the slot has no children.
func (a *arena) isLeaf(n int32) bool { return a.nodes[n].kidLen == 0 }

// addChild allocates a fresh slot for a new child of parent and links it
// into the parent's span at its sorted position. Allocation is append-only:
// the new slot is len(nodes), so slot order is creation order.
func (a *arena) addChild(parent int32, idx uint32) int32 {
	ref := int32(len(a.nodes))
	a.nodes = append(a.nodes, node{parent: parent})

	nd := &a.nodes[parent]
	// Sorted insertion position within the span.
	lo, hi := nd.kidOff, nd.kidOff+nd.kidLen
	for lo < hi {
		mid := (lo + hi) >> 1
		if a.kids[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	pos := lo
	if nd.kidOff+nd.kidLen == int32(len(a.kids)) {
		// The span sits at the tail of the kids slice: grow it in place.
		a.kids = append(a.kids, kidRef{})
		copy(a.kids[pos+1:], a.kids[pos:nd.kidOff+nd.kidLen])
		a.kids[pos] = kidRef{idx: idx, ref: ref}
		nd.kidLen++
		return ref
	}
	// Relocate the span to the tail with the new entry spliced in; the old
	// region becomes garbage until the next compaction.
	newOff := int32(len(a.kids))
	a.kids = append(a.kids, a.kids[nd.kidOff:pos]...)
	a.kids = append(a.kids, kidRef{idx: idx, ref: ref})
	a.kids = append(a.kids, a.kids[pos:nd.kidOff+nd.kidLen]...)
	a.kidGarbage += int(nd.kidLen)
	nd.kidOff = newOff
	nd.kidLen++
	return ref
}

// removeChild unlinks the child with the given quadrant index from n's
// span. The vacated tail slot of the span becomes garbage.
func (a *arena) removeChild(n int32, idx uint32) {
	nd := &a.nodes[n]
	lo, hi := nd.kidOff, nd.kidOff+nd.kidLen
	for lo < hi {
		mid := (lo + hi) >> 1
		if a.kids[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= nd.kidOff+nd.kidLen || a.kids[lo].idx != idx {
		return
	}
	copy(a.kids[lo:], a.kids[lo+1:nd.kidOff+nd.kidLen])
	nd.kidLen--
	a.kidGarbage++
}

// creationOrder appends n's child entries to buf in creation (ascending
// slot) order and returns the extended buffer. Spans are tiny (at most 2^d
// live entries, typically well under 16), so an insertion sort is both
// allocation-free and faster than sort.Slice.
func (a *arena) creationOrder(n int32, buf []kidRef) []kidRef {
	base := len(buf)
	buf = append(buf, a.span(n)...)
	ord := buf[base:]
	for i := 1; i < len(ord); i++ {
		e := ord[i]
		j := i
		for j > 0 && ord[j-1].ref > e.ref {
			ord[j] = ord[j-1]
			j--
		}
		ord[j] = e
	}
	return buf
}

// packKids returns a garbage-free copy of the kids the given nodes' spans
// reference, rewriting each node's kidOff to its span's new position. Spans
// are laid out in node-slot order, each still contiguous and index-sorted.
// Every slot must be live: it runs outside compression or after
// compactNodes.
func packKids(nodes []node, kids []kidRef, garbage int) []kidRef {
	fresh := make([]kidRef, 0, len(kids)-garbage)
	for i := range nodes {
		nd := &nodes[i]
		off := int32(len(fresh))
		fresh = append(fresh, kids[nd.kidOff:nd.kidOff+nd.kidLen]...)
		nd.kidOff = off
	}
	return fresh
}

// compactKids rewrites the kids slice without garbage.
func (a *arena) compactKids() {
	if a.kidGarbage == 0 {
		return
	}
	a.kids = packKids(a.nodes, a.kids, a.kidGarbage)
	a.kidGarbage = 0
}

// compactKidsIfSparse is the one rule for reclaiming kids garbage (span
// relocations and removals leave holes): compact once dead entries
// outnumber live ones, and there are enough of them to be worth a copy.
// The copy is amortized over at least as many garbage-producing updates
// as it moves entries.
func (a *arena) compactKidsIfSparse() {
	if a.kidGarbage > len(a.kids)/2 && a.kidGarbage > 64 {
		a.compactKids()
	}
}

// compactNodes squeezes dead slots out of the node slice, remapping parents
// and child refs. The compaction is stable — surviving slots keep their
// relative order — which preserves the slot-order-is-creation-order
// invariant creationOrder depends on. The remap goes through each slot's
// fwd field, filled before anything moves, so it needs no scratch array.
// It returns the number of live slots.
func (a *arena) compactNodes() int {
	nodes := a.nodes
	live, firstDead := int32(0), len(nodes)
	for i := range nodes {
		if nodes[i].parent == deadParent {
			nodes[i].fwd = -1
			firstDead = min(firstDead, i)
			continue
		}
		nodes[i].fwd = live
		live++
	}
	if int(live) == len(nodes) {
		return int(live)
	}
	// Live spans reference only live slots (compression unlinks a leaf
	// before killing it), and garbage kids entries are never read, so
	// remapping the live spans remaps every reference that matters.
	for i := range nodes {
		nd := &nodes[i]
		if nd.parent == deadParent {
			continue
		}
		if nd.parent >= 0 {
			nd.parent = nodes[nd.parent].fwd
		}
		span := a.kids[nd.kidOff : nd.kidOff+nd.kidLen]
		for k := range span {
			span[k].ref = nodes[span[k].ref].fwd
		}
	}
	for i := firstDead + 1; i < len(nodes); i++ { // slots before firstDead stay put
		if f := nodes[i].fwd; f >= 0 {
			nodes[f] = nodes[i]
		}
	}
	a.nodes = nodes[:live]
	return int(live)
}

// clone returns an independent copy of the arena — two slice copies. This
// is the whole snapshot cost of the epoch-publishing read path. The copy's
// kids slice is packed, so snapshots carry no garbage.
func (a *arena) clone() arena {
	nodes := make([]node, len(a.nodes))
	copy(nodes, a.nodes)
	return arena{nodes: nodes, kids: packKids(nodes, a.kids, a.kidGarbage)}
}

// --- summary math (Eq. 3, 4, 9) ---

// avg returns S(b)/C(b) (Eq. 3), or 0 for an empty block.
func (a *arena) avg(n int32) float64 {
	nd := &a.nodes[n]
	if nd.count == 0 {
		return 0
	}
	return nd.sum / float64(nd.count)
}

// sse returns SSE(b) = SS(b) − C(b)·AVG(b)² (Eq. 4), clamped at zero
// against floating-point cancellation.
func (a *arena) sse(n int32) float64 {
	nd := &a.nodes[n]
	if nd.count == 0 {
		return 0
	}
	v := nd.ss - nd.sum*nd.sum/float64(nd.count)
	if v < 0 {
		return 0
	}
	return v
}

// sseg returns SSEG(b) = C(b)·(AVG(p) − AVG(b))² (Eq. 9), the increase in
// TSSENC caused by removing b. The root has no parent and is never removed.
func (a *arena) sseg(n int32) float64 {
	nd := &a.nodes[n]
	if nd.parent == noParent {
		return math.Inf(1)
	}
	d := a.avg(nd.parent) - a.avg(n)
	return float64(nd.count) * d * d
}

// add folds one observation into the slot's summary.
func (a *arena) add(n int32, v float64) {
	nd := &a.nodes[n]
	nd.sum += v
	nd.ss += v * v
	nd.count++
}
