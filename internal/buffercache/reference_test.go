package buffercache

import (
	"bytes"
	"container/list"
	"errors"
	"math/rand"
	"testing"

	"mlq/internal/pagestore"
)

// refCache is the cache's bookkeeping as it was first written — a
// container/list of entries plus ID maps for the cached pages and the
// ghost list — kept as the oracle the slot-array implementation must match
// operation for operation. It models the zero retry policy: one physical
// read attempt per miss.
type refCache struct {
	store    *pagestore.Store
	capacity int
	policy   Policy
	order    *list.List // front = most recent (LRU) / newest (FIFO, Clock)
	byID     map[pagestore.PageID]*list.Element
	ghost    *list.List // evicted-page IDs, most recently evicted first
	ghostBy  map[pagestore.PageID]*list.Element

	hits, misses, evictions, faults, ghostHits int64
}

type refEntry struct {
	id   pagestore.PageID
	data []byte
	ref  bool
}

func newRefCache(store *pagestore.Store, capacity int, policy Policy) *refCache {
	return &refCache{
		store: store, capacity: capacity, policy: policy,
		order: list.New(), byID: map[pagestore.PageID]*list.Element{},
		ghost: list.New(), ghostBy: map[pagestore.PageID]*list.Element{},
	}
}

func (c *refCache) Get(id pagestore.PageID) ([]byte, error) {
	if el, ok := c.byID[id]; ok {
		c.hits++
		e := el.Value.(*refEntry)
		switch c.policy {
		case LRU:
			c.order.MoveToFront(el)
		case Clock:
			e.ref = true
		}
		return e.data, nil
	}
	data, err := c.store.Read(id)
	if err != nil {
		c.faults++
		return nil, err
	}
	c.misses++
	if el, ok := c.ghostBy[id]; ok {
		c.ghostHits++
		c.ghost.Remove(el)
		delete(c.ghostBy, id)
	}
	if c.order.Len() >= c.capacity {
		c.evict()
	}
	c.byID[id] = c.order.PushFront(&refEntry{id: id, data: data})
	return data, nil
}

func (c *refCache) evict() {
	c.evictions++
	for {
		back := c.order.Back()
		e := back.Value.(*refEntry)
		if c.policy == Clock && e.ref {
			e.ref = false
			c.order.MoveToFront(back)
			continue
		}
		c.order.Remove(back)
		delete(c.byID, e.id)
		if el, ok := c.ghostBy[e.id]; ok {
			c.ghost.Remove(el)
		}
		c.ghostBy[e.id] = c.ghost.PushFront(e.id)
		c.trimGhost()
		return
	}
}

func (c *refCache) trimGhost() {
	for c.ghost.Len() > c.capacity {
		back := c.ghost.Back()
		c.ghost.Remove(back)
		delete(c.ghostBy, back.Value.(pagestore.PageID))
	}
}

func (c *refCache) Resize(pages int) {
	c.capacity = pages
	for c.order.Len() > c.capacity {
		c.evict()
	}
	c.trimGhost()
}

func (c *refCache) Invalidate() {
	c.order.Init()
	c.byID = map[pagestore.PageID]*list.Element{}
	c.ghost.Init()
	c.ghostBy = map[pagestore.PageID]*list.Element{}
}

// TestMatchesListReference drives the cache and the container/list oracle
// through the same seeded operation sequences — hits, misses, faulted
// reads, capacity changes both ways, invalidation and store growth — and
// requires identical counters, occupancy and returned bytes after every
// operation, under every policy.
func TestMatchesListReference(t *testing.T) {
	errFault := errors.New("injected")
	for _, policy := range []Policy{LRU, FIFO, Clock} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			store := newStore(t, 40)
			c, err := NewWithPolicy(store, 8, policy)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(store, 8, policy)
			for op := 0; op < 4000; op++ {
				var what string
				switch r := rng.Intn(100); {
				case r < 80:
					// A skewed page choice gives both hits and misses;
					// a few IDs land past the store's end.
					id := pagestore.PageID(rng.Intn(1 + rng.Intn(store.NumPages()+2)))
					what = "get"
					got, gotErr := c.Get(id)
					want, wantErr := ref.Get(id)
					if (gotErr != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
						t.Fatalf("%v seed %d op %d: Get(%d) = (%v, %v), reference (%v, %v)", policy, seed, op, id, got, gotErr, want, wantErr)
					}
				case r < 88:
					id := pagestore.PageID(rng.Intn(store.NumPages()))
					what = "faulted get"
					store.SetReadFault(func(pagestore.PageID) error { return errFault })
					_, gotErr := c.Get(id)
					_, wantErr := ref.Get(id)
					store.SetReadFault(nil)
					if (gotErr != nil) != (wantErr != nil) {
						t.Fatalf("%v seed %d op %d: faulted Get(%d) error %v, reference %v", policy, seed, op, id, gotErr, wantErr)
					}
				case r < 94:
					pages := 1 + rng.Intn(16)
					what = "resize"
					if err := c.Resize(pages); err != nil {
						t.Fatal(err)
					}
					ref.Resize(pages)
				case r < 96:
					what = "invalidate"
					c.Invalidate()
					ref.Invalidate()
				default:
					what = "store growth"
					id := store.Alloc()
					if err := store.Write(id, []byte{byte(id), byte(id >> 8)}); err != nil {
						t.Fatal(err)
					}
				}
				got := [...]int64{c.Hits(), c.Misses(), c.Evictions(), c.GhostHits(), c.Faults(), int64(c.Len())}
				want := [...]int64{ref.hits, ref.misses, ref.evictions, ref.ghostHits, ref.faults, int64(ref.order.Len())}
				if got != want {
					t.Fatalf("%v seed %d op %d (%s): hits/misses/evictions/ghost hits/faults/len = %v, reference %v", policy, seed, op, what, got, want)
				}
			}
		}
	}
}
