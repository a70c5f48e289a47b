package textdb

import (
	"math/rand"
	"slices"
	"testing"
)

// The searches as first written, over per-query maps, kept as oracles: the
// dense-scratch versions must return the same documents and charge the
// same CPU and IO.

func (db *DB) oracleSimple(words []int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats, err := db.run(func(stats *ExecStats) error {
		if len(words) == 0 {
			return nil
		}
		counts := make(map[uint32]int)
		for i, w := range words {
			list, err := db.Postings(w, stats)
			if err != nil {
				return err
			}
			seen := make(map[uint32]bool)
			for _, p := range list {
				if !seen[p.Doc] {
					seen[p.Doc] = true
					if counts[p.Doc] == i {
						counts[p.Doc]++
					}
				}
			}
			stats.CPU += float64(len(list))
		}
		for doc, c := range counts {
			if c == len(words) {
				docs = append(docs, doc)
			}
		}
		stats.CPU += float64(len(counts))
		return nil
	})
	return docs, stats, err
}

func (db *DB) oracleThreshold(words []int, minMatch int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats, err := db.run(func(stats *ExecStats) error {
		if minMatch < 1 {
			minMatch = 1
		}
		counts := make(map[uint32]int)
		for _, w := range words {
			list, err := db.Postings(w, stats)
			if err != nil {
				return err
			}
			seen := make(map[uint32]bool)
			for _, p := range list {
				if !seen[p.Doc] {
					seen[p.Doc] = true
					counts[p.Doc]++
				}
			}
			stats.CPU += float64(len(list))
		}
		for doc, c := range counts {
			if c >= minMatch {
				docs = append(docs, doc)
			}
		}
		stats.CPU += float64(len(counts))
		return nil
	})
	return docs, stats, err
}

func (db *DB) oracleProximity(words []int, window int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats, err := db.run(func(stats *ExecStats) error {
		if len(words) == 0 {
			return nil
		}
		if window < 1 {
			window = 1
		}
		positions := make(map[uint32][][]uint32)
		for i, w := range words {
			list, err := db.Postings(w, stats)
			if err != nil {
				return err
			}
			for _, p := range list {
				slot, ok := positions[p.Doc]
				if !ok {
					slot = make([][]uint32, len(words))
					positions[p.Doc] = slot
				}
				slot[i] = append(slot[i], p.Pos)
			}
			stats.CPU += float64(len(list))
		}
	candidates:
		for doc, slot := range positions {
			for _, ps := range slot {
				if len(ps) == 0 {
					continue candidates
				}
			}
			spans := make([][]Posting, len(slot))
			for i, ps := range slot {
				for _, pos := range ps {
					spans[i] = append(spans[i], Posting{Doc: doc, Pos: pos})
				}
			}
			ok, work := minSpanWithin(spans, uint32(window))
			stats.CPU += work
			if ok {
				docs = append(docs, doc)
			}
		}
		return nil
	})
	return docs, stats, err
}

// TestSearchesMatchMapOracles runs seeded queries through each search and
// its map-based oracle on two identically generated databases, so the two
// buffer caches see the same page sequence: the sorted document sets and
// the CPU and IO charges must agree query by query, and the dense searches
// must already return their documents in ascending order.
func TestSearchesMatchMapOracles(t *testing.T) {
	cfg := Config{NumDocs: 400, VocabSize: 150, MeanDocLen: 50, PageSize: 256, CachePages: 12, Seed: 3}
	db, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 600; q++ {
		// Low ranks have long lists; repeats exercise duplicate words.
		words := make([]int, 1+rng.Intn(5))
		for i := range words {
			words[i] = rng.Intn(1 + rng.Intn(cfg.VocabSize))
		}
		arg := 1 + rng.Intn(40)
		var got, want []uint32
		var gs, ws ExecStats
		var name string
		switch q % 3 {
		case 0:
			name = "simple"
			got, gs, err = db.SearchSimple(words)
			if err == nil {
				want, ws, err = ref.oracleSimple(words)
			}
		case 1:
			name = "threshold"
			arg = arg%len(words) + 1
			got, gs, err = db.SearchThreshold(words, arg)
			if err == nil {
				want, ws, err = ref.oracleThreshold(words, arg)
			}
		default:
			name = "proximity"
			got, gs, err = db.SearchProximity(words, arg)
			if err == nil {
				want, ws, err = ref.oracleProximity(words, arg)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if !slices.IsSorted(got) {
			t.Fatalf("query %d %s%v: docs not in ascending order", q, name, words)
		}
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d %s%v arg %d: docs %v, oracle %v", q, name, words, arg, got, want)
		}
		if gs.CPU != ws.CPU || gs.IO != ws.IO {
			t.Fatalf("query %d %s%v arg %d: CPU/IO %v/%v, oracle %v/%v", q, name, words, arg, gs.CPU, gs.IO, ws.CPU, ws.IO)
		}
	}
}

// TestPostingListsSortedByDocThenPos pins the invariant the searches rely
// on: every posting list is in (doc, pos) order, so a document's postings
// form one contiguous run in position order.
func TestPostingListsSortedByDocThenPos(t *testing.T) {
	db := smallDB(t)
	for w := 0; w < db.VocabSize(); w++ {
		var stats ExecStats
		list, err := db.Postings(w, &stats)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(list); i++ {
			a, b := list[i-1], list[i]
			if a.Doc > b.Doc || (a.Doc == b.Doc && a.Pos >= b.Pos) {
				t.Fatalf("word %d: posting %d %+v follows %+v", w, i, b, a)
			}
		}
	}
}
