// Package textdb is a miniature keyword-search engine: a synthetic corpus
// with a Zipfian vocabulary, a positional inverted index serialized onto
// disk pages, and the paper's three keyword-based text-search UDFs (simple,
// threshold, proximity) executed through an LRU buffer cache.
//
// It substitutes for the paper's Oracle Text UDFs over the Reuters corpus:
// the cost model only ever sees (model variables -> execution cost), and a
// Zipfian corpus produces the same qualitative cost surface — cost grows
// with posting-list sizes and keyword count, nonlinearly and with skew.
// See DESIGN.md §3.
package textdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"mlq/internal/buffercache"
	"mlq/internal/dist"
	"mlq/internal/pagestore"
)

// Posting is one occurrence of a word: the document and the word position
// within it. A word's posting list is sorted by (Doc, Pos) — Generate emits
// documents in order and each document's words in order — so a document's
// occurrences form one contiguous run. The searches rely on that: a run
// is deduplicated by comparing neighbours, and proximity search merges the
// lists by document with one cursor per word.
type Posting struct {
	Doc uint32
	Pos uint32
}

const postingBytes = 8

// Config parameterizes corpus generation. Zero fields take defaults chosen
// to give posting lists spanning one to hundreds of pages.
type Config struct {
	// NumDocs is the corpus size. Default 4000.
	NumDocs int
	// VocabSize is the number of distinct words. Default 1500.
	VocabSize int
	// MeanDocLen is the average words per document. Default 120.
	MeanDocLen int
	// ZipfS is the word-frequency Zipf exponent. Default 1.
	ZipfS float64
	// PageSize is the disk page size. Default pagestore.DefaultPageSize.
	PageSize int
	// CachePages is the buffer-cache capacity. Default 64.
	CachePages int
	// CachePolicy is the buffer-cache replacement policy (default LRU).
	// The policy shapes the disk-IO cost noise of Experiment 3.
	CachePolicy buffercache.Policy
	// Seed drives corpus generation.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NumDocs == 0 {
		c.NumDocs = 4000
	}
	if c.VocabSize == 0 {
		c.VocabSize = 1500
	}
	if c.MeanDocLen == 0 {
		c.MeanDocLen = 120
	}
	//lint:ignore floatguard exact zero is the documented unset-field sentinel
	if c.ZipfS == 0 {
		c.ZipfS = 1
	}
	if c.CachePages == 0 {
		c.CachePages = 64
	}
	return c
}

// wordMeta is the per-word catalog entry: document frequency and the pages
// holding the word's posting list.
type wordMeta struct {
	df       int32 // documents containing the word
	postings int32 // total occurrences
	pages    []pagestore.PageID
}

// DB is a loaded text database: corpus statistics plus the on-page inverted
// index, read through a buffer cache. It is not safe for concurrent use: the
// buffer cache and the per-query scratch below belong to one caller at a
// time.
type DB struct {
	cfg    Config
	store  *pagestore.Store
	cache  *buffercache.Cache
	words  []wordMeta
	nDocs  int
	maxLen int // longest posting list, for sizing model spaces

	// Per-query scratch for the counting searches, indexed by document:
	// counts[d] is valid only while stamp[d] == epoch, so starting a query
	// is one increment, not a clear. touched lists the documents stamped by
	// the running query, in first-touch order.
	counts  []int32
	stamp   []uint32
	epoch   uint32
	touched []uint32
}

// ExecStats reports one UDF execution's measured costs.
type ExecStats struct {
	// CPU is the work-unit count: postings decoded plus per-candidate
	// evaluation work. Deterministic for a given query and corpus.
	CPU float64
	// IO is the modeled IO cost: physical page reads (buffer-cache misses)
	// plus any retry/slow-disk latency the cache charged, in clean-read
	// equivalents. Depends on cache state, hence noisy across repetitions;
	// equals the plain miss count on a healthy disk.
	IO float64
	// Wall is the real execution time.
	Wall time.Duration
}

// Generate builds a corpus, writes its inverted index to simulated disk, and
// returns the ready-to-query database.
func Generate(cfg Config) (*DB, error) {
	cfg = cfg.withDefaults()
	if cfg.NumDocs < 1 || cfg.VocabSize < 1 || cfg.MeanDocLen < 1 {
		return nil, fmt.Errorf("textdb: NumDocs, VocabSize, MeanDocLen must be >= 1")
	}
	store, err := pagestore.New(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	cache, err := buffercache.NewWithPolicy(store, cfg.CachePages, cfg.CachePolicy)
	if err != nil {
		return nil, err
	}
	zipf, err := dist.NewZipf(cfg.VocabSize, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Step 1: synthesize documents, accumulating postings per word.
	lists := make([][]Posting, cfg.VocabSize)
	dfSeen := make([]uint32, cfg.VocabSize) // last doc counted, +1
	db := &DB{
		cfg: cfg, store: store, cache: cache, nDocs: cfg.NumDocs,
		counts: make([]int32, cfg.NumDocs),
		stamp:  make([]uint32, cfg.NumDocs),
	}
	db.words = make([]wordMeta, cfg.VocabSize)
	for doc := 0; doc < cfg.NumDocs; doc++ {
		length := cfg.MeanDocLen/2 + rng.Intn(cfg.MeanDocLen)
		for pos := 0; pos < length; pos++ {
			w := zipf.Sample(rng) - 1 // word IDs are 0-based ranks
			lists[w] = append(lists[w], Posting{Doc: uint32(doc), Pos: uint32(pos)})
			if dfSeen[w] != uint32(doc)+1 {
				dfSeen[w] = uint32(doc) + 1
				db.words[w].df++
			}
		}
	}

	// Step 2: serialize each posting list onto pages.
	perPage := store.PageSize() / postingBytes
	buf := make([]byte, store.PageSize())
	for w, list := range lists {
		db.words[w].postings = int32(len(list))
		if len(list) > db.maxLen {
			db.maxLen = len(list)
		}
		for start := 0; start < len(list); start += perPage {
			end := start + perPage
			if end > len(list) {
				end = len(list)
			}
			for i, p := range list[start:end] {
				binary.LittleEndian.PutUint32(buf[i*postingBytes:], p.Doc)
				binary.LittleEndian.PutUint32(buf[i*postingBytes+4:], p.Pos)
			}
			id := store.Alloc()
			if err := store.Write(id, buf[:(end-start)*postingBytes]); err != nil {
				return nil, err
			}
			db.words[w].pages = append(db.words[w].pages, id)
		}
	}
	return db, nil
}

// NumDocs returns the corpus size.
func (db *DB) NumDocs() int { return db.nDocs }

// VocabSize returns the number of distinct words.
func (db *DB) VocabSize() int { return len(db.words) }

// DocFreq returns how many documents contain word w.
func (db *DB) DocFreq(w int) int {
	if w < 0 || w >= len(db.words) {
		return 0
	}
	return int(db.words[w].df)
}

// Postings returns word w's full posting list, read through the buffer
// cache, charging stats for the pages touched and postings decoded.
func (db *DB) Postings(w int, stats *ExecStats) ([]Posting, error) {
	if w < 0 || w >= len(db.words) {
		return nil, fmt.Errorf("textdb: word %d out of range [0, %d)", w, len(db.words))
	}
	meta := &db.words[w]
	out := make([]Posting, 0, meta.postings)
	remaining := int(meta.postings)
	perPage := db.store.PageSize() / postingBytes
	for _, id := range meta.pages {
		page, err := db.cache.Get(id)
		if err != nil {
			return nil, err
		}
		n := perPage
		if remaining < n {
			n = remaining
		}
		for i := 0; i < n; i++ {
			out = append(out, Posting{
				Doc: binary.LittleEndian.Uint32(page[i*postingBytes:]),
				Pos: binary.LittleEndian.Uint32(page[i*postingBytes+4:]),
			})
		}
		remaining -= n
	}
	stats.CPU += float64(len(out))
	return out, nil
}

// Cache exposes the buffer cache (for experiment setup, e.g. invalidation).
func (db *DB) Cache() *buffercache.Cache { return db.cache }

// Store exposes the underlying page store.
func (db *DB) Store() *pagestore.Store { return db.store }

// run wraps a search body with IO metering and wall-clock timing.
func (db *DB) run(body func(stats *ExecStats) error) (ExecStats, error) {
	var stats ExecStats
	meter := db.cache.NewMeter()
	start := time.Now()
	err := body(&stats)
	stats.Wall = time.Since(start)
	stats.IO = meter.Cost()
	return stats, err
}

// newQuery starts a fresh count set: every document is untouched again.
func (db *DB) newQuery() {
	db.epoch++
	if db.epoch == 0 { // wrapped: stale stamps could collide, so clear
		clear(db.stamp)
		db.epoch = 1
	}
	db.touched = db.touched[:0]
}

// touch stamps doc for the running query with a zero count, unless it is
// already stamped.
func (db *DB) touch(doc uint32) {
	if db.stamp[doc] != db.epoch {
		db.stamp[doc] = db.epoch
		db.counts[doc] = 0
		db.touched = append(db.touched, doc)
	}
}

// SearchSimple returns the documents containing every one of the given
// words (the paper's "simple" keyword search UDF), in ascending ID order.
func (db *DB) SearchSimple(words []int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats, err := db.run(func(stats *ExecStats) error {
		if len(words) == 0 {
			return nil
		}
		db.newQuery()
		for i, w := range words {
			list, err := db.Postings(w, stats)
			if err != nil {
				return err
			}
			prev := int64(-1)
			for _, p := range list {
				if int64(p.Doc) == prev {
					continue // the rest of the doc's run
				}
				prev = int64(p.Doc)
				// Only the first word's documents can survive, so only
				// they are counted (and charged below).
				if i == 0 {
					db.touch(p.Doc)
				} else if db.stamp[p.Doc] != db.epoch {
					continue
				}
				if db.counts[p.Doc] == int32(i) { // survived all previous words
					db.counts[p.Doc]++
				}
			}
			stats.CPU += float64(len(list))
		}
		// touched is in the first word's posting order: ascending.
		for _, doc := range db.touched {
			if db.counts[doc] == int32(len(words)) {
				docs = append(docs, doc)
			}
		}
		stats.CPU += float64(len(db.touched))
		return nil
	})
	return docs, stats, err
}

// SearchThreshold returns the documents containing at least minMatch of the
// given words (the paper's "threshold" search UDF), in ascending ID order.
func (db *DB) SearchThreshold(words []int, minMatch int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats, err := db.run(func(stats *ExecStats) error {
		if minMatch < 1 {
			minMatch = 1
		}
		db.newQuery()
		for _, w := range words {
			list, err := db.Postings(w, stats)
			if err != nil {
				return err
			}
			prev := int64(-1)
			for _, p := range list {
				if int64(p.Doc) == prev {
					continue // the rest of the doc's run
				}
				prev = int64(p.Doc)
				db.touch(p.Doc)
				db.counts[p.Doc]++
			}
			stats.CPU += float64(len(list))
		}
		for _, doc := range db.touched {
			if db.counts[doc] >= int32(minMatch) {
				docs = append(docs, doc)
			}
		}
		slices.Sort(docs)
		stats.CPU += float64(len(db.touched))
		return nil
	})
	return docs, stats, err
}

// SearchProximity returns the documents in which all given words occur
// within a window of the given width (inclusive span of positions; the
// paper's "proximity" search UDF), in ascending ID order.
func (db *DB) SearchProximity(words []int, window int) ([]uint32, ExecStats, error) {
	var docs []uint32
	stats, err := db.run(func(stats *ExecStats) error {
		if len(words) == 0 {
			return nil
		}
		if window < 1 {
			window = 1
		}
		lists := make([][]Posting, len(words))
		for i, w := range words {
			list, err := db.Postings(w, stats)
			if err != nil {
				return err
			}
			lists[i] = list
			stats.CPU += float64(len(list))
		}
		// Merge the lists by document, one cursor per word. A document
		// is a candidate when every list holds it; its positions are then
		// one run per list (spans[i]), already in position order.
		cur := make([]int, len(lists))
		spans := make([][]Posting, len(lists))
		for {
			var doc uint32 // the largest head: no smaller doc is in every list
			for i, l := range lists {
				if cur[i] == len(l) {
					return nil
				}
				doc = max(doc, l[cur[i]].Doc)
			}
			all := true
			for i, l := range lists {
				c := cur[i]
				for c < len(l) && l[c].Doc < doc {
					c++
				}
				cur[i] = c
				if c == len(l) {
					return nil
				}
				all = all && l[c].Doc == doc
			}
			if !all {
				continue
			}
			for i, l := range lists {
				end := cur[i]
				for end < len(l) && l[end].Doc == doc {
					end++
				}
				spans[i], cur[i] = l[cur[i]:end], end
			}
			ok, work := minSpanWithin(spans, uint32(window))
			stats.CPU += work
			if ok {
				docs = append(docs, doc)
			}
		}
	})
	return docs, stats, err
}

// minSpanWithin reports whether some choice of one position per word fits in
// a span <= window, using the classic k-way min-span sweep over each word's
// position-ordered postings in one document. It also returns the number of
// comparisons performed, charged as CPU work.
func minSpanWithin(slot [][]Posting, window uint32) (bool, float64) {
	var idxBuf [8]int // one cursor per word, on the stack for short queries
	idx := idxBuf[:]
	if len(slot) > len(idx) {
		idx = make([]int, len(slot))
	}
	idx = idx[:len(slot)]
	var work float64
	for {
		lo, hi := uint32(1<<31), uint32(0)
		loWord := 0
		for w, ps := range slot {
			p := ps[idx[w]].Pos
			if p < lo {
				lo, loWord = p, w
			}
			if p > hi {
				hi = p
			}
			work++
		}
		if hi-lo+1 <= window {
			return true, work
		}
		idx[loWord]++
		if idx[loWord] >= len(slot[loWord]) {
			return false, work
		}
	}
}
