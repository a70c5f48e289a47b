package core

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mlq/internal/geom"
	"mlq/internal/journal"
)

func TestPublisherCloseIdempotentObserveTyped(t *testing.T) {
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Observe(geom.Point{0.5, 0.5}, 1); err != nil {
		t.Fatal(err)
	}

	// Concurrent Closes must all return the same answer without panicking
	// (double close of the stop channel was the historical hazard).
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = pub.Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent Close %d returned %v", i, err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("repeat Close returned %v", err)
	}

	if err := pub.Observe(geom.Point{0.5, 0.5}, 2); !errors.Is(err, ErrPublisherClosed) {
		t.Fatalf("Observe after Close: err %v, want ErrPublisherClosed", err)
	}
	if err := pub.Flush(); !errors.Is(err, ErrPublisherClosed) {
		t.Fatalf("Flush after Close: err %v, want ErrPublisherClosed", err)
	}
	// Prediction against the last published snapshot must keep working.
	if _, ok := pub.Predict(geom.Point{0.5, 0.5}); !ok {
		t.Fatal("Predict stopped working after Close")
	}
}

// TestPublisherObserveRacingCloseNeverLosesAck races observers against
// Close: every Observe that returned nil must be in the snapshot Close
// published. An Observe that passed its closed check just before Close, and
// enqueued just after the writer's final drain, would be acknowledged yet
// never applied.
func TestPublisherObserveRacingCloseNeverLosesAck(t *testing.T) {
	const trials, observers, perObserver, closeAfter = 1000, 8, 400, 50
	// Oversubscribe the Ps so the OS can preempt an observer between its
	// closed check and its enqueue, which is where an ack used to be lost.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for trial := 0; trial < trials; trial++ {
		pub, err := NewPublisher(publisherModel(t), PublisherConfig{QueueCapacity: 16, MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		var acks atomic.Int64
		closed := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < observers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perObserver; i++ {
					p := geom.Point{float64(g) / observers, float64(i) / perObserver}
					err := pub.Observe(p, float64(i))
					if errors.Is(err, ErrPublisherClosed) {
						return
					}
					if err != nil {
						t.Errorf("Observe: %v", err)
						return
					}
					if acks.Add(1) == closeAfter {
						close(closed)
					}
				}
			}(g)
		}
		allDone := make(chan struct{})
		go func() { wg.Wait(); close(allDone) }()
		select {
		case <-closed:
		case <-allDone: // every observer failed before closeAfter acks
		}
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
		<-allDone
		st := pub.Stats()
		if st.Submitted != acks.Load() || st.Applied != st.Submitted || pub.Snapshot().Inserts() != st.Applied {
			t.Fatalf("trial %d: %d acks, stats %+v, final snapshot holds %d inserts",
				trial, acks.Load(), st, pub.Snapshot().Inserts())
		}
	}
}

// TestPublisherJournalReplayAfterKill simulates a crash: observations flow
// through a journaled publisher, the process "dies" without Close, the tail
// of the journal is torn, and a fresh model replays what survived. The
// recovered model must be byte-identical to a clean model fed the same
// prefix, and the loss must stay within the documented MaxBatch bound.
func TestPublisherJournalReplayAfterKill(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "observations.mlqj")
	jn, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const n, maxBatch = 137, 16
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{
		MaxBatch: maxBatch, Journal: jn,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	points := make([]geom.Point, n)
	values := make([]float64, n)
	for i := 0; i < n; i++ {
		points[i] = geom.Point{rng.Float64(), rng.Float64()}
		values[i] = rng.Float64() * 50
		if err := pub.Observe(points[i], values[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	// Kill: no Close, no journal Close. Tear the last frame as an unsynced
	// page cache would.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	if err := f.Truncate(info.Size() - 5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered := publisherModel(t)
	applied, truncated, err := ReplayJournal(recovered, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if truncated == 0 {
		t.Fatal("torn tail not reported")
	}
	if lost := n - applied; lost < 1 || lost > maxBatch {
		t.Fatalf("lost %d observations, want 1..%d (at most one batch)", lost, maxBatch)
	}

	clean := publisherModel(t)
	for i := 0; i < applied; i++ {
		if err := clean.Observe(points[i], values[i]); err != nil {
			t.Fatal(err)
		}
	}
	var recBytes, cleanBytes bytesBuffer
	if _, err := recovered.WriteTo(&recBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := clean.WriteTo(&cleanBytes); err != nil {
		t.Fatal(err)
	}
	if !recBytes.Equal(&cleanBytes) {
		t.Fatal("replayed model differs from a clean run over the same prefix")
	}
}

// bytesBuffer is a minimal io.Writer collecting bytes for comparison.
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *bytesBuffer) Equal(o *bytesBuffer) bool   { return string(w.b) == string(o.b) }

func TestPublisherCheckpointTruncatesJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "observations.mlqj")
	jn, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{Journal: jn})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 20; i++ {
		if err := pub.Observe(geom.Point{0.25, 0.75}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if jn.Len() != 0 {
		t.Fatalf("journal holds %d records after Checkpoint, want 0", jn.Len())
	}
	if pub.Staleness() != 0 {
		t.Fatalf("staleness %d after Checkpoint, want 0", pub.Staleness())
	}
	// Post-checkpoint observations land in the (now empty) journal, so a
	// replay only re-applies what the checkpointed snapshot lacks.
	for i := 0; i < 5; i++ {
		if err := pub.Observe(geom.Point{0.25, 0.75}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	if jn.Len() != 5 {
		t.Fatalf("journal holds %d records, want the 5 post-checkpoint ones", jn.Len())
	}
	st := pub.Stats()
	if st.Journaled != 25 || st.JournalErrors != 0 {
		t.Fatalf("stats %+v, want 25 journaled / 0 errors", st)
	}
}

// TestPublisherJournalFullDegradesGracefully proves a journal at capacity
// costs crash-safety, never liveness: Observe keeps succeeding and the
// overflow is counted.
func TestPublisherJournalFullDegradesGracefully(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Create(filepath.Join(dir, "bounded.mlqj"), journal.WithMaxRecords(3))
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	pub, err := NewPublisher(publisherModel(t), PublisherConfig{Journal: jn})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	for i := 0; i < 10; i++ {
		if err := pub.Observe(geom.Point{0.5, 0.5}, float64(i)); err != nil {
			t.Fatalf("Observe %d failed after journal filled: %v", i, err)
		}
	}
	if err := pub.Flush(); err != nil {
		t.Fatal(err)
	}
	st := pub.Stats()
	if st.Journaled != 3 || st.JournalErrors != 7 {
		t.Fatalf("stats %+v, want 3 journaled / 7 journal errors", st)
	}
	if st.Applied != 10 {
		t.Fatalf("applied %d, want all 10 despite the full journal", st.Applied)
	}
}
