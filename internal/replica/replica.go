// Package replica turns the single-process feedback loop into a replicated
// primary/follower fleet. The primary is a core.Publisher with its
// crash-safety journal; every observation it accepts is streamed — in the
// exact order the journal records it — over a pluggable in-process transport
// to N followers, which fold it into their own copy of the model through the
// same Observe path ReplayJournal uses. Followers serve lock-free Predict
// reads from immutable snapshots with bounded, observable staleness.
//
// Failover is deterministic and clock-free: there are no heartbeats or
// election timeouts, only monotonic term numbers acting as fencing tokens.
// A demoted primary's writes are rejected with ErrFencedTerm; promotion
// picks the most-caught-up follower; a rejoining stale replica rebuilds from
// the last durable catalog checkpoint plus the primary's journal suffix
// before it serves again. Because the primary applies observations in accept
// order and followers apply the identical sequence, every replica's model
// converges to byte-identical serialization — the chaos experiment
// (mlqbench -exp chaosrepl) asserts exactly that across kills, partitions,
// drops, duplicates and reorders.
package replica

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mlq/internal/core"
	"mlq/internal/events"
	"mlq/internal/geom"
	"mlq/internal/quadtree"
)

// Record is one replicated observation: the model point and observed cost,
// stamped with the group-wide sequence number and the term of the lineage
// that accepted it. Cause and MintNS carry the observation's identity on
// the causal event spine across the wire, so a follower's recv/apply hops
// land on the same trace the primary started; both are zero when no
// recorder is installed and for records recovered via journal catch-up
// (the journal's on-disk format does not carry them).
type Record struct {
	Seq    uint64
	Term   uint64
	Point  geom.Point
	Value  float64
	Cause  uint64
	MintNS int64
}

// Typed replication errors.
var (
	// ErrFencedTerm reports a write through a handle whose term has been
	// superseded by a failover: the writer is a demoted primary (or a
	// client of one) and must re-acquire a handle from the group.
	ErrFencedTerm = fmt.Errorf("replica: write fenced by a newer term")
	// ErrCompacted reports a catch-up fetch below the primary's journal
	// base: the requested records were absorbed into a durable checkpoint,
	// and the follower must resync from it.
	ErrCompacted = fmt.Errorf("replica: requested records are checkpointed away")
	// ErrNoPrimary reports an operation attempted while a failover is mid
	// flight and no lineage is serving.
	ErrNoPrimary = fmt.Errorf("replica: no primary lineage is serving")
	// ErrLagged reports a follower that could not be caught up to the
	// primary's acknowledged sequence within the fetch budget.
	ErrLagged = fmt.Errorf("replica: follower could not catch up")
)

// Role is a replica's position in the group.
type Role int

const (
	// RoleFollower applies the replication stream and serves stale-bounded
	// reads.
	RoleFollower Role = iota
	// RolePrimary owns the Publisher and the journal; all writes land here.
	RolePrimary
	// RoleDown is a killed replica: it discards stream traffic and serves
	// nothing until Rejoin resyncs it.
	RoleDown
)

// String names the role for telemetry and rendering.
func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RolePrimary:
		return "primary"
	case RoleDown:
		return "down"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// View is a replica's published read state: an immutable snapshot plus the
// watermarks a reader needs to reason about staleness. Reads are one atomic
// pointer load; the View never changes after publication.
type View struct {
	Snap  *quadtree.Snapshot
	Seq   uint64 // highest observation sequence folded into Snap
	Epoch uint64 // this replica's own publish generation
	Term  uint64 // lineage term the replica was on when it published
}

// epochMark is a primary publish watermark in flight: epoch covered
// everything up to seq.
type epochMark struct {
	epoch uint64
	seq   uint64
}

// node is one group member.
type node struct {
	id  string
	g   *Group
	idx int // ordinal within the group; idx+1 is the event-spine actor

	mu      sync.Mutex
	role    Role
	mlq     *core.MLQ       // owned model while follower or down (nil when primary: the Publisher owns it)
	pub     *core.Publisher // non-nil while primary
	term    uint64          // highest term adopted
	applied uint64          // highest contiguous sequence folded into mlq
	epoch   uint64          // this replica's own publish count
	pending map[uint64]Record

	// Epoch-lag bookkeeping (follower side of OnPublish watermarks).
	primEpoch uint64
	watermark uint64
	marks     []epochMark

	cur atomic.Pointer[View]

	applRecs  atomic.Int64 // records folded into the model as a follower
	dups      atomic.Int64 // stream records dropped as duplicates
	fenced    atomic.Int64 // stream records dropped by term fencing
	catchup   atomic.Int64 // records recovered via journal catch-up/resync
	fetchFail atomic.Int64 // catch-up rounds abandoned after fetchAttempts

	inbox    <-chan Msg
	pumpDone chan struct{}
}

// Predict serves a lock-free read from the replica's current view. ok is
// false while the replica is down (no view) or its model is still empty.
func (n *node) Predict(p geom.Point) (float64, bool) {
	v := n.cur.Load()
	if v == nil || v.Snap == nil {
		return 0, false
	}
	return v.Snap.Predict(p)
}

// view returns the current read state (nil while down).
func (n *node) view() *View { return n.cur.Load() }

// pump is the follower's apply loop: it drains the inbox for the life of
// the group, applying records in sequence order and answering barriers.
// Catch-up fetches run outside n.mu (they do file IO against the primary's
// journal), triggered by the gap evidence ingest leaves behind.
func (n *node) pump() {
	defer close(n.pumpDone)
	for m := range n.inbox {
		if m.Kind == kindBarrier {
			close(m.barrier)
			continue
		}
		if n.ingest(m) {
			n.catchUpOnce()
		}
	}
}

// ingest folds one stream message into the node and reports whether the
// node is now gapped (a buffered record it cannot apply yet) and should
// attempt a journal catch-up.
func (n *node) ingest(m Msg) (gapped bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch m.Kind {
	case KindTerm:
		n.adoptTermLocked(m.Term)
		return false
	case KindEpoch:
		if n.role != RoleFollower || m.Term < n.term {
			return false
		}
		if m.Term > n.term {
			n.adoptTermLocked(m.Term)
		}
		if m.Epoch > n.primEpoch {
			n.primEpoch = m.Epoch
		}
		n.marks = append(n.marks, epochMark{epoch: m.Epoch, seq: m.Seq})
		n.advanceWatermarkLocked()
		return false
	case KindRecord:
		if n.role != RoleFollower {
			// A primary or a down replica is not an apply target; records
			// reaching one are stale lineage traffic.
			n.fenced.Add(1)
			return false
		}
		// The recv hop marks the record leaving the transport, before any
		// dedup/fencing: wire lag, not apply lag.
		n.g.ev.EmitHop(events.SubReplica, events.KindRecv, m.Rec.Cause, m.Rec.MintNS, n.idx+1, m.Rec.Seq)
		return n.ingestRecordLocked(m.Rec)
	default:
		return false
	}
}

// ingestRecordLocked buffers/applies one record; caller holds n.mu.
func (n *node) ingestRecordLocked(rec Record) (gapped bool) {
	if rec.Term < n.term {
		n.fenced.Add(1)
		if n.g.tel != nil {
			n.g.tel.fencedRecords.Inc()
		}
		return false
	}
	if rec.Term > n.term {
		n.adoptTermLocked(rec.Term)
	}
	if rec.Seq <= n.applied {
		n.dups.Add(1)
		return false
	}
	if _, dup := n.pending[rec.Seq]; dup {
		n.dups.Add(1)
		return false
	}
	n.pending[rec.Seq] = rec
	n.applyReadyLocked()
	return len(n.pending) > 0
}

// applyReadyLocked folds the contiguous run starting at applied+1 into the
// model and publishes a fresh view if anything was applied. Caller holds
// n.mu and the node is a follower with a live model.
func (n *node) applyReadyLocked() {
	count := 0
	//lint:ignore boundedretry drain loop, not a retry: every iteration deletes the pending key it read (bounded by len(pending)), and an Observe error advances the cursor instead of retrying the record
	for {
		rec, ok := n.pending[n.applied+1]
		if !ok {
			break
		}
		delete(n.pending, n.applied+1)
		if err := n.mlq.Observe(rec.Point, rec.Value); err != nil {
			// The stream already passed the publisher's validation; a
			// tree-level failure here is a divergence hazard, recorded for
			// the group to surface rather than silently skipped.
			n.g.recordApplyErr(n.id, rec.Seq, err)
			// The sequence still advances: the primary applied this record
			// (or failed identically); stalling forever on it would wedge
			// the follower behind an unfillable gap.
		}
		n.applied++
		count++
		n.applRecs.Add(1)
		n.g.ev.EmitHop(events.SubReplica, events.KindApply, rec.Cause, rec.MintNS, n.idx+1, rec.Seq)
	}
	if count == 0 {
		return
	}
	n.epoch++
	n.publishViewLocked()
	// The follower's epoch publish covers the whole applied run (cause 0);
	// traces join it by the applied-sequence watermark in B.
	n.g.ev.EmitActor(events.SubReplica, events.KindEpochPublish, 0, n.idx+1, n.epoch, n.applied)
	n.advanceWatermarkLocked()
	if n.g.tel != nil {
		n.g.tel.appliedRecs(n.id, int64(count))
	}
}

// publishViewLocked snapshots the model into a fresh immutable view.
func (n *node) publishViewLocked() {
	n.cur.Store(&View{
		Snap:  n.mlq.Tree().Snapshot(),
		Seq:   n.applied,
		Epoch: n.epoch,
		Term:  n.term,
	})
}

// adoptTermLocked moves the node to a newer term, purging buffered records
// of dead lineages: a sequence number is only meaningful within the lineage
// that assigned it, so records fenced by the new term must never be applied.
func (n *node) adoptTermLocked(term uint64) {
	if term <= n.term {
		return
	}
	n.term = term
	for seq, rec := range n.pending {
		if rec.Term < term {
			delete(n.pending, seq)
			n.fenced.Add(1)
		}
	}
	// Epoch watermarks are per-publisher; a new lineage restarts them.
	n.primEpoch, n.watermark, n.marks = 0, 0, nil
	if n.g.tel != nil {
		n.g.tel.lag(n.id, 0)
	}
}

// advanceWatermarkLocked retires every epoch mark fully covered by the
// applied sequence and updates the epoch-lag gauge.
func (n *node) advanceWatermarkLocked() {
	keep := n.marks[:0]
	for _, m := range n.marks {
		if m.seq <= n.applied {
			if m.epoch > n.watermark {
				n.watermark = m.epoch
			}
		} else {
			keep = append(keep, m)
		}
	}
	n.marks = keep
	if n.g.tel != nil {
		n.g.tel.lag(n.id, n.lagEpochsLocked())
	}
}

func (n *node) lagEpochsLocked() uint64 {
	if n.primEpoch <= n.watermark {
		return 0
	}
	return n.primEpoch - n.watermark
}

// fetchAttempts bounds consecutive failed journal catch-up fetches before a
// round gives up.
const fetchAttempts = 8

// catchUpOnce runs one bounded catch-up round against the primary journal:
// it fetches forward from applied+1 while the gap persists, resetting its
// attempt budget on progress and giving up after fetchAttempts consecutive
// failed fetches (a partition heals later; the next gap evidence or a
// convergence barrier retries).
func (n *node) catchUpOnce() {
	for attempt := 1; ; attempt++ {
		n.mu.Lock()
		from := n.applied + 1
		gapped := n.role == RoleFollower && len(n.pending) > 0
		n.mu.Unlock()
		if !gapped {
			return
		}
		recs, err := n.g.fetch(n.id, from, 0)
		if err == ErrCompacted {
			// A checkpoint absorbed the records this follower is missing:
			// the journal cannot fill the gap, only the checkpoint can.
			if rerr := n.resyncFromCheckpoint(); rerr == nil {
				attempt = 0
				continue
			}
		}
		if err == nil && len(recs) > 0 {
			got := 0
			n.mu.Lock()
			for _, rec := range recs {
				if rec.Seq > n.applied {
					if _, dup := n.pending[rec.Seq]; !dup {
						got++
					}
				}
				n.ingestRecordLocked(rec)
			}
			n.mu.Unlock()
			n.catchup.Add(int64(got))
			if n.g.tel != nil {
				n.g.tel.caughtUp(n.id, int64(got))
			}
			if got > 0 {
				attempt = 0 // progress refills the budget
				continue
			}
		}
		if attempt >= fetchAttempts {
			n.fetchFail.Add(1)
			return
		}
	}
}

// catchUpTo drives the node to the target sequence using journal fetches
// (and a checkpoint resync if the journal no longer reaches back far
// enough). It is called with the group quiesced — no concurrent writes, the
// pump idle — by convergence barriers, rejoin, and failover promotion.
// A non-nil lin pins the fetches to an explicit (possibly dead) lineage:
// failover reads the demoted primary's durable journal, which no longer
// appears as the group's serving lineage.
func (n *node) catchUpTo(target uint64, lin *lineage) error {
	for attempt := 1; ; attempt++ {
		n.mu.Lock()
		applied := n.applied
		n.mu.Unlock()
		if applied >= target {
			return nil
		}
		var recs []Record
		var err error
		if lin != nil {
			// A dead lineage's journal never rotates again; read it straight.
			recs, err = n.g.fetchLineage(lin, applied+1, 0)
		} else {
			recs, err = n.g.fetch(n.id, applied+1, 0)
		}
		if err == ErrCompacted {
			if err := n.resyncFromCheckpoint(); err != nil {
				return err
			}
			attempt = 0
			continue
		}
		if err == nil && len(recs) > 0 {
			applied0 := applied
			n.mu.Lock()
			for _, rec := range recs {
				n.ingestRecordLocked(rec)
			}
			applied = n.applied
			n.mu.Unlock()
			if applied > applied0 {
				n.catchup.Add(int64(applied - applied0))
				if n.g.tel != nil {
					n.g.tel.caughtUp(n.id, int64(applied-applied0))
				}
				attempt = 0
				continue
			}
		}
		if attempt >= fetchAttempts {
			n.fetchFail.Add(1)
			return fmt.Errorf("%w: %s stuck at seq %d of %d after %d fetch attempts",
				ErrLagged, n.id, applied, target, fetchAttempts)
		}
	}
}

// resyncFromCheckpoint rebuilds the node's model from the group's last
// durable catalog checkpoint: the recovery path of a replica so stale the
// journal no longer covers it (and the first step of every rejoin).
func (n *node) resyncFromCheckpoint() error {
	model, seq, term, err := n.g.loadCheckpoint()
	if err != nil {
		return err
	}
	n.mu.Lock()
	prev := n.applied
	n.mlq = model
	n.applied = seq
	n.pending = make(map[uint64]Record)
	n.adoptTermLocked(term)
	// Whatever the new term decided, watermarks from the pre-resync stream
	// are meaningless against the checkpoint's state.
	n.primEpoch, n.watermark, n.marks = 0, 0, nil
	n.epoch++
	n.publishViewLocked()
	n.mu.Unlock()
	if seq > prev {
		n.catchup.Add(int64(seq - prev))
		if n.g.tel != nil {
			n.g.tel.caughtUp(n.id, int64(seq-prev))
		}
	}
	return nil
}

// stats snapshots the node's accounting.
func (n *node) stats() ReplicaStats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return ReplicaStats{
		ID:         n.id,
		Role:       n.role,
		Term:       n.term,
		Applied:    n.applied,
		Epoch:      n.epoch,
		LagEpochs:  n.lagEpochsLocked(),
		Pending:    len(n.pending),
		Streamed:   n.applRecs.Load(),
		Duplicates: n.dups.Load(),
		Fenced:     n.fenced.Load(),
		Catchup:    n.catchup.Load(),
		FetchFails: n.fetchFail.Load(),
	}
}

// ReplicaStats is one replica's point-in-time accounting.
type ReplicaStats struct {
	ID         string
	Role       Role
	Term       uint64
	Applied    uint64 // highest contiguous applied sequence
	Epoch      uint64 // replica's own publish generation
	LagEpochs  uint64 // primary publish epochs not yet fully applied
	Pending    int    // buffered out-of-order records
	Streamed   int64  // records applied from the live stream or catch-up
	Duplicates int64  // stream records dropped as duplicates
	Fenced     int64  // records dropped by term fencing
	Catchup    int64  // records recovered via journal catch-up/resync
	FetchFails int64  // catch-up rounds abandoned after the attempt budget
}

// sortStats orders replica stats by id for stable rendering.
func sortStats(s []ReplicaStats) {
	sort.Slice(s, func(i, j int) bool { return s[i].ID < s[j].ID })
}
