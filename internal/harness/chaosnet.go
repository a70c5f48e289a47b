package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mlq/internal/catalog"
	"mlq/internal/faults"
	"mlq/internal/journal"
	"mlq/internal/replica"
	"mlq/internal/replica/nettransport"
)

// The socket plane's settings for the networked chaos scenarios.
const (
	// chaosNetHeartbeatEvery is the liveness probe cadence — fast enough
	// that a scenario's worth of chaos exercises the detector.
	chaosNetHeartbeatEvery = 20 * time.Millisecond
	// chaosNetBarrierTimeout bounds how long a drain barrier may ride a
	// socket before the watchdog delivers it locally.
	chaosNetBarrierTimeout = 300 * time.Millisecond
	// chaosNetChunkBytes is the bootstrap chunk size, small enough that the
	// default workload's snapshot spans dozens of chunks and a mid-transfer
	// kill always lands inside the stream.
	chaosNetChunkBytes = 1 << 10
)

// ChaosNet runs the replicated-fleet chaos suite over real TCP loopback
// sockets: the same kill-primary, partition-heal and chaos scenarios as
// ChaosRepl (same assertions: acked loss bounded by one batch,
// byte-identical convergence after heal), but with the stream carried by
// nettransport — so reconnect/backoff, heartbeat liveness and CRC framing
// are load-bearing, and the net-chaos scenario injects socket-level resets,
// truncation and delay instead of record-level faults. A final
// mid-bootstrap-kill scenario cuts the snapshot-shipping RPC partway
// through and asserts the transfer resumes from the last verified chunk.
func ChaosNet(opts Options) ([]ChaosReplCell, error) {
	return runChaosPlane(netPlane, opts)
}

// settleLinks waits for the primary's stream connections to every follower
// to establish (the term broadcast at group construction starts the lazy
// dials). A fault schedule that fires before the links exist partitions
// nothing and reconnects nothing — the scenarios assert against live links.
func settleLinks(tr *nettransport.NetTransport, g *replica.Group) error {
	primary := g.PrimaryID()
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range g.IDs() {
		if id == primary {
			continue
		}
		for !tr.LinkUp(id) {
			if time.Now().After(deadline) {
				return fmt.Errorf("stream link to %s never established", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// bootstrapKill is the bootstrap-kill step, run on a converged fleet: pull
// the primary's snapshot over the bootstrap RPC with a connection reset
// scheduled to land mid-transfer. The transfer must resume from the last
// verified chunk — not restart — and the received bytes must be exactly the
// primary's durable state, replayable and loadable. inj must be idle: the
// step enables its only site.
func bootstrapKill(g *replica.Group, nt *nettransport.NetTransport, inj *faults.Injector, dir string) error {
	// Quiesce the stream plane: partitioning the followers kills their
	// connections and parks the dialers, so the scheduled reset below is
	// consulted only by the bootstrap socket — fully deterministic.
	primary := g.PrimaryID()
	for _, id := range g.IDs() {
		if id != primary {
			nt.Partition(id)
		}
	}
	nt.SetSnapshotSource(primary, g)

	wantCkpt, wantJnl, err := g.Snapshot()
	if err != nil {
		return err
	}
	chunks := (len(wantCkpt) + len(wantJnl) + chaosNetChunkBytes - 1) / chaosNetChunkBytes
	if chunks < 2 {
		return fmt.Errorf("snapshot spans %d chunk(s); too small for a mid-transfer kill", chunks)
	}
	// The serving connection's fault-site consultations are deterministic:
	// 3 reads (preamble, request header, request payload), the meta write,
	// then one write per chunk. Aim the reset at the middle chunk.
	inj.Enable(faults.NetReset, faults.SiteConfig{Schedule: []int64{int64(4 + chunks/2 + 1)}})

	res, err := nt.Bootstrap(primary)
	if err != nil {
		return fmt.Errorf("bootstrap through mid-transfer kill: %w", err)
	}
	if res.Resumes < 1 {
		return fmt.Errorf("transfer finished with %d resumes; the kill should have forced one", res.Resumes)
	}
	if res.Restarts != 0 {
		return fmt.Errorf("transfer restarted %d times; a resumable kill must not force a full resync", res.Restarts)
	}
	if res.Chunks != chunks {
		return fmt.Errorf("received %d chunks, want exactly %d (no re-shipping of verified chunks)", res.Chunks, chunks)
	}
	if !bytes.Equal(res.Ckpt, wantCkpt) || !bytes.Equal(res.Journal, wantJnl) {
		return fmt.Errorf("bootstrapped bytes differ from the primary's durable state")
	}

	// The shipped state must be usable, not merely byte-equal: the journal
	// suffix replays cleanly and the checkpoint loads as a catalog.
	recs, truncated, err := journal.Replay(bytes.NewReader(res.Journal))
	if err != nil || truncated != 0 {
		return fmt.Errorf("bootstrapped journal does not replay (err %v, truncated %d)", err, truncated)
	}
	if len(recs) == 0 {
		return fmt.Errorf("bootstrapped journal replayed empty; the post-checkpoint suffix is missing")
	}
	ckptPath := filepath.Join(dir, "bootstrapped.mlqc")
	if err := os.WriteFile(ckptPath, res.Ckpt, 0o644); err != nil {
		return err
	}
	if _, _, err := catalog.LoadFile(ckptPath); err != nil {
		return fmt.Errorf("bootstrapped checkpoint does not load: %w", err)
	}

	for _, id := range g.IDs() {
		if id != primary {
			nt.Heal(id)
		}
	}
	if err := g.Converge(); err != nil {
		return fmt.Errorf("converge after heal: %w", err)
	}
	return nil
}
