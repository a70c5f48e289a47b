package nettransport

import (
	"testing"
	"time"

	"mlq/internal/faults"
	"mlq/internal/geom"
	"mlq/internal/replica"
)

func rec(seq uint64) replica.Msg {
	return replica.Msg{Kind: replica.KindRecord, Rec: replica.Record{
		Seq: seq, Term: 1, Point: geom.Point{float64(seq), 2}, Value: float64(seq), Cause: seq,
	}}
}

func waitFor(t *testing.T, what string, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func recv(t *testing.T, inbox <-chan replica.Msg, within time.Duration) replica.Msg {
	t.Helper()
	select {
	case m := <-inbox:
		return m
	case <-time.After(within):
		t.Fatal("timed out waiting for a delivery")
		return replica.Msg{}
	}
}

// TestHeartbeatLivenessTearsDownDeafLink mutes an endpoint's heartbeat acks
// — the TCP connection stays open but goes silently deaf, the exact failure
// heartbeats exist to detect — and expects the ack reader to declare the
// link dead and the dialer to re-establish it once the peer recovers.
func TestHeartbeatLivenessTearsDownDeafLink(t *testing.T) {
	tr := New(Config{
		Seed:           7,
		HeartbeatEvery: 10 * time.Millisecond,
	})
	defer tr.Close()
	tr.Register("a", 64)
	inbox := tr.Register("b", 64)

	if err := tr.Send("b", rec(1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if m := recv(t, inbox, 5*time.Second); m.Rec.Seq != 1 {
		t.Fatalf("first delivery seq %d, want 1", m.Rec.Seq)
	}

	tr.MuteEndpoint("b", true)
	waitFor(t, "missed heartbeats to kill and redial the link", 10*time.Second, func() bool {
		ns := tr.NetStats()
		return ns.HeartbeatsMissed >= 2 && ns.Reconnects >= 1
	})
	tr.MuteEndpoint("b", false)

	if err := tr.Send("b", rec(2)); err != nil {
		t.Fatalf("Send after recovery: %v", err)
	}
	waitFor(t, "post-recovery delivery", 10*time.Second, func() bool {
		select {
		case m := <-inbox:
			return m.Rec.Seq == 2
		default:
			return false
		}
	})
}

// TestDeadDestinationOverflowsAndCuts kills a destination's listener: sends
// must keep returning instantly (queued up to capacity, then counted as
// overflow), and the dialer's consecutive failures must surface through
// Cut so a failover skips the unreachable peer.
func TestDeadDestinationOverflowsAndCuts(t *testing.T) {
	tr := New(Config{Seed: 7, QueueCapacity: 8,
		BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	tr.Register("b", 64)
	tr.mu.Lock()
	ln := tr.eps["b"].ln
	tr.mu.Unlock()
	_ = ln.Close()

	start := time.Now()
	const n = 64
	for i := uint64(1); i <= n; i++ {
		if err := tr.Send("b", rec(i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("sends to a dead destination took %v; they must never block", elapsed)
	}
	waitFor(t, "overflow accounting", 5*time.Second, func() bool {
		return tr.Stats().Overflowed >= n-8
	})
	waitFor(t, "liveness evidence to surface via Cut", 5*time.Second, func() bool {
		return tr.Cut("b")
	})
}

// TestFlushHeldDrainsDeadLinkAsCountedLosses parks frames on a dead link's
// queue and expects FlushHeld to return promptly with everything accounted:
// after it, nothing may still be parked inside the transport.
func TestFlushHeldDrainsDeadLinkAsCountedLosses(t *testing.T) {
	tr := New(Config{Seed: 7, QueueCapacity: 64,
		BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	tr.Register("b", 64)
	tr.mu.Lock()
	ln := tr.eps["b"].ln
	tr.mu.Unlock()
	_ = ln.Close()

	const n = 16
	for i := uint64(1); i <= n; i++ {
		if err := tr.Send("b", rec(i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, "dialer to notice the dead link", 5*time.Second, func() bool { return tr.Cut("b") })
	tr.FlushHeld("b")
	st := tr.Stats()
	if st.Dropped+st.Overflowed < n {
		t.Fatalf("after FlushHeld on a dead link: dropped %d + overflowed %d < %d sent; frames still parked",
			st.Dropped, st.Overflowed, n)
	}
}

// TestBackoffCappedExponentialSeeded pins the reconnect backoff shape:
// reproducible for one seed, divergent across seeds, never above the cap,
// and growing toward it.
func TestBackoffCappedExponentialSeeded(t *testing.T) {
	mk := func(seed int64) []time.Duration {
		tr := New(Config{Seed: seed, BackoffBase: 5 * time.Millisecond, BackoffCap: 500 * time.Millisecond})
		defer tr.Close()
		out := make([]time.Duration, 12)
		for i := range out {
			out[i] = tr.backoff(i)
		}
		return out
	}
	a, b, c := mk(1), mk(1), mk(2)
	diverged := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: same seed gave %v then %v; backoff must be reproducible", i, a[i], b[i])
		}
		if a[i] != c[i] {
			diverged = true
		}
		if a[i] > 500*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v exceeds the cap", i, a[i])
		}
		if a[i] < 5*time.Millisecond/2 {
			t.Fatalf("attempt %d: backoff %v below base/2", i, a[i])
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter streams")
	}
	if a[11] < 250*time.Millisecond {
		t.Fatalf("late attempt backoff %v; expected the capped region (>= cap/2)", a[11])
	}
}

// TestFakeClockDrivesReconnectMachinery runs the dial/backoff loop entirely
// on a FakeClock: with the destination's listener dead, the writer parks on
// fake timers and only advances when the test advances time.
func TestFakeClockDrivesReconnectMachinery(t *testing.T) {
	clk := NewFakeClock()
	tr := New(Config{Seed: 7, Clock: clk,
		BackoffBase: 10 * time.Millisecond, BackoffCap: 100 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	tr.Register("b", 64)
	tr.mu.Lock()
	ln := tr.eps["b"].ln
	tr.mu.Unlock()
	_ = ln.Close()

	if err := tr.Send("b", rec(1)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	waitFor(t, "writer to park on a fake backoff timer", 5*time.Second, func() bool {
		return clk.Pending() > 0
	})
	deadline := time.Now().Add(10 * time.Second)
	for !tr.Cut("b") {
		if time.Now().After(deadline) {
			t.Fatal("advancing the fake clock never produced liveness evidence")
		}
		clk.Advance(200 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

// TestChaosTruncDamagesFramesWithoutDesync drives the stream through the
// chaos plane with byte-flip/torn-write truncation enabled: damaged frames
// must be counted and skipped (or the connection torn down and redialed),
// never decoded into a message, and the stream must keep delivering.
func TestChaosTruncDamagesFramesWithoutDesync(t *testing.T) {
	inj := faults.New(11)
	inj.Enable(faults.NetTrunc, faults.SiteConfig{Probability: 0.05})
	tr := New(Config{Seed: 11, Injector: inj, HeartbeatEvery: 20 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffCap: 10 * time.Millisecond})
	defer tr.Close()
	tr.Register("a", 64)
	inbox := tr.Register("b", 4096)

	var delivered int
	done := make(chan struct{})
	go func() {
		defer close(done)
		for m := range inbox {
			if m.Kind == replica.KindRecord {
				delivered++
			}
		}
	}()

	const n = 400
	for i := uint64(1); i <= n; i++ {
		if err := tr.Send("b", rec(i)); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if i%50 == 0 {
			time.Sleep(5 * time.Millisecond) // let the wire catch chaos mid-stream
		}
	}
	waitFor(t, "chaos to damage at least one frame", 10*time.Second, func() bool {
		ns := tr.NetStats()
		return ns.FramesDamaged >= 1 || ns.Reconnects >= 1
	})
	waitFor(t, "stream to keep delivering through damage", 10*time.Second, func() bool {
		return tr.Stats().Delivered >= 1
	})
	tr.Close()
	<-done
	if delivered < 1 {
		t.Fatal("no records survived the chaos stream")
	}
}

// TestReadIdleTimeoutSpansSixHeartbeats pins the accept side's idle
// deadline: six heartbeat windows, floored at 2s so a fast probe cadence
// never tears down a merely quiet link.
func TestReadIdleTimeoutSpansSixHeartbeats(t *testing.T) {
	for _, tc := range []struct{ every, want time.Duration }{
		{0, 2 * time.Second}, // default 100ms cadence: the floor wins
		{20 * time.Millisecond, 2 * time.Second},
		{time.Second, 6 * time.Second},
	} {
		if got := (Config{HeartbeatEvery: tc.every}).withDefaults().readIdleTimeout(); got != tc.want {
			t.Errorf("HeartbeatEvery %v: readIdleTimeout %v, want %v", tc.every, got, tc.want)
		}
	}
}
