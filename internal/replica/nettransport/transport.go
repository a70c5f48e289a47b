package nettransport

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mlq/internal/events"
	"mlq/internal/faults"
	"mlq/internal/replica"
	"mlq/internal/telemetry"
)

// Config parameterizes a NetTransport. The zero value is usable: wall
// clock, no chaos, defaults tuned for loopback test fleets.
type Config struct {
	// Injector, when non-nil, wraps every endpoint's listener in a
	// ChaosListener wired to the net.{reset,trunc,delay} fault sites.
	Injector *faults.Injector
	// Clock drives backoff, heartbeat cadence, watchdogs and read-deadline
	// anchoring. Nil means Wall.
	Clock Clock
	// Seed feeds the backoff jitter stream, so a chaos run's reconnect
	// timing is as reproducible as its fault placement.
	Seed int64
	// Events, when non-nil, receives conn-up/conn-down/bootstrap events on
	// the causal spine (actor = destination endpoint ordinal + 1).
	Events *events.Recorder
	// QueueCapacity bounds each destination's outbound frame queue; a full
	// queue overflows (counted), never blocks the sender. Default 4096.
	QueueCapacity int
	// ChunkBytes is the bootstrap chunk payload size. Default 32 KiB.
	ChunkBytes int
	// HeartbeatEvery is the liveness probe cadence on an established
	// connection. Default 100ms.
	HeartbeatEvery time.Duration
	// BarrierTimeout bounds how long a barrier may ride the socket before
	// the watchdog delivers it locally (a damaged barrier frame must not
	// wedge a failover). Default 2s.
	BarrierTimeout time.Duration
	// BackoffBase and BackoffCap shape the reconnect backoff: attempt k
	// waits base·2^k capped at BackoffCap, halved and re-widened by seeded
	// jitter. Defaults 5ms / 500ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

// Fixed connection-management limits.
const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 500 * time.Millisecond
	// heartbeatMiss is how many consecutive unanswered probe windows
	// declare a connection dead.
	heartbeatMiss = 3
	// bootstrapAttempts bounds a Bootstrap call's connection attempts
	// (resumes included).
	bootstrapAttempts = 16
)

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = Wall
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 4096
	}
	if c.ChunkBytes <= 0 {
		c.ChunkBytes = 32 << 10
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	if c.BarrierTimeout <= 0 {
		c.BarrierTimeout = 2 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 500 * time.Millisecond
	}
	return c
}

// readIdleTimeout is the accept side's per-read deadline: a connection
// silent this long is torn down (the dialer re-establishes it). It spans six
// heartbeat windows, and never less than 2s.
func (c Config) readIdleTimeout() time.Duration {
	return max(2*time.Second, 6*c.HeartbeatEvery)
}

// NetTransport is replica.Transport over real TCP loopback sockets. Each
// registered replica gets a listening endpoint feeding its inbox; each
// destination gets a lazily dialed outbound connection manager. The loss
// model is the MemTransport contract: sends never block the caller, a down
// or overflowing link loses messages and counts them (Dropped/Overflowed),
// and journal catch-up repairs the stream.
type NetTransport struct {
	cfg Config
	inj *faults.Injector
	clk Clock
	ev  *events.Recorder

	rngMu sync.Mutex
	rng   *rand.Rand

	mu         sync.Mutex
	closed     bool
	eps        map[string]*endpoint
	mgrs       map[string]*connMgr
	cut        map[string]bool
	healCh     chan struct{} // closed and replaced by Heal; wakes parked dialers
	barriers   map[uint64]*pendingBarrier
	barrierSeq uint64
	boot       map[string]*bootState

	closeCh chan struct{}
	wg      sync.WaitGroup

	sent, delivered, dropped, partitioned, overflowed atomic.Int64
	reconnects, heartbeatsMissed, framesDamaged       atomic.Int64
	bootstrapChunks, bootstrapResumes                 atomic.Int64
}

// New builds an empty transport; endpoints appear as replicas Register.
func New(cfg Config) *NetTransport {
	cfg = cfg.withDefaults()
	return &NetTransport{
		cfg:      cfg,
		inj:      cfg.Injector,
		clk:      cfg.Clock,
		ev:       cfg.Events,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		eps:      make(map[string]*endpoint),
		mgrs:     make(map[string]*connMgr),
		cut:      make(map[string]bool),
		healCh:   make(chan struct{}),
		barriers: make(map[uint64]*pendingBarrier),
		boot:     make(map[string]*bootState),
		closeCh:  make(chan struct{}),
	}
}

var _ replica.Transport = (*NetTransport)(nil)

var errClosed = fmt.Errorf("nettransport: transport is closed")

// pendingBarrier is one in-flight drain barrier. It lives in the
// transport's claim table until exactly one party — the receiving endpoint
// (wire delivery), a dead connection's sweep, the watchdog, or Close —
// claims it; the claim makes delivery (and the eventual close of done by
// the receiving pump) exactly-once.
type pendingBarrier struct {
	id   uint64
	dst  string
	msg  replica.Msg
	done chan struct{}
	gen  uint64 // connection generation it was written on (0 = not written)
}

// Register creates the destination's listening endpoint and inbox, and
// returns the receive side. Re-registering an id swaps in a fresh inbox on
// the same listener (a rejoining replica starts with an empty queue).
func (t *NetTransport) Register(id string, capacity int) <-chan replica.Msg {
	if capacity <= 0 {
		capacity = 4096
	}
	ch := make(chan replica.Msg, capacity)
	t.mu.Lock()
	if ep := t.eps[id]; ep != nil {
		ep.mu.Lock()
		ep.inbox = ch
		ep.mu.Unlock()
		t.mu.Unlock()
		return ch
	}
	idx := len(t.eps)
	closed := t.closed
	ep := &endpoint{t: t, id: id, idx: idx, inbox: ch, done: make(chan struct{})}
	t.eps[id] = ep
	t.mu.Unlock()
	if closed {
		return ch
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		// Loopback listen essentially cannot fail; if it does, the endpoint
		// exists but is unreachable and every send to it reports the error.
		ep.mu.Lock()
		ep.lnErr = err
		ep.mu.Unlock()
		return ch
	}
	if t.inj != nil {
		ln = NewChaosListener(ln, t.inj)
	}
	ep.mu.Lock()
	ep.ln = ln
	ep.addr = ln.Addr().String()
	ep.mu.Unlock()
	t.wg.Add(1)
	go ep.acceptLoop()
	return ch
}

// addrOf resolves a destination's dial address.
func (t *NetTransport) addrOf(id string) (string, error) {
	t.mu.Lock()
	ep := t.eps[id]
	t.mu.Unlock()
	if ep == nil {
		return "", fmt.Errorf("nettransport: unknown destination %q", id)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.lnErr != nil {
		return "", fmt.Errorf("nettransport: destination %q has no listener: %w", id, ep.lnErr)
	}
	return ep.addr, nil
}

// Send frames m and hands it to the destination's outbound queue. It never
// blocks: a full queue (a disconnected or slow link) overflows, counted —
// the sender may believe delivery happened, exactly like a lossy network
// lies to a fire-and-forget streamer. Journal catch-up repairs the gap.
func (t *NetTransport) Send(to string, m replica.Msg) error {
	if _, isBarrier := m.BarrierChan(); isBarrier {
		return fmt.Errorf("nettransport: barrier messages travel via Barrier, not Send")
	}
	t.sent.Add(1)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return errClosed
	}
	ep := t.eps[to]
	if ep == nil {
		t.mu.Unlock()
		return fmt.Errorf("nettransport: unknown destination %q", to)
	}
	if t.cut[to] {
		t.partitioned.Add(1)
		t.mu.Unlock()
		return replica.ErrPartitioned
	}
	mgr := t.mgrLocked(to, ep.idx)
	t.mu.Unlock()
	frame := appendFrame(nil, encodeMsg(m))
	select {
	case mgr.queue <- outItem{frame: frame}:
	default:
		t.overflowed.Add(1)
	}
	return nil
}

// Barrier enqueues a drain marker behind everything already sent to the
// destination. On a live link the marker rides the socket (TCP keeps it
// behind every queued frame); on a down or partitioned link it is delivered
// locally — nothing of ours is ahead of it on a wire that is not carrying
// traffic, and barriers must never be lost. A watchdog backstops the socket
// path: a barrier frame lost to connection chaos is re-delivered locally
// after BarrierTimeout.
func (t *NetTransport) Barrier(to string) (chan struct{}, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, errClosed
	}
	ep := t.eps[to]
	if ep == nil {
		t.mu.Unlock()
		return nil, fmt.Errorf("nettransport: unknown destination %q", to)
	}
	msg, done := replica.NewBarrierMsg()
	t.barrierSeq++
	pb := &pendingBarrier{id: t.barrierSeq, dst: to, msg: msg, done: done}
	t.barriers[pb.id] = pb
	cut := t.cut[to]
	mgr := t.mgrLocked(to, ep.idx)
	t.mu.Unlock()

	if cut || mgr.suspect() {
		// The link is known dead: the drain pattern's preceding FlushHeld
		// already turned the queue into counted losses, so nothing of ours
		// is ahead of the marker and local delivery preserves its meaning.
		if p := t.claimBarrier(pb.id); p != nil {
			t.deliverBarrierLocal(p)
		}
		return done, nil
	}
	// Live (or still-dialing) link: the marker rides the outbound queue
	// behind every frame already enqueued; TCP keeps it behind them on the
	// wire. A full queue means the link is losing data anyway — deliver
	// locally rather than block.
	select {
	case mgr.queue <- outItem{barrier: pb}:
	default:
		if p := t.claimBarrier(pb.id); p != nil {
			t.deliverBarrierLocal(p)
		}
		return done, nil
	}
	t.wg.Add(1)
	go t.barrierWatchdog(pb)
	return done, nil
}

// barrierWatchdog re-delivers a socket-path barrier locally if the wire
// never does: a reset or torn write may eat the marker frame, and a lost
// barrier would wedge the group's drain pattern forever.
func (t *NetTransport) barrierWatchdog(pb *pendingBarrier) {
	defer t.wg.Done()
	select {
	case <-pb.done:
	case <-t.closeCh:
		if p := t.claimBarrier(pb.id); p != nil {
			//lint:ignore chanowner the claim table hands each barrier to exactly one closer; a successful claim owns p
			close(p.done)
		}
	case <-t.clk.After(t.cfg.BarrierTimeout):
		if p := t.claimBarrier(pb.id); p != nil {
			t.deliverBarrierLocal(p)
		}
	}
}

// claimBarrier removes a pending barrier from the table; the caller that
// gets a non-nil result owns its (single) delivery.
func (t *NetTransport) claimBarrier(id uint64) *pendingBarrier {
	t.mu.Lock()
	defer t.mu.Unlock()
	pb := t.barriers[id]
	if pb != nil {
		delete(t.barriers, id)
	}
	return pb
}

// stampBarrier records the connection generation a barrier frame was
// written on, so that connection's death sweep can find it.
func (t *NetTransport) stampBarrier(pb *pendingBarrier, gen uint64) {
	t.mu.Lock()
	if _, pending := t.barriers[pb.id]; pending {
		pb.gen = gen
	}
	t.mu.Unlock()
}

// sweepBarriers locally delivers every unclaimed barrier written on a now
// dead connection (dst, gen): the wire lost them, the contract must not.
func (t *NetTransport) sweepBarriers(dst string, gen uint64) {
	t.mu.Lock()
	var dead []*pendingBarrier
	for id, pb := range t.barriers {
		if pb.dst == dst && pb.gen == gen && gen != 0 {
			dead = append(dead, pb)
			delete(t.barriers, id)
		}
	}
	t.mu.Unlock()
	for _, pb := range dead {
		t.deliverBarrierLocal(pb)
	}
}

// deliverBarrierLocal enqueues a claimed barrier straight into the
// destination endpoint's inbox.
func (t *NetTransport) deliverBarrierLocal(pb *pendingBarrier) {
	t.mu.Lock()
	ep := t.eps[pb.dst]
	t.mu.Unlock()
	if ep == nil {
		//lint:ignore chanowner the claim table hands each barrier to exactly one closer; callers pass only claimed barriers here
		close(pb.done)
		return
	}
	ep.deliverBarrier(pb)
}

// FlushHeld releases everything the transport is voluntarily holding for
// the destination: on a live link it blocks until the writer has pushed the
// queued frames to the socket; on a down or partitioned link the queue is
// drained as counted losses. Either way, after FlushHeld returns nothing is
// parked inside the transport — the flush-then-barrier-then-assert drain
// pattern (Failover, Converge) relies on it.
func (t *NetTransport) FlushHeld(to string) {
	t.mu.Lock()
	mgr := t.mgrs[to]
	closed := t.closed
	cut := t.cut[to]
	t.mu.Unlock()
	if mgr == nil || closed {
		return
	}
	if cut || mgr.suspect() {
		mgr.drainQueue()
		return
	}
	done := make(chan struct{})
	select {
	case mgr.queue <- outItem{flush: done}:
	case <-t.closeCh:
		return
	}
	select {
	case <-done:
	case <-t.closeCh:
	case <-t.clk.After(t.cfg.BarrierTimeout):
		// The link died under the marker; whatever is still queued is a
		// counted loss, like any other disconnect.
		mgr.drainQueue()
	}
}

// LinkUp reports whether the outbound connection to a destination is
// currently established. Harnesses use it to settle a freshly built fleet
// before scheduling faults: a partition injected while the lazy dialer is
// still racing the first connection tears down nothing, which makes a
// "chaos against live links" experiment vacuous.
func (t *NetTransport) LinkUp(to string) bool {
	t.mu.Lock()
	mgr := t.mgrs[to]
	t.mu.Unlock()
	return mgr != nil && mgr.up()
}

// Cut reports whether the destination is unreachable: administratively
// partitioned, or suspected down by the dialer's liveness evidence
// (consecutive failed dials after heartbeat loss severed the connection).
func (t *NetTransport) Cut(id string) bool {
	t.mu.Lock()
	cut := t.cut[id]
	mgr := t.mgrs[id]
	t.mu.Unlock()
	if cut {
		return true
	}
	if mgr == nil {
		return false
	}
	return mgr.suspect()
}

// Partition administratively severs the destination: sends fail with
// ErrPartitioned and the live connection (if any) is cut under the peer.
func (t *NetTransport) Partition(id string) {
	t.mu.Lock()
	t.cut[id] = true
	mgr := t.mgrs[id]
	t.mu.Unlock()
	if mgr != nil {
		mgr.closeConn()
	}
}

// Heal lifts a partition and wakes every dialer parked on one, so the link
// re-establishes immediately rather than on the next partition poll.
func (t *NetTransport) Heal(id string) {
	t.mu.Lock()
	delete(t.cut, id)
	close(t.healCh)
	t.healCh = make(chan struct{})
	t.mu.Unlock()
}

// healSignal returns the channel the next Heal call closes.
func (t *NetTransport) healSignal() chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.healCh
}

// Stats returns cumulative delivery accounting in MemTransport's terms.
// Duplicated and Reordered stay zero: TCP neither duplicates nor reorders,
// socket chaos loses bytes instead.
func (t *NetTransport) Stats() replica.TransportStats {
	return replica.TransportStats{
		Sent:        t.sent.Load(),
		Delivered:   t.delivered.Load(),
		Dropped:     t.dropped.Load(),
		Partitioned: t.partitioned.Load(),
		Overflowed:  t.overflowed.Load(),
	}
}

// NetStats is the socket layer's own accounting, on top of TransportStats.
type NetStats struct {
	Reconnects       int64 // links re-established after a loss
	HeartbeatsMissed int64 // liveness probe windows that went unanswered
	FramesDamaged    int64 // frames discarded by CRC/decode (and torn tails)
	BootstrapChunks  int64 // snapshot chunks received (re-received included)
	BootstrapResumes int64 // bootstrap transfers resumed after a mid-kill
}

// NetStats returns the socket-layer counters.
func (t *NetTransport) NetStats() NetStats {
	return NetStats{
		Reconnects:       t.reconnects.Load(),
		HeartbeatsMissed: t.heartbeatsMissed.Load(),
		FramesDamaged:    t.framesDamaged.Load(),
		BootstrapChunks:  t.bootstrapChunks.Load(),
		BootstrapResumes: t.bootstrapResumes.Load(),
	}
}

// Instrument mirrors the socket-layer counters into a telemetry registry
// under the mlq_net_* namespace. Labels distinguish transports when several
// instrument the same registry (e.g. one per chaos scenario).
func (t *NetTransport) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		return
	}
	reg.CounterFunc("mlq_net_reconnects_total", "network transport links re-established after a loss",
		func() float64 { return float64(t.reconnects.Load()) }, labels...)
	reg.CounterFunc("mlq_net_heartbeats_missed_total", "liveness probe windows that went unanswered",
		func() float64 { return float64(t.heartbeatsMissed.Load()) }, labels...)
	reg.CounterFunc("mlq_net_frames_damaged_total", "wire frames discarded by CRC or decode failure",
		func() float64 { return float64(t.framesDamaged.Load()) }, labels...)
	reg.CounterFunc("mlq_net_bootstrap_chunks_total", "snapshot bootstrap chunks received",
		func() float64 { return float64(t.bootstrapChunks.Load()) }, labels...)
	reg.CounterFunc("mlq_net_bootstrap_resumes_total", "snapshot bootstrap transfers resumed after a connection kill",
		func() float64 { return float64(t.bootstrapResumes.Load()) }, labels...)
}

// Close tears the fabric down: pending barriers unblock, writers and accept
// loops exit, every inbox closes. Idempotent.
func (t *NetTransport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.closeCh)
	barriers := t.barriers
	t.barriers = make(map[uint64]*pendingBarrier)
	mgrs := make([]*connMgr, 0, len(t.mgrs))
	for _, m := range t.mgrs {
		mgrs = append(mgrs, m)
	}
	eps := make([]*endpoint, 0, len(t.eps))
	for _, ep := range t.eps {
		eps = append(eps, ep)
	}
	t.mu.Unlock()
	for _, pb := range barriers {
		//lint:ignore chanowner Close swapped the claim table empty above, so it is the sole owner of every barrier still in it
		close(pb.done)
	}
	for _, m := range mgrs {
		m.closeConn()
	}
	for _, ep := range eps {
		ep.close()
	}
	t.wg.Wait()
}

func (t *NetTransport) isClosed() bool {
	select {
	case <-t.closeCh:
		return true
	default:
		return false
	}
}

func (t *NetTransport) frameDamaged() {
	t.framesDamaged.Add(1)
}

// jitter draws a uniform duration in [0, d] from the seeded stream.
func (t *NetTransport) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	return time.Duration(t.rng.Int63n(int64(d) + 1))
}

// backoff returns the wait before reconnect attempt k (0-based): half of
// the capped exponential base·2^k, re-widened by seeded jitter — the
// standard decorrelated shape that keeps a reconnect storm from
// synchronizing while staying fully reproducible under one seed.
func (t *NetTransport) backoff(attempt int) time.Duration {
	d := t.cfg.BackoffBase
	for i := 0; i < attempt && d < t.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > t.cfg.BackoffCap {
		d = t.cfg.BackoffCap
	}
	return d/2 + t.jitter(d/2)
}

// emitConn puts a link state change on the causal spine.
func (t *NetTransport) emitConn(kind events.Kind, epIdx int, a, b uint64) {
	t.ev.EmitActor(events.SubReplica, kind, 0, epIdx+1, a, b)
}
