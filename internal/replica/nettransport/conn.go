package nettransport

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mlq/internal/events"
	"mlq/internal/replica"
)

// outItem is one entry in a destination's outbound queue: a pre-framed data
// or control payload, a barrier marker, or a flush marker.
type outItem struct {
	frame   []byte
	barrier *pendingBarrier
	flush   chan struct{}
}

// connMgr owns the single outbound connection to one destination: a bounded
// queue the senders feed without blocking, a writer goroutine that dials
// lazily and reconnects under capped exponential backoff, and an ack reader
// whose heartbeat misses tear a silently dead link down. The queue persists
// across reconnects — frames enqueued while the link is down ride the next
// connection; only overflow and explicit drains (FlushHeld on a dead link,
// Close) lose them, counted.
type connMgr struct {
	t     *NetTransport
	dst   string
	epIdx int
	queue chan outItem

	mu        sync.Mutex
	conn      net.Conn
	gen       uint64
	upFlag    bool
	dialFails int

	lastMisses atomic.Int64
}

// mgrLocked returns (creating on first use) the destination's connection
// manager. Caller holds t.mu. The endpoint for dst must already exist.
func (t *NetTransport) mgrLocked(dst string, epIdx int) *connMgr {
	if m := t.mgrs[dst]; m != nil {
		return m
	}
	m := &connMgr{t: t, dst: dst, epIdx: epIdx, queue: make(chan outItem, t.cfg.QueueCapacity)}
	t.mgrs[dst] = m
	t.wg.Add(1)
	go m.run()
	return m
}

// up reports whether the link is currently established.
func (m *connMgr) up() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.upFlag
}

// suspect is the liveness evidence behind Cut: two consecutive failed dials
// after a connection loss. A single failure (one chaos reset mid-dial) does
// not condemn a peer; an idle, never-dialed destination is reachable.
func (m *connMgr) suspect() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dialFails >= 2
}

// closeConn severs the live connection (if any) out from under the writer;
// its next write fails and the reconnect loop takes over.
func (m *connMgr) closeConn() {
	m.mu.Lock()
	c := m.conn
	m.conn = nil
	m.upFlag = false
	m.mu.Unlock()
	if c != nil {
		_ = c.Close()
	}
}

// run is the writer goroutine: establish, stream, tear down, repeat.
func (m *connMgr) run() {
	defer m.t.wg.Done()
	var hbSeq uint64
	for {
		conn, gen, ok := m.ensureConn()
		if !ok {
			m.drainQueue()
			return
		}
		dead := make(chan struct{})
		m.t.wg.Add(1)
		go m.ackReader(conn, dead)
		m.writeLoop(conn, gen, dead, &hbSeq)
		m.teardown(conn, gen)
		if m.t.isClosed() {
			m.drainQueue()
			return
		}
	}
}

// ensureConn dials the destination until it succeeds, backing off
// exponentially (capped, seeded jitter) between attempts, and parking
// politely while the destination is administratively partitioned. Returns
// ok=false when the transport closes.
func (m *connMgr) ensureConn() (net.Conn, uint64, bool) {
	for attempt := 0; ; attempt++ {
		if m.t.isClosed() {
			return nil, 0, false
		}
		if m.t.partitionedTo(m.dst) {
			select {
			case <-m.t.closeCh:
				return nil, 0, false
			case <-m.t.healSignal():
			case <-m.t.clk.After(m.t.cfg.BackoffBase * 4):
			}
			attempt = 0
			continue
		}
		if conn, gen, ok := m.dialOnce(); ok {
			return conn, gen, true
		}
		select {
		case <-m.t.closeCh:
			return nil, 0, false
		case <-m.t.clk.After(m.t.backoff(attempt)):
		}
	}
}

// dialOnce makes one connection attempt and records the liveness evidence.
func (m *connMgr) dialOnce() (net.Conn, uint64, bool) {
	addr, err := m.t.addrOf(m.dst)
	if err == nil {
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			if perr := writePreamble(conn, purposeStream); perr == nil {
				m.mu.Lock()
				m.conn = conn
				m.upFlag = true
				m.dialFails = 0
				m.gen++
				gen := m.gen
				m.mu.Unlock()
				if gen > 1 {
					m.t.reconnects.Add(1)
				}
				m.t.emitConn(events.KindConnUp, m.epIdx, uint64(m.t.reconnects.Load()), gen)
				return conn, gen, true
			}
			_ = conn.Close()
		}
	}
	m.mu.Lock()
	m.dialFails++
	m.mu.Unlock()
	return nil, 0, false
}

// writeLoop streams queued frames and periodic heartbeats until the
// connection dies, the ack reader declares it dead, or the transport
// closes. Barrier markers are stamped with the connection generation before
// they hit the wire, so teardown's sweep can recover the ones this exact
// connection loses.
func (m *connMgr) writeLoop(conn net.Conn, gen uint64, dead chan struct{}, hbSeq *uint64) {
	hb := m.t.clk.After(m.t.cfg.HeartbeatEvery)
	for {
		select {
		case it := <-m.queue:
			switch {
			case it.flush != nil:
				//lint:ignore chanowner the flush marker rides the queue exactly once; the single dequeuer (writer or drain) is its one closing owner
				close(it.flush)
			case it.barrier != nil:
				m.t.stampBarrier(it.barrier, gen)
				if _, err := conn.Write(appendFrame(nil, encodeU64Frame(fmBarrier, it.barrier.id))); err != nil {
					return
				}
			default:
				if _, err := conn.Write(it.frame); err != nil {
					return
				}
			}
		case <-hb:
			hb = m.t.clk.After(m.t.cfg.HeartbeatEvery)
			*hbSeq++
			if _, err := conn.Write(appendFrame(nil, encodeU64Frame(fmHeartbeat, *hbSeq))); err != nil {
				return
			}
		case <-dead:
			return
		case <-m.t.closeCh:
			return
		}
	}
}

// ackReader consumes heartbeat acks under a per-read deadline. Each expired
// window without any inbound frame is a miss; heartbeatMiss consecutive
// misses declare the link silently dead and close it (the writer's next
// write fails and reconnect begins).
func (m *connMgr) ackReader(conn net.Conn, dead chan struct{}) {
	defer m.t.wg.Done()
	defer close(dead)
	fr := &frameReader{r: conn}
	misses := 0
	window := m.t.cfg.HeartbeatEvery * 3 / 2
	for {
		_ = conn.SetReadDeadline(time.Now().Add(window))
		p, err := fr.next()
		if err == errDamagedFrame {
			m.t.frameDamaged()
			continue
		}
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				misses++
				m.t.heartbeatsMissed.Add(1)
				m.lastMisses.Store(int64(misses))
				if misses >= heartbeatMiss {
					_ = conn.Close()
					return
				}
				continue
			}
			return
		}
		if len(p) > 0 && p[0] == fmHeartbeatAck {
			misses = 0
			m.lastMisses.Store(0)
		}
	}
}

// teardown closes a dead connection, sweeps the barriers that died with it,
// and reports the link loss.
func (m *connMgr) teardown(conn net.Conn, gen uint64) {
	_ = conn.Close()
	m.mu.Lock()
	if m.conn == conn {
		m.conn = nil
	}
	m.upFlag = false
	m.mu.Unlock()
	m.t.sweepBarriers(m.dst, gen)
	m.t.emitConn(events.KindConnDown, m.epIdx, uint64(m.lastMisses.Load()), gen)
	m.lastMisses.Store(0)
}

// drainQueue empties the outbound queue as counted losses: data frames are
// Dropped, barriers deliver locally (never lost), flush markers release
// their waiters.
func (m *connMgr) drainQueue() {
	for {
		select {
		case it := <-m.queue:
			switch {
			case it.flush != nil:
				//lint:ignore chanowner the flush marker rides the queue exactly once; the single dequeuer (writer or drain) is its one closing owner
				close(it.flush)
			case it.barrier != nil:
				if pb := m.t.claimBarrier(it.barrier.id); pb != nil {
					m.t.deliverBarrierLocal(pb)
				}
			default:
				m.t.dropped.Add(1)
			}
		default:
			return
		}
	}
}

// partitionedTo reports the administrative cut state for a destination.
func (t *NetTransport) partitionedTo(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cut[id]
}

// endpoint is one replica's receive side: a loopback listener, an accept
// loop, and the inbox Register returned. Inbound stream connections decode
// frames into the inbox; inbound bootstrap connections are served by the
// snapshot RPC.
type endpoint struct {
	t    *NetTransport
	id   string
	idx  int
	done chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	lnErr  error
	addr   string
	inbox  chan replica.Msg
	closed bool
	mute   bool
}

// setMute is a test hook: a muted endpoint stops acking heartbeats, so
// liveness tests can simulate a silently wedged peer without killing the
// TCP connection.
func (ep *endpoint) setMute(v bool) {
	ep.mu.Lock()
	ep.mute = v
	ep.mu.Unlock()
}

// MuteEndpoint silences (or restores) heartbeat acks from an endpoint —
// the connection stays open but goes deaf, exactly the failure heartbeats
// exist to detect. Test hook.
func (t *NetTransport) MuteEndpoint(id string, mute bool) {
	t.mu.Lock()
	ep := t.eps[id]
	t.mu.Unlock()
	if ep != nil {
		ep.setMute(mute)
	}
}

func (ep *endpoint) muted() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.mute
}

func (ep *endpoint) isClosed() bool {
	select {
	case <-ep.done:
		return true
	default:
		return false
	}
}

// acceptLoop admits connections until the listener closes. Transient accept
// errors (a chaos reset racing the handshake) back off briefly and retry.
func (ep *endpoint) acceptLoop() {
	defer ep.t.wg.Done()
	for {
		conn, err := ep.ln.Accept()
		if err != nil {
			if ep.isClosed() || ep.t.isClosed() {
				return
			}
			select {
			case <-ep.done:
				return
			case <-ep.t.clk.After(time.Millisecond):
			}
			continue
		}
		ep.t.wg.Add(1)
		go ep.serveConn(conn)
	}
}

// serveConn reads the preamble and dispatches to the stream or bootstrap
// handler. A reaper goroutine severs the connection when the endpoint
// closes, so blocked reads cannot outlive the transport.
func (ep *endpoint) serveConn(conn net.Conn) {
	defer ep.t.wg.Done()
	defer func() { _ = conn.Close() }()
	served := make(chan struct{})
	defer close(served)
	ep.t.wg.Add(1)
	go func() {
		defer ep.t.wg.Done()
		select {
		case <-ep.done:
			_ = conn.Close()
		case <-served:
		}
	}()
	_ = conn.SetReadDeadline(time.Now().Add(ep.t.cfg.readIdleTimeout()))
	purpose, err := readPreamble(conn)
	if err != nil {
		return
	}
	switch purpose {
	case purposeStream:
		ep.streamLoop(conn)
	case purposeBootstrap:
		ep.t.serveBootstrap(ep, conn)
	}
}

// streamLoop decodes replication frames into the inbox. Damaged frames are
// counted and skipped (the stream stays aligned); a lost stream or an idle
// timeout kills the connection and the dialer re-establishes it.
func (ep *endpoint) streamLoop(conn net.Conn) {
	fr := &frameReader{r: conn}
	for {
		_ = conn.SetReadDeadline(time.Now().Add(ep.t.cfg.readIdleTimeout()))
		p, err := fr.next()
		if err == errDamagedFrame {
			ep.t.frameDamaged()
			continue
		}
		if err != nil {
			return
		}
		switch p[0] {
		case fmMsg:
			m, derr := decodeMsg(p)
			if derr != nil {
				ep.t.frameDamaged()
				continue
			}
			ep.deliver(m)
		case fmBarrier:
			id, derr := decodeU64Frame(p)
			if derr != nil {
				ep.t.frameDamaged()
				continue
			}
			if pb := ep.t.claimBarrier(id); pb != nil {
				ep.deliverBarrier(pb)
			}
		case fmHeartbeat:
			seq, derr := decodeU64Frame(p)
			if derr != nil {
				ep.t.frameDamaged()
				continue
			}
			if ep.muted() {
				continue
			}
			if _, werr := conn.Write(appendFrame(nil, encodeU64Frame(fmHeartbeatAck, seq))); werr != nil {
				return
			}
		default:
			ep.t.frameDamaged()
		}
	}
}

// deliver enqueues a data-plane message nonblocking: a full inbox overflows
// (counted), a closed endpoint drops — the receiver pump must never be able
// to stall the socket reader into backpressuring the primary.
func (ep *endpoint) deliver(m replica.Msg) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		ep.t.dropped.Add(1)
		return
	}
	select {
	case ep.inbox <- m:
		ep.t.delivered.Add(1)
	default:
		ep.t.overflowed.Add(1)
	}
}

// deliverBarrier enqueues a claimed barrier, blocking: barriers are never
// lost, and the receiving pump is by contract always draining. Holding
// ep.mu across the send keeps a concurrent inbox close from racing the
// enqueue; the pump consumes without ep.mu, so the send terminates.
func (ep *endpoint) deliverBarrier(pb *pendingBarrier) {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		//lint:ignore chanowner the claim table hands each barrier to exactly one closer; this path owns pb after claiming it
		close(pb.done)
		return
	}
	//lint:ignore chanowner barrier delivery must block rather than drop; the claim table makes this send exactly-once and the pump drains without ep.mu
	ep.inbox <- pb.msg
	ep.t.delivered.Add(1)
	ep.mu.Unlock()
}

// close shuts the endpoint: inbox closed (pumps drain and exit), listener
// closed (accept loop exits), live server connections reaped.
func (ep *endpoint) close() {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return
	}
	ep.closed = true
	ln := ep.ln
	close(ep.inbox)
	ep.mu.Unlock()
	close(ep.done)
	if ln != nil {
		_ = ln.Close()
	}
}
