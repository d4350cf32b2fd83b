package tcp

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"causalgc/internal/ids"
	"causalgc/internal/netsim"
	"causalgc/internal/wire"
	"causalgc/transport"
)

// maxFrame bounds a single encoded message; larger frames indicate a
// corrupted stream and close the connection.
const maxFrame = 16 << 20

// readChunk bounds the body buffer readFrame allocates ahead of the
// bytes that arrive: a length prefix is a claim, not a reservation.
const readChunk = 64 << 10

// Config configures a process-wide TCP transport.
type Config struct {
	// Listen is the address to accept peer connections on, e.g.
	// "127.0.0.1:7001" or ":0" (any port; see Network.Addr).
	Listen string
	// Peers maps remote site IDs to their processes' listen addresses.
	// Sites hosted by this process need no entry. Several sites may map
	// to the same address (one process hosting many sites); they share
	// one connection.
	Peers map[transport.SiteID]string
	// DialTimeout bounds one connection attempt. Zero means 2s.
	DialTimeout time.Duration
	// MaxBackoff caps the reconnect backoff. Zero means 1s.
	MaxBackoff time.Duration
}

// Network is a Transport over TCP sockets. Safe for concurrent use.
type Network struct {
	cfg   Config
	ln    net.Listener
	stats *transport.Stats
	// ctx is cancelled by Close: it aborts in-flight dials and backoff
	// sleeps promptly, so a dead peer cannot hold a reconnect goroutine
	// past Close.
	ctx    context.Context
	cancel context.CancelFunc

	// cut watches every local queue — the hosted sites' mailboxes and
	// the peer writers: Drain asks it whether they were all idle as one
	// consistent cut rather than a moving target.
	cut netsim.IdleCut

	mu      sync.Mutex
	peers   map[ids.SiteID]string          // site → dial address (from cfg + SetPeer)
	inboxes map[ids.SiteID]*netsim.Mailbox // locally hosted sites
	// early buffers frames that arrive for a site before it registers:
	// the listener is up before the process finishes constructing (or
	// recovering) its sites, and a fast peer can land a frame in that
	// window. Bounded per site; flushed in order on Register.
	early   map[ids.SiteID][]wire.Frame
	writers map[string]*writer    // peer address → connection writer
	conns   map[net.Conn]struct{} // accepted (inbound) connections
	closed  bool
	wg      sync.WaitGroup
}

// maxEarly bounds the frames buffered per not-yet-registered site and
// maxEarlySites the distinct site IDs buffered for; overflow is
// dropped and counted, mutator frames included (see readLoop). The site bound keeps stale routing — a
// peer persistently addressing sites this process never hosts — from
// growing the map without limit.
const (
	maxEarly      = 256
	maxEarlySites = 16
)

var _ transport.Transport = (*Network)(nil)

// New starts a TCP transport: it listens on cfg.Listen immediately and
// dials peers lazily on first send.
func New(cfg Config) (*Network, error) {
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.MaxBackoff == 0 {
		cfg.MaxBackoff = time.Second
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", cfg.Listen, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Network{
		cfg:     cfg,
		ln:      ln,
		stats:   transport.NewStats(),
		ctx:     ctx,
		cancel:  cancel,
		peers:   make(map[ids.SiteID]string, len(cfg.Peers)),
		inboxes: make(map[ids.SiteID]*netsim.Mailbox),
		early:   make(map[ids.SiteID][]wire.Frame),
		writers: make(map[string]*writer),
		conns:   make(map[net.Conn]struct{}),
	}
	for site, addr := range cfg.Peers {
		n.peers[site] = addr
	}
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the transport's bound listen address (useful with ":0").
func (n *Network) Addr() net.Addr { return n.ln.Addr() }

// Stats returns the delivery statistics.
func (n *Network) Stats() *transport.Stats { return n.stats }

// Register installs the handler for a locally hosted site and starts its
// delivery goroutine. Registering after Close is a no-op.
func (n *Network) Register(site ids.SiteID, h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if in, ok := n.inboxes[site]; ok {
		in.SetHandler(h)
		return
	}
	in := netsim.StartMailbox(h, &n.cut, n.stats, &n.wg)
	n.inboxes[site] = in
	// Flush frames that raced the registration, in arrival order, before
	// any new frame can reach the inbox (both paths hold n.mu).
	for _, f := range n.early[site] {
		in.Enqueue(f.From, f.Payload)
	}
	delete(n.early, site)
}

// Send queues p for delivery to site `to`: in memory when the site is
// hosted by this process, over the peer connection otherwise. Unroutable
// destinations (no local handler, no Peers entry) count as dropped.
func (n *Network) Send(from, to ids.SiteID, p transport.Payload) {
	n.stats.RecordSent(p)

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.stats.RecordDropped(p)
		return
	}
	if in, ok := n.inboxes[to]; ok {
		n.mu.Unlock()
		if !in.Enqueue(from, p) {
			n.stats.RecordDropped(p)
		}
		return
	}
	addr, ok := n.peers[to]
	if !ok {
		n.mu.Unlock()
		n.stats.RecordDropped(p)
		return
	}
	w, ok := n.writers[addr]
	if !ok {
		w = newWriter(n, addr)
		n.writers[addr] = w
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			w.run()
		}()
	}
	n.mu.Unlock()

	buf, err := encodeFrame(wire.Frame{From: from, To: to, Payload: p})
	if err != nil {
		n.stats.RecordDropped(p)
		return
	}
	if !w.enqueue(outFrame{buf: buf, p: p}) {
		n.stats.RecordDropped(p)
	}
}

// Close stops the listener, the delivery goroutines and the peer
// connections, and joins them. Queued frames that were not yet written
// are dropped (recorded in Stats); Send after Close drops.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.cancel() // abort in-flight dials and reconnect backoffs
	err := n.ln.Close()
	for _, in := range n.inboxes {
		in.Close()
	}
	for _, w := range n.writers {
		w.close()
	}
	for c := range n.conns {
		c.Close()
	}
	for site, fs := range n.early {
		for _, f := range fs {
			n.stats.RecordDropped(f.Payload)
		}
		delete(n.early, site)
	}
	n.mu.Unlock()
	n.wg.Wait()
	return err
}

// Drain implements transport.Drainer: it blocks until every outbound
// writer queue has been written to its socket and every local inbox is
// empty with no handler running, or the timeout elapses, reporting
// whether it drained. Best-effort by construction — bytes in the OS
// buffers, on the wire, or queued inside a peer process are out of
// reach — but it replaces guessing with observation: dial/reconnect
// backoffs hold frames in the writer queues, and Drain waits those
// flushes out instead of sleeping a fixed interval.
func (n *Network) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	confirmed := false
	poll := 200 * time.Microsecond
	for {
		if n.cut.Idle() {
			// Two consistent flushed cuts separated by a short grace
			// interval: a frame this process wrote to a loopback socket
			// moments ago surfaces as inbox activity during the grace
			// and un-confirms, so same-process traffic settles before
			// Drain reports success. (Frames in flight to another
			// process remain out of reach — best effort.)
			if confirmed {
				return true
			}
			confirmed = true
			poll = 200 * time.Microsecond
		} else {
			confirmed = false
		}
		if time.Now().After(deadline) {
			return false
		}
		// Unflushed polls back off exponentially (200µs → 10ms): a
		// frame stuck behind a dead peer's reconnect backoff should not
		// have the whole timeout busy-spinning over every queue mutex.
		wait := poll
		if confirmed {
			wait = 2 * time.Millisecond
		} else if poll < 10*time.Millisecond {
			poll *= 2
		}
		select {
		case <-n.ctx.Done():
			return false
		case <-time.After(wait):
		}
	}
}

// SetPeer adds or updates the dial address for a remote site at runtime
// (e.g. after a peer bound an ephemeral port). It does not affect frames
// already queued to the old address.
func (n *Network) SetPeer(site ids.SiteID, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[site] = addr
}

// --- inbound path --------------------------------------------------------

func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.wg.Add(1)
		n.mu.Unlock()
		go func() {
			defer n.wg.Done()
			n.readLoop(conn)
		}()
	}
}

func (n *Network) readLoop(conn net.Conn) {
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
	for {
		f, err := readFrame(conn)
		if err != nil {
			return // EOF, peer reset, or corrupt stream: drop the conn
		}
		n.mu.Lock()
		in := n.inboxes[f.To]
		if in == nil && !n.closed {
			q, known := n.early[f.To]
			if (known || len(n.early) < maxEarlySites) && len(q) < maxEarly {
				// The site has not registered yet (process still starting
				// or recovering): buffer until it does.
				n.early[f.To] = append(q, f)
				n.mu.Unlock()
				continue
			}
		}
		n.mu.Unlock()
		if in == nil || !in.Enqueue(f.From, f.Payload) {
			// Buffer overflow (a site not registered yet, or one this
			// process never hosts) or delivered after Close: dropped
			// and counted. A durable sender re-sends a lost mutator
			// frame at its next Refresh; a volatile sender never does,
			// so its lost Create or RefTransfer is gone for good
			// (TestEarlyOverflowLosesVolatileCreates).
			n.stats.RecordDropped(f.Payload)
		}
	}
}

// --- outbound path -------------------------------------------------------

// writer owns the single outgoing connection to one peer process: a
// queue, a dial/redial loop with exponential backoff, and in-order
// writes. A frame is retried across reconnects until written or the
// transport closes.
type writer struct {
	net  *Network
	addr string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []outFrame
	closed bool

	conn net.Conn // owned by run(); under mu only for close()
}

type outFrame struct {
	buf []byte
	p   transport.Payload // for drop accounting
}

func newWriter(n *Network, addr string) *writer {
	w := &writer{net: n, addr: addr}
	w.cond = sync.NewCond(&w.mu)
	n.cut.Watch(w)
	return w
}

// Idle reports whether the writer has written every queued frame to
// its socket (the queue head is not popped until written, so an empty
// queue means all handed to the OS).
func (w *writer) Idle() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.queue) == 0
}

func (w *writer) enqueue(f outFrame) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.net.cut.Tick() // before the append: see netsim.IdleCut
	w.queue = append(w.queue, f)
	w.cond.Signal()
	return true
}

func (w *writer) close() {
	w.mu.Lock()
	w.closed = true
	if w.conn != nil {
		w.conn.Close()
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

func (w *writer) run() {
	defer func() {
		w.mu.Lock()
		if w.conn != nil {
			w.conn.Close()
			w.conn = nil
		}
		dropped := w.queue
		w.queue = nil
		w.mu.Unlock()
		for _, f := range dropped {
			w.net.stats.RecordDropped(f.p)
		}
	}()
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.closed {
			w.mu.Unlock()
			return
		}
		f := w.queue[0]
		w.mu.Unlock()

		if !w.write(f.buf) {
			return // transport closed while (re)dialing
		}

		w.mu.Lock()
		w.queue = w.queue[1:]
		w.mu.Unlock()
	}
}

// write sends one frame, dialing and redialing as needed. It returns
// false only when the transport closed.
func (w *writer) write(buf []byte) bool {
	backoff := 20 * time.Millisecond
	for {
		conn := w.ensureConn(&backoff)
		if conn == nil {
			return false
		}
		if _, err := conn.Write(buf); err == nil {
			return true
		}
		w.dropConn(conn)
		// Loop: redial and retransmit the same frame. In-order delivery
		// holds because the queue head is not popped until written.
	}
}

func (w *writer) ensureConn(backoff *time.Duration) net.Conn {
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return nil
		}
		if w.conn != nil {
			conn := w.conn
			w.mu.Unlock()
			return conn
		}
		w.mu.Unlock()

		// DialContext bounds the attempt by the configured dial timeout
		// and aborts it the moment the transport closes.
		dialer := net.Dialer{Timeout: w.net.cfg.DialTimeout}
		conn, err := dialer.DialContext(w.net.ctx, "tcp", w.addr)
		if err != nil {
			if !w.sleep(*backoff) {
				return nil
			}
			if *backoff *= 2; *backoff > w.net.cfg.MaxBackoff {
				*backoff = w.net.cfg.MaxBackoff
			}
			continue
		}
		*backoff = 20 * time.Millisecond
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			conn.Close()
			return nil
		}
		w.conn = conn
		w.mu.Unlock()
		return conn
	}
}

// sleep waits out one backoff interval, returning early (false) when
// the transport closes.
func (w *writer) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-w.net.ctx.Done():
		return false
	}
}

func (w *writer) dropConn(conn net.Conn) {
	conn.Close()
	w.mu.Lock()
	if w.conn == conn {
		w.conn = nil
	}
	w.mu.Unlock()
}

// --- framing ------------------------------------------------------------

// encodeFrame renders a frame for the socket: a 4-byte big-endian length
// followed by the body internal/wire encodes. Each body is
// self-contained, so a receiver can resynchronise per frame and a
// reconnecting sender needs no codec state.
func encodeFrame(f wire.Frame) ([]byte, error) {
	var body bytes.Buffer
	body.Write([]byte{0, 0, 0, 0})
	if err := wire.EncodeFrame(&body, &f); err != nil {
		return nil, fmt.Errorf("tcp: %T: %w", f.Payload, err)
	}
	buf := body.Bytes()
	if len(buf)-4 > maxFrame {
		// Writing an oversized frame would poison the connection: the
		// receiver rejects it and drops the whole stream, and a retry
		// would re-kill the reconnected connection.
		return nil, fmt.Errorf("tcp: frame for %T is %d bytes, exceeds %d", f.Payload, len(buf)-4, maxFrame)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf, nil
}

// readFrame reads one length-prefixed frame and has internal/wire decode
// its body.
func readFrame(r io.Reader) (wire.Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return wire.Frame{}, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > maxFrame {
		return wire.Frame{}, fmt.Errorf("tcp: bad frame size %d", size)
	}
	body, err := readBody(r, int(size))
	if err != nil {
		return wire.Frame{}, err
	}
	return wire.DecodeFrame(body)
}

// readBody reads exactly size bytes. The buffer starts at readChunk at
// most and doubles only once full, so a peer that claims a large frame
// and then stalls or hangs up costs what it sent, not what it claimed.
func readBody(r io.Reader, size int) ([]byte, error) {
	body := make([]byte, 0, min(size, readChunk))
	for len(body) < size {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(size-len(body), len(body)))
		}
		n, err := io.ReadFull(r, body[len(body):min(size, cap(body))])
		body = body[:len(body)+n]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header promised a body
		}
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}
