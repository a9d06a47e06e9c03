// Package session is the client session shared by Wren, Cure and H-Cure:
// the transaction lifecycle of the paper's Algorithm 1 (START, READ,
// WRITE, COMMIT) with everything around it that does not depend on the
// protocol — request timeouts and retries, coordinator failover, commit
// fencing by termination probes, and the read-only commit failover.
//
// The protocols differ only in how a session represents and folds back its
// causal past. Wren keeps two scalar snapshot times plus a cache of its own
// writes (lst_c, rst_c, WC_c); Cure keeps a dependency vector. That is the
// Causal seam, implemented by package core and package cure. The session
// keeps hwt_c, the commit time of its last update transaction, itself.
//
// Every round trip goes through a Conn. A session bound to a shared pool
// pipelines with the pool's other sessions; an "unpooled" session is a
// one-endpoint pool of its own (pool.Single), one NodeID per session.
package session

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"wren/internal/hlc"
	"wren/internal/transport"
	"wren/internal/wire"
)

// Client errors, matched with errors.Is.
var (
	// ErrTxOpen is returned by Begin while another transaction is open on
	// the same session (the paper's clients issue one operation at a time).
	ErrTxOpen = errors.New("session: a transaction is already open on this session")
	// ErrTxDone is returned when operating on a committed or aborted
	// transaction.
	ErrTxDone = errors.New("session: transaction already finished")
	// ErrTimeout is returned when the coordinator does not answer in time.
	ErrTimeout = errors.New("session: request timed out")
	// ErrClosed is returned after the client session is closed.
	ErrClosed = errors.New("session: client closed")
	// ErrTxExpired is returned by Read when the coordinator no longer holds
	// the transaction's context: it expired (the server's TxContextTTL) or
	// the coordinator restarted. The snapshot is gone, so nothing was read;
	// abort and run the transaction again.
	ErrTxExpired = errors.New("session: transaction context expired on the coordinator")
	// ErrReadOnly is returned by Commit when the server refused the write
	// because its durability is degraded (a failed storage engine or
	// transaction log shed it into read-only admission). The transaction
	// did not commit; callers can retry against a different coordinator or
	// surface the outage.
	ErrReadOnly = errors.New("session: server is read-only (durability degraded)")
	// ErrAborted is returned by Commit when the transaction definitely did
	// not commit: the coordinator refused it, or answered a termination
	// probe "not committed" and thereby fenced the transaction id, so the
	// original commit can never land late. The session may safely re-run
	// the transaction.
	ErrAborted = errors.New("session: transaction aborted")
	// ErrInDoubt is returned by Commit when the acknowledgement was lost
	// and every termination probe also went unanswered: the transaction may
	// or may not have committed. It wraps the original failure, so
	// errors.Is(err, ErrTimeout) still holds.
	ErrInDoubt = errors.New("session: commit outcome in doubt")
)

// DefaultRequestTimeout bounds each client-coordinator round trip.
const DefaultRequestTimeout = 10 * time.Second

// RetryPolicy controls how a session reacts to timed-out or transiently
// failed round trips. The zero value disables retries and preserves
// single-attempt semantics.
type RetryPolicy struct {
	// Attempts is the number of additional tries after the first failure
	// for idempotent requests (Begin, Read, Scan, Health), and the number
	// of termination probes issued for an unacknowledged commit. Commits
	// themselves are never resent after a timeout — see Tx.Commit.
	Attempts int
	// Backoff is the delay before the first retry; it doubles per attempt
	// and is capped at 500ms. Zero selects 5ms.
	Backoff time.Duration
}

// delay returns the backoff before retry number attempt (1-based).
func (rp RetryPolicy) delay(attempt int) time.Duration {
	b := rp.Backoff
	if b <= 0 {
		b = 5 * time.Millisecond
	}
	d := b << uint(attempt-1)
	if max := 500 * time.Millisecond; d > max || d <= 0 {
		d = max
	}
	return d
}

// Conn is a session's handle on a connection pool
// (internal/transport/pool). It is declared structurally so the session
// does not depend on the pool package; *pool.Conn satisfies it.
type Conn interface {
	Call(to transport.NodeID, timeout time.Duration, build func(reqID uint64) wire.Message) (wire.Message, error)
}

// Causal is a protocol's representation of the session's causal past.
// Every method is called with the session mutex held.
type Causal interface {
	// StartReq returns a START request carrying the causal past a new
	// snapshot must include (Wren: lst_c and rst_c; Cure: the dependency
	// vector). It is returned by value so that it does not escape.
	StartReq() wire.StartTxReq
	// FoldStart folds the snapshot a coordinator assigned back into the
	// causal past (Wren also prunes its write cache here).
	FoldStart(resp *wire.StartTxResp)
	// Lookup returns the session's own committed write of key that the
	// transaction snapshot may not include yet; a nil value is an own
	// delete. Protocols whose snapshots always cover the session's writes
	// report false.
	Lookup(key string) (value []byte, ok bool)
	// FoldCommit records that the write set ws committed at ct.
	FoldCommit(ct hlc.Timestamp, ws map[string][]byte)
}

// Config configures a client session.
type Config struct {
	// DC is the session's local data center.
	DC int
	// NumPartitions is the number of partitions per DC.
	NumPartitions int
	// Conn carries every round trip of the session.
	Conn Conn
	// CoordinatorPartition fixes the coordinator partition; a negative
	// value picks a random coordinator per transaction (the paper's default
	// behaviour; the evaluation collocates clients with one coordinator).
	CoordinatorPartition int
	// RequestTimeout bounds each round trip. Zero selects
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Retry controls timeout-driven retries and commit termination
	// probing. The zero value keeps every request single-attempt.
	Retry RetryPolicy
	// Failover retries a commit refused as read-only or aborted once,
	// against a different coordinator partition (see Tx.Commit).
	Failover bool
	// Rand seeds coordinator selection; nil uses a time-seeded source.
	Rand *rand.Rand
}

// Session is a client session. It runs one transaction at a time;
// concurrent sessions use separate Sessions.
type Session struct {
	rng *rand.Rand

	mu     sync.Mutex
	cfg    Config // DC, CoordinatorPartition and Conn change under mu (Move)
	causal Causal
	hwt    hlc.Timestamp // hwt_c: commit time of the last update transaction
	tx     *Tx
	// spare holds the transaction maps while no transaction has them. A
	// session runs one transaction at a time, so one set serves every
	// transaction; it is lent out by BeginAt and handed back, emptied, by
	// Tx.release.
	spare  txMaps
	closed bool
}

// txMaps is the per-transaction client state of Algorithm 1: the write
// set, the read set, and the keys the snapshot is known not to hold.
type txMaps struct {
	ws     map[string][]byte
	rs     map[string][]byte
	rsMiss map[string]struct{} // keys known absent in this snapshot
}

// New creates a session whose causal past is represented by causal.
func New(cfg Config, causal Causal) (*Session, error) {
	if cfg.Conn == nil {
		return nil, fmt.Errorf("session: a connection is required")
	}
	if cfg.NumPartitions <= 0 {
		return nil, fmt.Errorf("session: NumPartitions must be positive")
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return &Session{cfg: cfg, rng: rng, causal: causal}, nil
}

// Config returns the session's current configuration.
func (s *Session) Config() Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg
}

// Do runs fn with the session mutex held, serialising it with every use
// the session makes of its causal state.
func (s *Session) Do(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Idle runs fn with the session mutex held, provided the session is open
// and has no transaction in flight; fn receives hwt_c.
func (s *Session) Idle(fn func(hwt hlc.Timestamp)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.tx != nil {
		return ErrTxOpen
	}
	fn(s.hwt)
	return nil
}

// Move re-homes an idle session in data center dc: later transactions use
// the given coordinator partition and connection. fold runs under the
// session mutex to adopt the new DC's snapshot into the causal state.
func (s *Session) Move(dc, coordinator int, conn Conn, fold func()) error {
	return s.Idle(func(hlc.Timestamp) {
		s.cfg.DC, s.cfg.CoordinatorPartition, s.cfg.Conn = dc, coordinator, conn
		fold()
	})
}

// Close terminates the session. An open transaction is abandoned (its
// server-side context expires via the coordinator's TTL sweep).
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.tx = nil
}

// Health probes the durability/admission state of one partition server in
// the session's DC: whether it has shed into read-only admission, and the
// first write-path failure it recorded (empty while healthy). This is the
// operator-facing path behind wren-cli's health command.
func (s *Session) Health(partition int) (readOnly bool, detail string, err error) {
	cfg := s.Config()
	if partition < 0 || partition >= cfg.NumPartitions {
		return false, "", fmt.Errorf("session: partition %d out of range [0,%d)", partition, cfg.NumPartitions)
	}
	resp, err := s.CallRetry(transport.ServerID(cfg.DC, partition), func(reqID uint64) wire.Message {
		return &wire.HealthReq{ReqID: reqID}
	})
	if err != nil {
		return false, "", err
	}
	hr, ok := resp.(*wire.HealthResp)
	if !ok {
		return false, "", fmt.Errorf("session: unexpected response %T to HealthReq", resp)
	}
	return hr.ReadOnly, hr.Err, nil
}

// RoundTrip performs one request/response round trip through the
// session's Conn. build receives the attempt's request id and returns the
// message to send. A BusyResp — the server's admission pushback —
// surfaces as an error matching transport.ErrOverloaded, so retry loops
// back off and try again instead of hot-looping.
func (s *Session) RoundTrip(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	s.mu.Lock()
	closed, conn, timeout := s.closed, s.cfg.Conn, s.cfg.RequestTimeout
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	resp, err := conn.Call(to, timeout, build)
	if err != nil {
		if errors.Is(err, transport.ErrTimeout) {
			return nil, fmt.Errorf("%w (request to %v)", ErrTimeout, to)
		}
		if errors.Is(err, transport.ErrClosed) {
			return nil, fmt.Errorf("%w (connection closed)", ErrClosed)
		}
		return nil, err
	}
	if _, busy := resp.(*wire.BusyResp); busy {
		return nil, fmt.Errorf("%w: %v shed the request at admission", transport.ErrOverloaded, to)
	}
	return resp, nil
}

// CallRetry performs a round trip, retrying timed-out or transiently
// failed attempts per the session's retry policy. It is only safe for
// idempotent requests: each attempt carries a fresh request id, so a late
// response to an abandoned attempt matches no waiting call and is dropped.
func (s *Session) CallRetry(to transport.NodeID, build func(reqID uint64) wire.Message) (wire.Message, error) {
	var err error
	for attempt := 0; attempt <= s.cfg.Retry.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(s.cfg.Retry.delay(attempt))
		}
		var resp wire.Message
		resp, err = s.RoundTrip(to, build)
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
	}
	return nil, err
}

// Begin starts an interactive transaction (Algorithm 1, START) on the
// configured coordinator.
func (s *Session) Begin() (*Tx, error) {
	return s.BeginAt(s.Config().CoordinatorPartition)
}

// BeginAt starts a transaction on an explicit coordinator partition; a
// negative value picks a random one (the Begin default). It is the
// failover entry point: the session's causal state carries over, so a
// transaction retried on another coordinator still commits strictly after
// everything this session has observed.
func (s *Session) BeginAt(coordinator int) (*Tx, error) {
	if coordinator >= s.cfg.NumPartitions {
		return nil, fmt.Errorf("session: coordinator partition %d out of range [0,%d)", coordinator, s.cfg.NumPartitions)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.tx != nil {
		s.mu.Unlock()
		return nil, ErrTxOpen
	}
	req := s.causal.StartReq()
	dc := s.cfg.DC
	s.mu.Unlock()

	// Begin is idempotent (an unanswered StartTxReq just leaves an expiring
	// context behind), so timeouts fail over to an alternate coordinator:
	// any partition in the DC can serve the snapshot.
	var st *wire.StartTxResp
	var partition int
	var lastErr error
	for attempt := 0; attempt <= s.cfg.Retry.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(s.cfg.Retry.delay(attempt))
		}
		partition = coordinator
		if partition < 0 {
			s.mu.Lock()
			partition = s.rng.Intn(s.cfg.NumPartitions)
			s.mu.Unlock()
		} else if attempt > 0 {
			partition = (coordinator + attempt) % s.cfg.NumPartitions
		}
		resp, err := s.RoundTrip(transport.ServerID(dc, partition), func(reqID uint64) wire.Message {
			r := req
			r.ReqID = reqID
			return &r
		})
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}
		var ok bool
		if st, ok = resp.(*wire.StartTxResp); !ok {
			return nil, fmt.Errorf("session: unexpected response %T to StartTxReq", resp)
		}
		break
	}
	if st == nil {
		return nil, lastErr
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.causal.FoldStart(st)
	maps := s.spare
	s.spare = txMaps{}
	if maps.ws == nil {
		// First transaction of the session, or a failover replay while the
		// refused transaction still holds the session's set.
		maps = txMaps{
			ws:     make(map[string][]byte),
			rs:     make(map[string][]byte),
			rsMiss: make(map[string]struct{}),
		}
	}
	tx := &Tx{
		s:         s,
		coord:     transport.ServerID(dc, partition),
		partition: partition,
		start:     st,
		txMaps:    maps,
	}
	s.tx = tx
	return tx, nil
}

func (s *Session) clearTx(t *Tx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == t {
		s.tx = nil
	}
}

// release hands the transaction's maps back to the session, emptied with
// their capacity kept, once its outcome is settled. The Tx drops its
// references, so a stale handle can never see a later transaction's state.
func (t *Tx) release() {
	if t.ws == nil {
		return
	}
	s := t.s
	s.mu.Lock()
	if s.spare.ws == nil {
		clear(t.ws)
		clear(t.rs)
		clear(t.rsMiss)
		s.spare = t.txMaps
	}
	s.mu.Unlock()
	t.txMaps = txMaps{}
}

// Tx is an interactive read-write transaction. Its maps belong to the
// session and go back to it when the transaction commits or aborts.
type Tx struct {
	s         *Session
	coord     transport.NodeID
	partition int // coordinator partition index
	start     *wire.StartTxResp
	txMaps
	done    bool
	blocked int64 // max server-reported read blocking, in microseconds
}

// ID returns the transaction identifier assigned by the coordinator.
func (t *Tx) ID() uint64 { return t.start.TxID }

// Coordinator returns the coordinator partition this transaction ran on —
// the partition a failover retry must avoid.
func (t *Tx) Coordinator() int { return t.partition }

// Start returns the coordinator's START reply: the transaction's snapshot
// (Wren's LST and RST, or Cure's snapshot vector).
func (t *Tx) Start() *wire.StartTxResp { return t.start }

// Done reports whether the transaction has committed or aborted.
func (t *Tx) Done() bool { return t.done }

// Writes returns the buffered write set, a nil value marking a delete.
// Callers must not modify it. It is nil once the transaction has finished:
// the map went back to the session for its next transaction.
func (t *Tx) Writes() map[string][]byte { return t.ws }

// Blocked returns the longest time any read of this transaction spent
// blocked on a server. It is always zero in Wren — the protocol's defining
// property — and Figure 3b's measured quantity for Cure.
func (t *Tx) Blocked() time.Duration {
	return time.Duration(t.blocked) * time.Microsecond
}

// Read returns the values of the given keys within the transaction
// snapshot (Algorithm 1, READ). Keys never written anywhere are absent
// from the result map.
func (t *Tx) Read(keys ...string) (map[string][]byte, error) {
	if t.done {
		return nil, ErrTxDone
	}
	result := make(map[string][]byte, len(keys))
	var missing []string
	t.s.mu.Lock()
	for _, k := range keys {
		if v, ok := t.ws[k]; ok { // own uncommitted write (nil = own delete)
			if v != nil {
				result[k] = v
			}
			continue
		}
		if v, ok := t.rs[k]; ok { // repeatable read
			result[k] = v
			continue
		}
		if _, ok := t.rsMiss[k]; ok { // known absent in this snapshot
			continue
		}
		if v, ok := t.s.causal.Lookup(k); ok { // own committed write not in snapshot
			if v == nil {
				// Own committed delete: the key reads as absent even though
				// the tombstone may not be in the snapshot yet.
				t.rsMiss[k] = struct{}{}
				continue
			}
			result[k] = v
			t.rs[k] = v
			continue
		}
		if missing == nil {
			// The request carries this buffer, and in-process transports
			// share a request by pointer — a duplicated frame can still be
			// read after the response arrived — so it is allocated per
			// request, at its largest size, rather than recycled.
			missing = make([]string, 0, len(keys))
		}
		missing = append(missing, k)
	}
	t.s.mu.Unlock()

	if len(missing) == 0 {
		return result, nil
	}
	resp, err := t.s.CallRetry(t.coord, func(reqID uint64) wire.Message {
		return &wire.TxReadReq{ReqID: reqID, TxID: t.start.TxID, Keys: missing}
	})
	if err != nil {
		return nil, err
	}
	rr, ok := resp.(*wire.TxReadResp)
	if !ok {
		return nil, fmt.Errorf("session: unexpected response %T to TxReadReq", resp)
	}
	if rr.Expired {
		// The snapshot is gone: reading the keys as absent (and caching
		// that) would report committed data as never written.
		wire.PutTxReadResp(rr)
		return nil, fmt.Errorf("%w (transaction %d)", ErrTxExpired, t.start.TxID)
	}
	if rr.BlockedMicros > t.blocked {
		t.blocked = rr.BlockedMicros
	}
	for i := range rr.Items {
		it := &rr.Items[i]
		result[it.Key] = it.Value
		t.rs[it.Key] = it.Value
	}
	// Large read sets arrive partly as chunks: slice buffers the fan-in
	// retained by reference instead of copying into Items.
	for _, chunk := range rr.Chunks {
		for i := range chunk {
			it := &chunk[i]
			result[it.Key] = it.Value
			t.rs[it.Key] = it.Value
		}
	}
	// Keys absent from the reply are unwritten in this snapshot: record
	// the absence so repeated reads stay stable.
	for _, k := range missing {
		if _, ok := t.rs[k]; !ok {
			t.rsMiss[k] = struct{}{}
		}
	}
	// The response message is pooled server-side; everything needed has
	// been copied out (values are referenced, never mutated), so the
	// session — the receiving end — releases it.
	wire.PutTxReadResp(rr)
	return result, nil
}

// Write buffers updates in the transaction's write set (Algorithm 1,
// WRITE); they become visible atomically at commit. A nil value is
// normalized to an empty one — deletion is expressed via Delete.
func (t *Tx) Write(key string, value []byte) error {
	if t.done {
		return ErrTxDone
	}
	if value == nil {
		value = []byte{}
	}
	t.ws[key] = value
	return nil
}

// Delete buffers a deletion of key: at commit it installs a tombstone that
// hides every older version, and once the deletion is stable GC drops the
// key's chain entirely. Within this transaction, and from then on within
// this session, the key reads as absent.
func (t *Tx) Delete(key string) error {
	if t.done {
		return ErrTxDone
	}
	t.ws[key] = nil
	return nil
}

// Commit makes the write set durable and atomically visible (Algorithm 1,
// COMMIT). It returns the commit timestamp, or zero for read-only
// transactions. After Commit the transaction cannot be used.
//
// With Config.Failover set, a commit refused as read-only or aborted is
// retried once on a different coordinator partition. Either refusal means
// the transaction did not commit anywhere, so replaying its write set
// through a fresh transaction on the same session is safe, and the
// session's causal state makes the retried commit land strictly after
// everything the session has observed.
func (t *Tx) Commit() (hlc.Timestamp, error) {
	// The maps go back to the session only after any failover replay of
	// t.ws has finished.
	defer t.release()
	ct, err := t.commit()
	if err == nil || !t.s.cfg.Failover {
		return ct, err
	}
	n := t.s.cfg.NumPartitions
	alt := -1
	switch {
	case errors.Is(err, ErrReadOnly):
		// The refusing coordinator is degraded; probe the remaining
		// partitions for a healthy one. If none answers healthy, the
		// original refusal stands.
		for p := 0; p < n; p++ {
			if p == t.partition {
				continue
			}
			if ro, _, herr := t.s.Health(p); herr == nil && !ro {
				alt = p
				break
			}
		}
	case errors.Is(err, ErrAborted):
		// The commit is fenced and can never land. The coordinator may
		// merely be unreachable rather than unhealthy, so skip the health
		// hunt and go straight to the next partition.
		alt = (t.partition + 1) % n
	default:
		return 0, err
	}
	if alt < 0 || alt == t.partition {
		return 0, err
	}
	retry, berr := t.s.BeginAt(alt)
	if berr != nil {
		return 0, err
	}
	defer retry.release()
	// The write set is already last-write-wins. A second refusal (or any
	// other failure) surfaces directly: the failover retries once.
	retry.ws = t.ws
	return retry.commit()
}

// commit runs one commit attempt and settles its outcome.
func (t *Tx) commit() (hlc.Timestamp, error) {
	if t.done {
		return 0, ErrTxDone
	}
	t.done = true
	s := t.s
	defer s.clearTx(t)

	writes := make([]wire.KV, 0, len(t.ws))
	for k, v := range t.ws {
		writes = append(writes, wire.KV{Key: k, Value: v, Tombstone: v == nil})
	}
	s.mu.Lock()
	hwt := s.hwt
	s.mu.Unlock()

	var resp wire.Message
	var err error
	for attempt := 0; ; attempt++ {
		resp, err = s.RoundTrip(t.coord, func(reqID uint64) wire.Message {
			return &wire.CommitReq{ReqID: reqID, TxID: t.start.TxID, HWT: hwt, Writes: writes}
		})
		// Overload pushback (a BusyResp, or a full transport queue) means
		// the request was shed before any processing — unlike a timeout it
		// is provably safe to resend the CommitReq after a backoff.
		if err == nil || !errors.Is(err, transport.ErrOverloaded) || attempt >= s.cfg.Retry.Attempts {
			break
		}
		time.Sleep(s.cfg.Retry.delay(attempt + 1))
	}
	if err != nil {
		// A transaction without writes has nothing that could land late,
		// so its lost ack needs no termination probe (which would fence
		// the id and turn a harmless timeout into an abort).
		if len(writes) == 0 || errors.Is(err, ErrClosed) || errors.Is(err, transport.ErrOverloaded) ||
			s.cfg.Retry.Attempts <= 0 {
			return 0, err
		}
		// The acknowledgement was lost but the commit may have landed.
		// Never resend the CommitReq — re-driving an in-doubt 2PC could
		// double-apply — resolve the outcome via termination probes.
		return t.resolveCommit(err)
	}
	cr, ok := resp.(*wire.CommitResp)
	if !ok {
		return 0, fmt.Errorf("session: unexpected response %T to CommitReq", resp)
	}
	switch cr.Code {
	case wire.CommitOK:
	case wire.CommitErrAborted:
		return 0, fmt.Errorf("%w: %s", ErrAborted, cr.Err)
	default:
		return 0, fmt.Errorf("%w: %s", ErrReadOnly, cr.Err)
	}
	if len(writes) == 0 {
		return 0, nil
	}
	t.fold(cr.CT)
	return cr.CT, nil
}

// fold records a commit in hwt_c and the causal state (Algorithm 1 lines
// 29–31). Shared by the direct acknowledgement and a committed verdict
// from a termination probe.
func (t *Tx) fold(ct hlc.Timestamp) {
	if ct == 0 || len(t.ws) == 0 {
		return
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if ct > t.s.hwt {
		t.s.hwt = ct
	}
	t.s.causal.FoldCommit(ct, t.ws)
}

// resolveCommit settles a commit whose acknowledgement was lost by probing
// the coordinator with TxStatusReq. A committed verdict recovers the commit
// timestamp and completes the session bookkeeping; a "not committed"
// verdict is final — answering it fenced the transaction id on the
// coordinator, so the original CommitReq can never land late and the
// caller may safely re-run the transaction. If every probe also goes
// unanswered (the 2PC may still be in flight, leaving the coordinator
// deliberately silent), the outcome stays ErrInDoubt.
func (t *Tx) resolveCommit(cause error) (hlc.Timestamp, error) {
	s := t.s
	for attempt := 1; attempt <= s.cfg.Retry.Attempts; attempt++ {
		time.Sleep(s.cfg.Retry.delay(attempt))
		resp, err := s.RoundTrip(t.coord, func(reqID uint64) wire.Message {
			return &wire.TxStatusReq{ReqID: reqID, TxID: t.start.TxID}
		})
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return 0, err
			}
			continue
		}
		sr, ok := resp.(*wire.TxStatusResp)
		if !ok || sr.TxID != t.start.TxID {
			continue
		}
		if sr.Committed {
			t.fold(sr.CT)
			return sr.CT, nil
		}
		return 0, fmt.Errorf("%w: fenced by termination probe after %v", ErrAborted, cause)
	}
	return 0, fmt.Errorf("%w: %w", ErrInDoubt, cause)
}

// Abort abandons the transaction, releasing its coordinator context.
func (t *Tx) Abort() error {
	if t.done {
		return ErrTxDone
	}
	t.done = true
	defer t.release()
	defer t.s.clearTx(t)
	// An empty commit releases the server-side context without a 2PC.
	_, err := t.s.RoundTrip(t.coord, func(reqID uint64) wire.Message {
		return &wire.CommitReq{ReqID: reqID, TxID: t.start.TxID}
	})
	return err
}
