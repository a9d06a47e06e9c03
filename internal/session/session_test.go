package session_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"wren/internal/core"
	"wren/internal/cure"
	"wren/internal/hlc"
	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/wire"
)

// fakeConn answers a session's round trips from a script instead of a
// server, and records every request it was handed.
type fakeConn struct {
	mu     sync.Mutex
	sent   []wire.Message
	to     []transport.NodeID
	commit func(n int, req *wire.CommitReq) (wire.Message, error)   // n counts CommitReqs from 1
	status func(n int, req *wire.TxStatusReq) (wire.Message, error) // n counts TxStatusReqs from 1
	health func(to transport.NodeID) *wire.HealthResp
	// emptyLost times out every CommitReq without writes.
	emptyLost bool
	counts    map[wire.Kind]int
	nextTx    uint64
}

// Snapshot times the fake coordinator hands out: below every commit time
// the scripts return, so Wren's write cache is never pruned by them.
const (
	fakeLST = hlc.Timestamp(10)
	fakeRST = hlc.Timestamp(5)
)

func timeoutErr() error { return fmt.Errorf("%w (scripted)", transport.ErrTimeout) }

func (f *fakeConn) Call(to transport.NodeID, _ time.Duration, build func(uint64) wire.Message) (wire.Message, error) {
	f.mu.Lock()
	m := build(uint64(len(f.sent) + 1))
	f.sent = append(f.sent, m)
	f.to = append(f.to, to)
	if f.counts == nil {
		f.counts = make(map[wire.Kind]int)
	}
	f.counts[m.Kind()]++
	n := f.counts[m.Kind()]
	f.mu.Unlock()
	switch req := m.(type) {
	case *wire.StartTxReq:
		f.mu.Lock()
		f.nextTx++
		id := f.nextTx
		f.mu.Unlock()
		return &wire.StartTxResp{ReqID: req.ReqID, TxID: id, LST: fakeLST, RST: fakeRST,
			SV: []hlc.Timestamp{fakeLST, fakeRST}}, nil
	case *wire.TxReadReq:
		return wire.GetTxReadResp(), nil
	case *wire.CommitReq:
		if len(req.Writes) == 0 && f.emptyLost {
			return nil, timeoutErr()
		}
		if f.commit != nil && len(req.Writes) > 0 {
			return f.commit(n, req)
		}
		return &wire.CommitResp{ReqID: req.ReqID}, nil
	case *wire.TxStatusReq:
		return f.status(n, req)
	case *wire.HealthReq:
		return f.health(to), nil
	}
	return nil, fmt.Errorf("fakeConn: unscripted %v", m.Kind())
}

func (f *fakeConn) count(k wire.Kind) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[k]
}

// last returns the most recent request of the given kind.
func (f *fakeConn) last(k wire.Kind) (wire.Message, transport.NodeID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := len(f.sent) - 1; i >= 0; i-- {
		if f.sent[i].Kind() == k {
			return f.sent[i], f.to[i]
		}
	}
	return nil, transport.NodeID{}
}

// causalStates are the protocol seams under test. folded checks, after a
// commit of key k = "v" at ct, that the commit reached the causal state.
var causalStates = []struct {
	name   string
	causal func() session.Causal
	folded func(t *testing.T, s *session.Session, f *fakeConn, ct hlc.Timestamp)
}{
	{
		name:   "wren",
		causal: func() session.Causal { return core.NewCausal() },
		folded: func(t *testing.T, s *session.Session, f *fakeConn, _ hlc.Timestamp) {
			// WC_c serves the own write without asking a server.
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			reads := f.count(wire.KindTxReadReq)
			got, err := tx.Read("k")
			if err != nil {
				t.Fatal(err)
			}
			if string(got["k"]) != "v" || f.count(wire.KindTxReadReq) != reads {
				t.Fatalf("write cache did not serve the own write: got %q", got["k"])
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		},
	},
	{
		name:   "cure",
		causal: func() session.Causal { return cure.NewCausal(0, 2) },
		folded: func(t *testing.T, s *session.Session, f *fakeConn, ct hlc.Timestamp) {
			// The commit time became the local dependency.
			tx, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			m, _ := f.last(wire.KindStartTxReq)
			if dv := m.(*wire.StartTxReq).DV; dv[0] != ct {
				t.Fatalf("dependency vector %v does not carry ct %v", dv, ct)
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		},
	},
}

func newSession(t *testing.T, causal session.Causal, f *fakeConn, attempts int, failover bool) *session.Session {
	t.Helper()
	s, err := session.New(session.Config{
		DC: 0, NumPartitions: 3, Conn: f,
		Retry:    session.RetryPolicy{Attempts: attempts, Backoff: time.Microsecond},
		Failover: failover,
	}, causal)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// commitK commits k = "v" in a fresh transaction.
func commitK(t *testing.T, s *session.Session) (hlc.Timestamp, error) {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Write("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	return tx.Commit()
}

// checkHWT asserts the next update transaction piggybacks ct as hwt_c.
func checkHWT(t *testing.T, s *session.Session, f *fakeConn, ct hlc.Timestamp) {
	t.Helper()
	f.commit = nil
	if _, err := commitK(t, s); err != nil {
		t.Fatal(err)
	}
	m, _ := f.last(wire.KindCommitReq)
	if hwt := m.(*wire.CommitReq).HWT; hwt != ct {
		t.Fatalf("next commit carries hwt %v, want %v", hwt, ct)
	}
}

// TestCommitOutcomes drives the session's commit-outcome state machine
// through every ending, once per causal state.
func TestCommitOutcomes(t *testing.T) {
	const ct = hlc.Timestamp(100)
	committed := func(_ int, req *wire.CommitReq) (wire.Message, error) {
		return &wire.CommitResp{ReqID: req.ReqID, CT: ct}, nil
	}
	lost := func(int, *wire.CommitReq) (wire.Message, error) { return nil, timeoutErr() }
	for _, cs := range causalStates {
		t.Run(cs.name+"/busy-resent", func(t *testing.T) {
			f := &fakeConn{commit: func(n int, req *wire.CommitReq) (wire.Message, error) {
				if n == 1 {
					return &wire.BusyResp{ReqID: req.ReqID}, nil
				}
				return committed(n, req)
			}}
			s := newSession(t, cs.causal(), f, 2, false)
			got, err := commitK(t, s)
			if err != nil || got != ct {
				t.Fatalf("Commit = %v, %v; want %v", got, err, ct)
			}
			if n := f.count(wire.KindCommitReq); n != 2 {
				t.Fatalf("sent %d CommitReqs, want the shed one resent once", n)
			}
			if n := f.count(wire.KindTxStatusReq); n != 0 {
				t.Fatalf("sent %d termination probes for a shed commit", n)
			}
			cs.folded(t, s, f, ct)
			checkHWT(t, s, f, ct)
		})
		t.Run(cs.name+"/lost-ack-committed", func(t *testing.T) {
			f := &fakeConn{commit: lost, status: func(_ int, req *wire.TxStatusReq) (wire.Message, error) {
				return &wire.TxStatusResp{ReqID: req.ReqID, TxID: req.TxID, CT: ct, Committed: true}, nil
			}}
			s := newSession(t, cs.causal(), f, 2, false)
			got, err := commitK(t, s)
			if err != nil || got != ct {
				t.Fatalf("Commit = %v, %v; want %v from the probe", got, err, ct)
			}
			if n := f.count(wire.KindCommitReq); n != 1 {
				t.Fatalf("sent %d CommitReqs; a lost ack must never be resent", n)
			}
			cs.folded(t, s, f, ct)
			checkHWT(t, s, f, ct)
		})
		t.Run(cs.name+"/lost-ack-fenced", func(t *testing.T) {
			f := &fakeConn{commit: lost, status: func(_ int, req *wire.TxStatusReq) (wire.Message, error) {
				return &wire.TxStatusResp{ReqID: req.ReqID, TxID: req.TxID}, nil
			}}
			s := newSession(t, cs.causal(), f, 2, false)
			if _, err := commitK(t, s); !errors.Is(err, session.ErrAborted) {
				t.Fatalf("Commit = %v, want ErrAborted", err)
			}
			checkHWT(t, s, f, 0)
		})
		t.Run(cs.name+"/lost-ack-in-doubt", func(t *testing.T) {
			f := &fakeConn{commit: lost, status: func(int, *wire.TxStatusReq) (wire.Message, error) {
				return nil, timeoutErr()
			}}
			s := newSession(t, cs.causal(), f, 3, false)
			_, err := commitK(t, s)
			if !errors.Is(err, session.ErrInDoubt) || !errors.Is(err, session.ErrTimeout) {
				t.Fatalf("Commit = %v, want ErrInDoubt wrapping ErrTimeout", err)
			}
			if n := f.count(wire.KindTxStatusReq); n != 3 {
				t.Fatalf("sent %d termination probes, want 3", n)
			}
		})
		t.Run(cs.name+"/no-retries", func(t *testing.T) {
			f := &fakeConn{commit: lost}
			s := newSession(t, cs.causal(), f, 0, false)
			_, err := commitK(t, s)
			if !errors.Is(err, session.ErrTimeout) || errors.Is(err, session.ErrInDoubt) {
				t.Fatalf("Commit = %v, want the raw timeout", err)
			}
			if n := f.count(wire.KindTxStatusReq); n != 0 {
				t.Fatalf("sent %d termination probes with retries off", n)
			}
		})
	}
}

// TestReadOnlyLostAckNotProbed checks that a commit without writes whose
// ack is lost returns the round-trip error as is: probing would fence the
// id and report an abort for a transaction that wrote nothing, and with
// failover on it would re-run the transaction for nothing.
func TestReadOnlyLostAckNotProbed(t *testing.T) {
	f := &fakeConn{
		emptyLost: true,
		status:    func(int, *wire.TxStatusReq) (wire.Message, error) { return nil, timeoutErr() },
	}
	s := newSession(t, core.NewCausal(), f, 2, true)
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Read("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); !errors.Is(err, session.ErrTimeout) || errors.Is(err, session.ErrAborted) {
		t.Fatalf("Commit = %v, want the raw timeout", err)
	}
	if n := f.count(wire.KindTxStatusReq); n != 0 {
		t.Fatalf("sent %d termination probes, want 0", n)
	}
	if n := f.count(wire.KindStartTxReq); n != 1 {
		t.Fatalf("sent %d StartTxReqs; a read-only timeout must not fail over", n)
	}
}

// TestFailoverReplaysWriteSet checks the commit failover: the refused
// write set is replayed once, as is, on another partition — the first one
// that reports healthy after a read-only refusal, the next one after an
// abort. The session recycles its transaction maps, so the replay must
// still carry the complete write set, and the next transaction must start
// from an empty one.
func TestFailoverReplaysWriteSet(t *testing.T) {
	cases := []struct {
		name    string
		refusal uint8
		want    transport.NodeID
	}{
		{name: "read-only", refusal: wire.CommitErrReadOnly, want: transport.ServerID(0, 2)},
		{name: "aborted", refusal: wire.CommitErrAborted, want: transport.ServerID(0, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeConn{
				commit: func(n int, req *wire.CommitReq) (wire.Message, error) {
					if n == 1 {
						return &wire.CommitResp{ReqID: req.ReqID, Code: tc.refusal, Err: "refused"}, nil
					}
					return &wire.CommitResp{ReqID: req.ReqID, CT: hlc.Timestamp(100 * n)}, nil
				},
				health: func(to transport.NodeID) *wire.HealthResp {
					return &wire.HealthResp{ReadOnly: to.Node == 1}
				},
			}
			s := newSession(t, core.NewCausal(), f, 0, true)
			tx, err := s.Begin() // coordinator partition 0
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"a", "b"} {
				if err := tx.Write(k, []byte("1")); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Write("a", []byte("2")); err != nil {
				t.Fatal(err)
			}
			if err := tx.Delete("b"); err != nil {
				t.Fatal(err)
			}
			if ct, err := tx.Commit(); err != nil || ct != 200 {
				t.Fatalf("Commit = %v, %v; want the failover commit at 200", ct, err)
			}
			m, to := f.last(wire.KindCommitReq)
			if to != tc.want {
				t.Fatalf("failover commit went to %v, want %v", to, tc.want)
			}
			if got := writeSet(m); len(got) != 2 || got["a"] != "2/false" || got["b"] != "/true" {
				t.Fatalf("replayed write set %v, want a=2 and b deleted", got)
			}
			if ws := tx.Writes(); ws != nil {
				t.Fatalf("finished transaction still exposes its write set %v", ws)
			}

			next, err := s.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if err := next.Write("c", []byte("3")); err != nil {
				t.Fatal(err)
			}
			if _, err := next.Commit(); err != nil {
				t.Fatal(err)
			}
			m, _ = f.last(wire.KindCommitReq)
			if got := writeSet(m); len(got) != 1 || got["c"] != "3/false" {
				t.Fatalf("next transaction committed %v, want only c=3", got)
			}
		})
	}
}

// writeSet renders a CommitReq's writes as key → "value/tombstone".
func writeSet(m wire.Message) map[string]string {
	got := map[string]string{}
	for _, w := range m.(*wire.CommitReq).Writes {
		got[w.Key] = fmt.Sprintf("%s/%v", w.Value, w.Tombstone)
	}
	return got
}

// TestFinishedTxDropsState checks that a committed or aborted transaction
// hands its state back to the session: its Writes are nil, and a stale
// handle gets ErrTxDone and never sees the next transaction's state.
func TestFinishedTxDropsState(t *testing.T) {
	f := &fakeConn{}
	s := newSession(t, core.NewCausal(), f, 0, false)
	for _, finish := range []struct {
		name string
		do   func(*session.Tx) error
	}{
		{"commit", func(tx *session.Tx) error { _, err := tx.Commit(); return err }},
		{"abort", func(tx *session.Tx) error { return tx.Abort() }},
	} {
		stale, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := stale.Write("old", []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := finish.do(stale); err != nil {
			t.Fatalf("%s: %v", finish.name, err)
		}
		if ws := stale.Writes(); ws != nil {
			t.Fatalf("%s: finished transaction exposes write set %v", finish.name, ws)
		}

		next, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if ws := next.Writes(); len(ws) != 0 {
			t.Fatalf("%s: next transaction starts with write set %v", finish.name, ws)
		}
		if err := next.Write("new", []byte("2")); err != nil {
			t.Fatal(err)
		}
		if _, err := stale.Read("new"); !errors.Is(err, session.ErrTxDone) {
			t.Fatalf("%s: stale Read = %v, want ErrTxDone", finish.name, err)
		}
		if err := stale.Write("new", []byte("x")); !errors.Is(err, session.ErrTxDone) {
			t.Fatalf("%s: stale Write = %v, want ErrTxDone", finish.name, err)
		}
		if err := stale.Delete("new"); !errors.Is(err, session.ErrTxDone) {
			t.Fatalf("%s: stale Delete = %v, want ErrTxDone", finish.name, err)
		}
		if _, err := stale.Commit(); !errors.Is(err, session.ErrTxDone) {
			t.Fatalf("%s: stale Commit = %v, want ErrTxDone", finish.name, err)
		}
		if ws := stale.Writes(); ws != nil {
			t.Fatalf("%s: stale handle sees write set %v", finish.name, ws)
		}
		if ws := next.Writes(); len(ws) != 1 || string(ws["new"]) != "2" {
			t.Fatalf("%s: stale handle disturbed the next transaction: %v", finish.name, ws)
		}
		if err := next.Abort(); err != nil {
			t.Fatal(err)
		}
	}
}

// cannedConn answers every round trip with a prebuilt response, so the
// allocations a transaction makes are the session's own.
type cannedConn struct {
	start  wire.StartTxResp
	items  []wire.Item
	commit wire.CommitResp
}

func (c *cannedConn) Call(_ transport.NodeID, _ time.Duration, build func(uint64) wire.Message) (wire.Message, error) {
	switch m := build(1).(type) {
	case *wire.StartTxReq:
		c.start.TxID++
		return &c.start, nil
	case *wire.TxReadReq:
		// The session releases the response to the wire pool, so it is
		// drawn from there like a server's.
		rr := wire.GetTxReadResp()
		rr.Items = append(rr.Items[:0], c.items...)
		return rr, nil
	case *wire.CommitReq:
		c.commit.CT++
		c.start.LST = c.commit.CT // the next snapshot covers the commit
		return &c.commit, nil
	default:
		return nil, fmt.Errorf("cannedConn: unscripted %v", m.Kind())
	}
}

// TestTxLifecycleAllocs pins the steady-state allocations of one
// Begin → Read(19 keys) → Write(1) → Commit transaction. The session's
// write set, read set and absent-key set are recycled across
// transactions; what is left is the Tx itself, the request messages and
// their buffers, the round-trip closures and Read's result map. Before the
// recycling a transaction cost 29 allocations.
func TestTxLifecycleAllocs(t *testing.T) {
	const maxAllocs = 14
	keys := make([]string, 19)
	conn := &cannedConn{}
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
		conn.items = append(conn.items, wire.Item{Key: keys[i], Value: []byte("12345678")})
	}
	s, err := session.New(session.Config{NumPartitions: 3, Conn: conn}, core.NewCausal())
	if err != nil {
		t.Fatal(err)
	}
	value := []byte("v")
	run := func() {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Read(keys...); err != nil {
			t.Fatal(err)
		}
		if err := tx.Write("w", value); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > maxAllocs {
		t.Fatalf("one transaction allocates %.0f times, want at most %d", allocs, maxAllocs)
	}
}
