package core

import (
	"fmt"
	"time"

	"wren/internal/hlc"
	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/wire"
)

// Migrate moves the client session to a different DC, implementing the
// extension sketched in the paper's footnote 1 (§II-A): the client blocks
// until the last snapshot it has seen — and its own writes — have been
// installed in the new DC, then continues with full session guarantees.
// conn is the session's connection in the new DC; once migrated, every
// round trip goes through it, so the session is resident there.
//
// Concretely, the client's causal past consists of:
//   - local items of the old DC up to lst_c and its own writes up to
//     hwt_c: both are *remote* items from the new DC's perspective, so the
//     new DC must have rst' ≥ max(lst_c, hwt_c);
//   - remote items up to rst_c (which includes items originating in the
//     new DC, local there): covered once lst' ≥ rst_c and rst' ≥ rst_c.
//
// The probe transactions piggyback zero stable times so they can never
// advance the new DC's view beyond what it actually installed. Once the
// conditions hold, the session adopts the new DC's snapshot and clears its
// write cache (everything in it is now covered by the new snapshot).
func (c *Client) Migrate(newDC, coordinatorPartition int, conn session.Conn) error {
	var needRemote, needLocal hlc.Timestamp
	if err := c.Idle(func(hwt hlc.Timestamp) {
		needRemote = hlc.Max(c.causal.lst, hwt, c.causal.rst)
		needLocal = c.causal.rst
	}); err != nil {
		return err
	}
	cfg := c.Config()
	if newDC == cfg.DC {
		return nil
	}
	if coordinatorPartition < 0 || coordinatorPartition >= cfg.NumPartitions {
		return fmt.Errorf("core: coordinator partition %d out of range", coordinatorPartition)
	}
	if conn == nil {
		return fmt.Errorf("core: migration needs a connection in DC %d", newDC)
	}

	coord := transport.ServerID(newDC, coordinatorPartition)
	deadline := time.Now().Add(cfg.RequestTimeout)
	for {
		// Probe the new DC's stable snapshot without polluting it.
		resp, err := c.RoundTrip(coord, func(reqID uint64) wire.Message {
			return &wire.StartTxReq{ReqID: reqID}
		})
		if err != nil {
			return fmt.Errorf("core: migration probe: %w", err)
		}
		st, ok := resp.(*wire.StartTxResp)
		if !ok {
			return fmt.Errorf("core: unexpected response %T to migration probe", resp)
		}
		// Release the probe's transaction context right away.
		if _, err := c.RoundTrip(coord, func(reqID uint64) wire.Message {
			return &wire.CommitReq{ReqID: reqID, TxID: st.TxID}
		}); err != nil {
			return fmt.Errorf("core: migration probe cleanup: %w", err)
		}

		if st.RST >= needRemote && st.LST >= needLocal && st.RST >= needLocal {
			// The new DC has installed the session's entire causal past:
			// adopt its snapshot and move the session.
			return c.Move(newDC, coordinatorPartition, conn, func() {
				c.causal.lst = st.LST
				c.causal.rst = st.RST
				// Every cached write has ct ≤ hwt ≤ rst' and is therefore
				// visible through the new snapshot.
				clear(c.causal.cache)
			})
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: new DC %d has not installed the session's snapshot", session.ErrTimeout, newDC)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
