package cure

import (
	"wren/internal/hlc"
	"wren/internal/wire"
)

// Causal is the Cure/H-Cure session causal state. Unlike a Wren session it
// has no write cache; instead it tracks a full dependency vector, one
// entry per DC, that it piggybacks on transaction starts so its own writes
// are always inside its snapshots — at the cost of blocking reads until
// those snapshots install. It implements session.Causal; the session
// serialises every call.
type Causal struct {
	dc int
	dv []hlc.Timestamp
}

// NewCausal returns the causal state of a fresh session in dc of a
// numDCs-site deployment.
func NewCausal(dc, numDCs int) *Causal {
	return &Causal{dc: dc, dv: make([]hlc.Timestamp, numDCs)}
}

// StartReq implements session.Causal: the snapshot must cover the
// dependency vector.
func (c *Causal) StartReq() wire.StartTxReq { return wire.StartTxReq{DV: copyVec(c.dv)} }

// FoldStart implements session.Causal by raising the dependency vector to
// the assigned snapshot vector.
func (c *Causal) FoldStart(st *wire.StartTxResp) { maxInto(c.dv, st.SV) }

// Lookup implements session.Causal. Cure snapshots always include the
// session's own writes, so there is nothing to look up.
func (c *Causal) Lookup(string) ([]byte, bool) { return nil, false }

// FoldCommit implements session.Causal: the commit timestamp becomes the
// dependency on the local DC, so later snapshots include the write set
// (deletes included).
func (c *Causal) FoldCommit(ct hlc.Timestamp, _ map[string][]byte) {
	c.dv[c.dc] = max(c.dv[c.dc], ct)
}
