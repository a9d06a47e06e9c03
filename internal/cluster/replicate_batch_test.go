package cluster

import (
	"fmt"
	"testing"
	"time"

	"wren/internal/wire"
)

// TestApplyTickSendsOneReplicatePerPeerDC commits K transactions with
// distinct commit timestamps inside one apply interval and runs a single
// apply tick on every partition of the origin DC: each partition must
// ship its whole tick as exactly one Replicate per peer DC, and both
// remote DCs must then read all K values.
func TestApplyTickSendsOneReplicatePerPeerDC(t *testing.T) {
	const dcs, parts, k = 3, 2, 20
	for _, proto := range []Protocol{Wren, Cure, HCure} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := fastConfig(proto, dcs, parts)
			cfg.ApplyInterval = time.Hour // the test runs the ticks itself
			cfg.DisableTxLog = true       // no ReplicateAcks in the message count
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			tick := func(dc, p int) {
				if proto == Wren {
					cl.WrenServer(dc, p).ApplyTick()
				} else {
					cl.CureServer(dc, p).ApplyTick()
				}
			}
			queued := func(p int) int {
				if proto == Wren {
					return cl.WrenServer(0, p).CommitQueueLen()
				}
				return cl.CureServer(0, p).CommitQueueLen()
			}

			// Every transaction writes one key on each partition.
			keys := make([][parts]string, k)
			var all []string
			for i := range keys {
				for p, n := 0, 0; p < parts; n++ {
					if key := fmt.Sprintf("tx%d-%d", i, n); partitionOf(key, parts) == p {
						keys[i][p] = key
						all = append(all, key)
						p++
					}
				}
			}
			c, err := cl.NewClient(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			cts := map[uint64]bool{}
			for i := range keys {
				tx, err := c.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range keys[i] {
					if err := tx.Write(key, []byte(key)); err != nil {
						t.Fatal(err)
					}
				}
				ct, err := tx.Commit()
				if err != nil {
					t.Fatal(err)
				}
				cts[uint64(ct)] = true
			}
			if len(cts) != k {
				t.Fatalf("%d distinct commit timestamps for %d transactions", len(cts), k)
			}
			// Commit returns at the coordinator's decision; wait until every
			// cohort has queued its outcome too, so one tick applies all K.
			deadline := time.Now().Add(5 * time.Second)
			for p := 0; p < parts; p++ {
				for queued(p) < k {
					if time.Now().After(deadline) {
						t.Fatalf("partition %d queued %d of %d commits", p, queued(p), k)
					}
					time.Sleep(time.Millisecond)
				}
			}

			before := cl.Network().Stats().Msgs[wire.ClassReplication]
			for p := 0; p < parts; p++ {
				tick(0, p)
			}
			sent := cl.Network().Stats().Msgs[wire.ClassReplication] - before
			if want := uint64(parts * (dcs - 1)); sent != want {
				t.Fatalf("one apply tick of %d transactions sent %d replication messages, want %d (one per peer DC per partition)", k, sent, want)
			}

			// Remote visibility also needs the other DCs' heartbeats, which
			// only their (frozen) apply loops send: tick everyone until both
			// remote DCs read every value.
			deadline = time.Now().Add(10 * time.Second)
			for dc := 1; dc < dcs; dc++ {
				rc, err := cl.NewClient(dc, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer rc.Close()
				for {
					for d := 0; d < dcs; d++ {
						for p := 0; p < parts; p++ {
							tick(d, p)
						}
					}
					if missing := missingValues(t, rc, all); missing == 0 {
						break
					} else if time.Now().After(deadline) {
						t.Fatalf("DC %d still misses %d of %d values", dc, missing, k*parts)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		})
	}
}

// missingValues reads every key in one transaction and counts those not
// yet visible with their expected value (the key itself).
func missingValues(t *testing.T, c Client, keys []string) int {
	t.Helper()
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tx.Read(keys...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, key := range keys {
		if string(got[key]) != key {
			missing++
		}
	}
	return missing
}
