package core

import (
	"testing"
	"time"

	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/transport/pool"
)

// TestClientMigration exercises the paper's footnote-1 extension: a client
// moves to another DC, blocking until its causal past is installed there,
// and keeps all session guarantees.
func TestClientMigration(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	c := tc.client(0)

	// Build causal history in DC 0, ending with writes possibly not yet
	// replicated anywhere.
	commitKV(t, c, map[string]string{"mig-a": "1"})
	commitKV(t, c, map[string]string{"mig-b": "2"})

	if err := c.Migrate(1, 0, tc.conn(1, 0)); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if c.Config().DC != 1 {
		t.Fatalf("client DC = %d after migration, want 1", c.Config().DC)
	}
	if c.CacheSize() != 0 {
		t.Fatalf("cache should be empty after migration, has %d entries", c.CacheSize())
	}

	// Read-your-writes must hold in the new DC *without* the cache: the
	// migration waited for the writes to be installed there.
	got := readKeys(t, c, "mig-a", "mig-b")
	if string(got["mig-a"]) != "1" || string(got["mig-b"]) != "2" {
		t.Fatalf("session lost its writes after migration: %v", got)
	}

	// The session continues: writes committed in the new DC flow back.
	ct := commitKV(t, c, map[string]string{"mig-c": "3"})
	if ct == 0 {
		t.Fatal("commit in new DC failed")
	}
	back := tc.client(0)
	eventually(t, 5*time.Second, "DC0 sees post-migration write", func() bool {
		return string(readKeys(t, back, "mig-c")["mig-c"]) == "3"
	})
}

func TestMigrateValidation(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	c := tc.client(0)

	// Same-DC migration is a no-op.
	if err := c.Migrate(0, 0, nil); err != nil {
		t.Fatalf("same-DC migrate should be a no-op, got %v", err)
	}
	// Bad coordinator.
	if err := c.Migrate(1, 99, tc.conn(1, 0)); err == nil {
		t.Fatal("out-of-range coordinator should be rejected")
	}
	// No connection in the new DC.
	if err := c.Migrate(1, 0, nil); err == nil {
		t.Fatal("migration without a connection should be rejected")
	}
	// Migration with an open transaction is refused.
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Migrate(1, 0, tc.conn(1, 0)); err != session.ErrTxOpen {
		t.Fatalf("Migrate with open tx = %v, want ErrTxOpen", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// After Close, migration fails.
	c.Close()
	if err := c.Migrate(1, 0, tc.conn(1, 0)); err != session.ErrClosed {
		t.Fatalf("Migrate after Close = %v, want ErrClosed", err)
	}
}

// TestMigrationBlocksUntilInstalled verifies migration genuinely waits: a
// WAN partition delays replication, so Migrate must not complete until the
// link heals.
func TestMigrationBlocksUntilInstalled(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	c := tc.client(0)
	commitKV(t, c, map[string]string{"mig-block": "v"})

	tc.net.SetDCLinkDown(0, 1, true)
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- c.Migrate(1, 0, tc.conn(1, 0)) }()

	select {
	case err := <-done:
		t.Fatalf("migration completed during partition (after %v, err=%v)", time.Since(start), err)
	case <-time.After(150 * time.Millisecond):
		// Still blocked: correct.
	}
	tc.net.SetDCLinkDown(0, 1, false)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("migration failed after heal: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("migration never completed after heal")
	}
	// And the write is readable in the new DC through the snapshot.
	got := readKeys(t, c, "mig-block")
	if string(got["mig-block"]) != "v" {
		t.Fatalf("migrated session lost its write: %q", got["mig-block"])
	}
}

// TestMigratePooledSession migrates a session bound to a shared connection
// pool: the probes travel over the session's pooled link, and afterwards
// the session lives on a link of the new DC's pool and keeps
// read-your-writes there.
func TestMigratePooledSession(t *testing.T) {
	tc := newTestCluster(t, clusterOpts{dcs: 2, parts: 2})
	pools := make([]*pool.Pool, 2)
	for dc := range pools {
		p, err := pool.New([]pool.Endpoint{
			{ID: transport.ClientID(dc, 1000), Net: tc.net},
			{ID: transport.ClientID(dc, 1001), Net: tc.net},
		})
		if err != nil {
			t.Fatal(err)
		}
		pools[dc] = p
	}
	c, err := NewClient(session.Config{
		DC: 0, NumPartitions: 2, Conn: pools[0].Bind(),
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	commitKV(t, c, map[string]string{"pmig-a": "1", "pmig-b": "2"})

	if err := c.Migrate(1, 1, pools[1].Bind()); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if cfg := c.Config(); cfg.DC != 1 || cfg.CoordinatorPartition != 1 {
		t.Fatalf("session at dc%d/p%d after migration, want dc1/p1", cfg.DC, cfg.CoordinatorPartition)
	}
	before := pools[1].Stats().Calls
	got := readKeys(t, c, "pmig-a", "pmig-b")
	if string(got["pmig-a"]) != "1" || string(got["pmig-b"]) != "2" {
		t.Fatalf("pooled session lost its writes after migration: %v", got)
	}
	if pools[1].Stats().Calls == before {
		t.Fatal("migrated session did not use the new DC's pool")
	}
}
