package core

import (
	"testing"
	"time"

	"wren/internal/hlc"
	"wren/internal/session"
	"wren/internal/transport"
	"wren/internal/transport/pool"
)

// newTreeCluster builds a single-DC cluster using tree-based BiST.
func newTreeCluster(t *testing.T, parts int) (*transport.Memory, []*Server) {
	t.Helper()
	net := transport.NewMemory(transport.UniformLatency(100*time.Microsecond, 5*time.Millisecond))
	servers := make([]*Server, parts)
	for p := 0; p < parts; p++ {
		srv, err := NewServer(ServerConfig{
			DC: 0, Partition: p, NumDCs: 1, NumPartitions: parts,
			Network:        net,
			ApplyInterval:  time.Millisecond,
			GossipInterval: time.Millisecond,
			GCInterval:     -1,
			GossipTree:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		servers[p] = srv
	}
	t.Cleanup(func() {
		for _, s := range servers {
			s.Stop()
		}
		net.Close()
	})
	return net, servers
}

func TestTreeGossipStabilizes(t *testing.T) {
	net, servers := newTreeCluster(t, 4)
	c, err := NewClient(session.Config{
		DC: 0, NumPartitions: 4, Conn: pool.Single(net, transport.ClientID(0, 1)),
		CoordinatorPartition: 2, RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ct := commitKV(t, c, map[string]string{"tree-key": "v"})

	// Every partition — leaves included — must learn an LST covering the
	// commit through the aggregation tree.
	eventually(t, 3*time.Second, "all partitions reach LST >= ct", func() bool {
		for _, s := range servers {
			lst, _ := s.StableTimes()
			if lst < ct {
				return false
			}
		}
		return true
	})

	// And a fresh client can read the value through its snapshot.
	other, err := NewClient(session.Config{
		DC: 0, NumPartitions: 4, Conn: pool.Single(net, transport.ClientID(0, 2)),
		CoordinatorPartition: 3, RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := readKeys(t, other, "tree-key")
	if string(got["tree-key"]) != "v" {
		t.Fatalf("read %q through tree-stabilized snapshot", got["tree-key"])
	}
}

func TestTreeGossipLSTMonotone(t *testing.T) {
	_, servers := newTreeCluster(t, 3)
	deadline := time.Now().Add(300 * time.Millisecond)
	prev := make([]hlc.Timestamp, len(servers))
	for time.Now().Before(deadline) {
		for i, s := range servers {
			lst, _ := s.StableTimes()
			if lst < prev[i] {
				t.Fatalf("partition %d LST went backwards: %v -> %v", i, prev[i], lst)
			}
			prev[i] = lst
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The tree must have made progress at all.
	for i, s := range servers {
		lst, _ := s.StableTimes()
		if lst == 0 {
			t.Fatalf("partition %d LST never advanced under tree gossip", i)
		}
	}
}
