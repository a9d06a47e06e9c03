package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wren/internal/cluster"
	"wren/internal/sharding"
)

// convergeWithin bounds how long the DCs may take, after the window, to
// agree on the latest version of every written key.
const convergeWithin = 30 * time.Second

// checkConvergence waits until every key carries the same latest version,
// compared by update timestamp and source DC, in every DC, and returns the
// keys that still disagree at the deadline.
func checkConvergence(cl *cluster.Cluster, keys []string) []string {
	deadline := time.Now().Add(convergeWithin)
	pending := keys
	for {
		var next []string
		for _, k := range pending {
			if !converged(cl, k) {
				next = append(next, k)
			}
		}
		pending = next
		if len(pending) == 0 || time.Now().After(deadline) {
			return pending
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func converged(cl *cluster.Cluster, key string) bool {
	p := sharding.PartitionOf(key, numPartitions)
	ref := cl.WrenServer(0, p).Store().Latest(key)
	if ref == nil {
		return false
	}
	for dc := 1; dc < numDCs; dc++ {
		v := cl.WrenServer(dc, p).Store().Latest(key)
		if v == nil || v.UT != ref.UT || v.SrcDC != ref.SrcDC {
			return false
		}
	}
	return true
}

// healthCheck runs both deployment health checks; nil when both pass.
func healthCheck(cl *cluster.Cluster) error {
	if err := cl.Healthy(); err != nil {
		return fmt.Errorf("cluster unhealthy: %w", err)
	}
	if err := cl.EnginesHealthy(); err != nil {
		return fmt.Errorf("engines unhealthy: %w", err)
	}
	return nil
}

// stderrTap passes the process's standard error through unchanged while
// counting the storage layers' "durability degraded" lines, so they are
// reported in the results instead of scrolling past. The storage engines
// print them via os.Stderr, which the tap replaces.
type stderrTap struct {
	real     *os.File
	w        *os.File
	done     chan struct{}
	degraded atomic.Int64
	mu       sync.Mutex
	first    string
}

func newStderrTap() (*stderrTap, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	t := &stderrTap{real: os.Stderr, w: w, done: make(chan struct{})}
	os.Stderr = w
	go t.copy(r)
	return t, nil
}

func (t *stderrTap) copy(r io.ReadCloser) {
	defer close(t.done)
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(t.real, line)
		if strings.Contains(line, "durability degraded") {
			if t.degraded.Add(1) == 1 {
				t.mu.Lock()
				t.first = line
				t.mu.Unlock()
			}
		}
	}
}

// close restores the real standard error and waits for the copier.
func (t *stderrTap) close() {
	os.Stderr = t.real
	t.w.Close()
	<-t.done
}

func (t *stderrTap) firstDegraded() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.first
}
