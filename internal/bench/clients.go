package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"wren/internal/cluster"
	"wren/internal/stats"
)

// The clients sweep prices the multiplexed client stack: the same
// closed-loop session workload (begin, read two keys, write one, commit)
// on a Wren memory cluster, once with one single-endpoint pool per session
// (the "unpooled" rows) and once with every session pipelining over the
// DC's shared connection pool, at each session count. The pooled rows also exercise
// per-connection admission control — thousands of sessions funnel through
// a handful of links, so servers shed past the inflight bound and clients
// retry after backoff — and the sweep proves no request is lost to that
// machinery: every issued request must resolve (success or error) before
// the cell ends, and the Unresolved column must read zero. CI uploads
// BENCH_clients.json so successive PRs leave a comparable trajectory.

// ClientsPoints are the default session counts swept.
var ClientsPoints = []int{64, 256, 1000}

// ClientsQuickPoints are the session counts for smoke runs.
var ClientsQuickPoints = []int{8, 32}

// DefaultClientPoolLinks is the pool width the sweep's pooled rows use.
const DefaultClientPoolLinks = 4

// ClientsRow is one measured cell: a session count, pooled or not.
type ClientsRow struct {
	Sessions   int     `json:"sessions"`
	Pooled     bool    `json:"pooled"`
	Links      int     `json:"links"` // pool links (0 = one endpoint per session)
	TxPerSec   float64 `json:"tx_per_sec"`
	ReqPerSec  float64 `json:"req_per_sec"`
	MeanLatMs  float64 `json:"mean_lat_ms"` // full tx cycle: begin+read+commit
	P50LatMs   float64 `json:"p50_lat_ms"`
	P99LatMs   float64 `json:"p99_lat_ms"`
	Committed  uint64  `json:"committed"`
	Errors     uint64  `json:"errors"`
	Shed       uint64  `json:"shed"`       // requests refused at admission (all retried)
	Unresolved uint64  `json:"unresolved"` // issued requests that never returned — must be 0
}

// ClientsReport is the machine-readable output of the sweep.
type ClientsReport struct {
	Protocol         string       `json:"protocol"`
	GoMaxProcs       int          `json:"gomaxprocs"`
	NumCPU           int          `json:"num_cpu"`
	DCs              int          `json:"dcs"`
	Partitions       int          `json:"partitions"`
	RequestTimeoutMs float64      `json:"request_timeout_ms"`
	RetryAttempts    int          `json:"retry_attempts"`
	Rows             []ClientsRow `json:"rows"`
}

// RunClients sweeps the given session counts on a Wren memory cluster,
// one fresh cluster per cell, pairing an unpooled row with a pooled row
// (links connection-pool links per DC) at each count.
func RunClients(o Options, points []int, links int) (*ClientsReport, error) {
	if len(points) == 0 {
		points = ClientsPoints
	}
	if links <= 0 {
		links = DefaultClientPoolLinks
	}
	const (
		requestTimeout = time.Second
		retryAttempts  = 5
		retryBackoff   = 2 * time.Millisecond
	)
	rep := &ClientsReport{
		Protocol:         cluster.Wren.String(),
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		DCs:              1,
		Partitions:       min(o.Partitions, 4),
		RequestTimeoutMs: float64(requestTimeout) / float64(time.Millisecond),
		RetryAttempts:    retryAttempts,
	}
	for _, sessions := range points {
		if sessions <= 0 {
			return rep, fmt.Errorf("bench: session count %d must be positive", sessions)
		}
		for _, pooled := range []bool{false, true} {
			eo := o
			eo.StoreBackend = "memory" // the sweep prices the client stack, not the disk
			cfg := eo.clusterConfig(cluster.Wren, 1, rep.Partitions)
			cfg.RequestTimeout = requestTimeout
			cfg.RetryAttempts = retryAttempts
			cfg.RetryBackoff = retryBackoff
			if pooled {
				cfg.ClientPoolLinks = links
			}
			row, err := runClientsCell(o, cfg, sessions, pooled, links)
			if err != nil {
				return rep, fmt.Errorf("clients sweep (%d sessions, pooled=%v): %w", sessions, pooled, err)
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

func runClientsCell(o Options, cfg cluster.Config, sessions int, pooled bool, links int) (ClientsRow, error) {
	cl, err := cluster.New(cfg)
	if err != nil {
		return ClientsRow{}, err
	}
	defer cl.Close()
	partitions := cfg.NumPartitions

	var (
		hist      = stats.NewHistogram()
		committed stats.Counter
		errCount  stats.Counter
		reqCount  stats.Counter // requests resolved inside the measure window
		issued    stats.Counter // requests sent, lifetime
		resolved  stats.Counter // requests answered or errored, lifetime
		wg        sync.WaitGroup
		stop      = make(chan struct{})
		errCh     = make(chan error, sessions)
	)
	start := make(chan struct{})
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			client, err := cl.NewClient(0, s%partitions)
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			// call brackets one client request so a hang is visible as
			// issued > resolved instead of a silent stall.
			measure := false
			call := func(f func() error) error {
				issued.Inc()
				err := f()
				resolved.Inc()
				if measure {
					reqCount.Inc()
				}
				return err
			}
			k1 := fmt.Sprintf("cl-%d-a", s%o.KeysPerPartition)
			k2 := fmt.Sprintf("cl-%d-b", s%o.KeysPerPartition)
			k3 := fmt.Sprintf("cl-%d-c", s%o.KeysPerPartition)
			<-start
			warmupEnd := time.Now().Add(o.Warmup)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !measure && time.Now().After(warmupEnd) {
					measure = true
				}
				t0 := time.Now()
				var tx cluster.Tx
				if err := call(func() (e error) { tx, e = client.Begin(); return }); err != nil {
					errCount.Inc()
					continue
				}
				if err := call(func() (e error) { _, e = tx.Read(k1, k2); return }); err != nil {
					errCount.Inc()
					_ = call(tx.Abort) // clears the session's open tx
					continue
				}
				if err := tx.Write(k3, []byte("v")); err != nil { // local buffer, no request
					errCount.Inc()
					_ = call(tx.Abort)
					continue
				}
				if err := call(func() (e error) { _, e = tx.Commit(); return }); err != nil {
					errCount.Inc()
					continue
				}
				if measure {
					hist.RecordDuration(time.Since(t0))
					committed.Inc()
				}
			}
		}(s)
	}
	close(start)
	time.Sleep(o.Warmup + o.Measure)
	close(stop)

	// Join with a generous timeout: a session that cannot exit is stuck in
	// a request that never resolved — exactly what the Unresolved column
	// exists to expose (a shed or dropped request must retry or error, not
	// vanish).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
	}
	unresolved := issued.Load() - resolved.Load()
	select {
	case err := <-errCh:
		return ClientsRow{}, err
	default:
	}
	if err := cl.EnginesHealthy(); err != nil {
		return ClientsRow{}, fmt.Errorf("cluster finished degraded: %w", err)
	}
	rowLinks := 0
	if pooled {
		rowLinks = links
	}
	secs := o.Measure.Seconds()
	return ClientsRow{
		Sessions:   sessions,
		Pooled:     pooled,
		Links:      rowLinks,
		TxPerSec:   float64(committed.Load()) / secs,
		ReqPerSec:  float64(reqCount.Load()) / secs,
		MeanLatMs:  hist.Mean() / 1000,
		P50LatMs:   float64(hist.Percentile(50)) / 1000,
		P99LatMs:   float64(hist.Percentile(99)) / 1000,
		Committed:  committed.Load(),
		Errors:     errCount.Load(),
		Shed:       cl.ShedRequests(),
		Unresolved: unresolved,
	}, nil
}

// Unresolved returns the total requests across all rows that never
// resolved; CI fails the sweep when it is nonzero.
func (r *ClientsReport) Unresolved() uint64 {
	var total uint64
	for _, row := range r.Rows {
		total += row.Unresolved
	}
	return total
}

// WriteJSON serializes the report, indented for diffable commits.
func (r *ClientsReport) WriteJSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FormatClients renders the report for humans.
func FormatClients(r *ClientsReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Client multiplexing sweep (%s, %dx%d, GOMAXPROCS=%d, timeout=%.0fms, retries=%d)\n",
		r.Protocol, r.DCs, r.Partitions, r.GoMaxProcs, r.RequestTimeoutMs, r.RetryAttempts)
	fmt.Fprintf(&b, "%9s %7s %6s %10s %10s %9s %9s %9s %8s %7s %11s\n",
		"sessions", "pooled", "links", "tx/s", "req/s", "mean(ms)", "p50(ms)", "p99(ms)", "errors", "shed", "unresolved")
	for _, row := range r.Rows {
		pooled := "no"
		if row.Pooled {
			pooled = "yes"
		}
		fmt.Fprintf(&b, "%9d %7s %6d %10.0f %10.0f %9.2f %9.2f %9.2f %8d %7d %11d\n",
			row.Sessions, pooled, row.Links, row.TxPerSec, row.ReqPerSec,
			row.MeanLatMs, row.P50LatMs, row.P99LatMs, row.Errors, row.Shed, row.Unresolved)
	}
	return b.String()
}
