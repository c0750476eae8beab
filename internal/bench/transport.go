package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"shhc/internal/core"
	"shhc/internal/fingerprint"
	"shhc/internal/ring"
	"shhc/internal/rpc"
)

// ---------------------------------------------------------------------------
// Benchmark: the multiplexed transport.
//
// Two questions, two scenarios:
//
//  1. Scale — can a handful of TCP connections carry tens of thousands of
//     concurrent logical clients? Each logical client is a goroutine with
//     its own stream handle (Client.OpenStream) issuing synchronous
//     lookups; the sweep pins the TCP connection count and scales the
//     logical client count far past it.
//
//  2. Isolation — when one consumer stalls (issues pipelined batches and
//     never collects the results), does its exhausted credit window stay
//     its own problem? Two cells: a healthy baseline and the same load
//     with a staller. The isolation ratio is stalled / baseline healthy
//     throughput.
// ---------------------------------------------------------------------------

// Transport scenario names, as they appear in the JSON.
const (
	TransportScenarioScale    = "mux-scale"
	TransportScenarioBaseline = "stalled-consumer/baseline"
	TransportScenarioStall    = "stalled-consumer/stalled"
)

// TransportPoint is one cell of the transport benchmark.
type TransportPoint struct {
	Scenario string `json:"scenario"`
	// TCPConns is the number of TCP connections carrying the cell's load.
	TCPConns int `json:"tcpConns"`
	// LogicalClients is the number of concurrent callers, each with its
	// own stream handle.
	LogicalClients int `json:"logicalClients"`
	// Ops counts completed lookups (scale) or batch entries (stall cells)
	// by the healthy workers only — the staller's traffic never counts.
	Ops        int64         `json:"ops"`
	Throughput float64       `json:"throughputOpsPerSec"`
	Elapsed    time.Duration `json:"elapsedNanos"`
	// ServerCreditStalls / ServerBytesInFlight snapshot the server's mux
	// after the cell: stalls prove the staller actually exhausted its
	// window; bytes-in-flight show how much queued memory the credit cap
	// bounds.
	ServerCreditStalls  uint64 `json:"serverCreditStalls"`
	ServerBytesInFlight uint64 `json:"serverBytesInFlight"`
	ServerWindowUpdates uint64 `json:"serverWindowUpdates"`
	// ClientCreditStalls counts callers blocked waiting for send credit.
	ClientCreditStalls uint64 `json:"clientCreditStalls"`
}

// TransportReport is the emitted benchmark: the cells plus the headline
// isolation ratio (stalled healthy throughput over baseline).
type TransportReport struct {
	Experiment    string           `json:"experiment"`
	Points        []TransportPoint `json:"points"`
	IsolatedRatio float64          `json:"isolatedRatio"`
}

// transportBackend answers every request from RAM with constant work, so
// the benchmark measures the wire, not an index.
type transportBackend struct{ id ring.NodeID }

func (b *transportBackend) ID() ring.NodeID { return b.id }

func (b *transportBackend) Lookup(ctx context.Context, fp fingerprint.Fingerprint) (core.LookupResult, error) {
	return core.LookupResult{Exists: true, Source: core.SourceCache, Value: 1}, nil
}

func (b *transportBackend) LookupOrInsert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) (core.LookupResult, error) {
	return core.LookupResult{Exists: true, Source: core.SourceCache, Value: val}, nil
}

func (b *transportBackend) BatchLookupOrInsert(ctx context.Context, pairs []core.Pair) ([]core.LookupResult, error) {
	rs := make([]core.LookupResult, len(pairs))
	for i := range pairs {
		rs[i] = core.LookupResult{Exists: true, Source: core.SourceCache, Value: pairs[i].Val}
	}
	return rs, nil
}

func (b *transportBackend) Insert(ctx context.Context, fp fingerprint.Fingerprint, val core.Value) error {
	return nil
}

func (b *transportBackend) Stats(ctx context.Context) (core.NodeStats, error) {
	return core.NodeStats{ID: b.id}, nil
}

func (b *transportBackend) Close() error { return nil }

// RunTransportBench runs both scenarios. logicalClients, tcpConns, and
// measureMillis fall back to 10000, 16, and 300 when zero. tcpConns is
// clamped to 16 — the point of the exercise is that it stays small.
func RunTransportBench(logicalClients, tcpConns, measureMillis int) (TransportReport, error) {
	if logicalClients <= 0 {
		logicalClients = 10000
	}
	if tcpConns <= 0 {
		tcpConns = 16
	}
	if tcpConns > 16 {
		tcpConns = 16
	}
	measure := 300 * time.Millisecond
	if measureMillis > 0 {
		measure = time.Duration(measureMillis) * time.Millisecond
	}

	report := TransportReport{Experiment: "mux-transport"}

	scale, err := runTransportScale(logicalClients, tcpConns, measure)
	if err != nil {
		return report, fmt.Errorf("bench: transport scale: %w", err)
	}
	report.Points = append(report.Points, scale)

	baseline, err := runTransportStallCell(TransportScenarioBaseline, false, measure)
	if err != nil {
		return report, fmt.Errorf("bench: transport %s: %w", TransportScenarioBaseline, err)
	}
	stalled, err := runTransportStallCell(TransportScenarioStall, true, measure)
	if err != nil {
		return report, fmt.Errorf("bench: transport %s: %w", TransportScenarioStall, err)
	}
	report.Points = append(report.Points, baseline, stalled)
	if baseline.Throughput > 0 {
		report.IsolatedRatio = stalled.Throughput / baseline.Throughput
	}
	return report, nil
}

// startTransportServer serves the RAM backend on a loopback port.
func startTransportServer() (*rpc.Server, string, error) {
	srv := rpc.NewServer(&transportBackend{id: "bench-transport"}, rpc.ServerConfig{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr.String(), nil
}

// runTransportScale: logicalClients goroutines, each with its own stream
// handle, share tcpConns TCP connections and hammer synchronous lookups.
func runTransportScale(logicalClients, tcpConns int, measure time.Duration) (TransportPoint, error) {
	srv, addr, err := startTransportServer()
	if err != nil {
		return TransportPoint{}, err
	}
	defer srv.Close()

	client, err := rpc.Dial("bench-transport", addr, rpc.ClientConfig{Conns: tcpConns})
	if err != nil {
		return TransportPoint{}, err
	}
	defer client.Close()

	ctx := context.Background()
	var (
		ops     atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	start := time.Now()
	for i := 0; i < logicalClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stream := client.OpenStream()
			fp := fingerprint.FromUint64(uint64(i))
			for !stop.Load() {
				if _, err := stream.LookupOrInsert(ctx, fp, core.Value(i+1)); err != nil {
					errOnce.Do(func() { runErr = err })
					return
				}
				ops.Add(1)
			}
		}(i)
	}
	time.Sleep(measure)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if runErr != nil {
		return TransportPoint{}, runErr
	}

	st, err := client.Stats(ctx)
	if err != nil {
		return TransportPoint{}, err
	}
	n := ops.Load()
	return TransportPoint{
		Scenario:            TransportScenarioScale,
		TCPConns:            tcpConns,
		LogicalClients:      logicalClients,
		Ops:                 n,
		Throughput:          float64(n) / elapsed.Seconds(),
		Elapsed:             elapsed,
		ServerCreditStalls:  st.Transport.CreditStalls,
		ServerBytesInFlight: st.Transport.BytesInFlight,
		ServerWindowUpdates: st.Transport.WindowUpdates,
		ClientCreditStalls:  client.CreditStalls(),
	}, nil
}

// Stall-cell shape: a few healthy workers run synchronous batches on
// their own streams over ONE TCP connection, while (in stalled cells) a
// staller on its own stream pipelines batch futures it never collects.
const (
	stallHealthyWorkers = 8
	stallBatchSize      = 64
)

func runTransportStallCell(scenario string, staller bool, measure time.Duration) (TransportPoint, error) {
	srv, addr, err := startTransportServer()
	if err != nil {
		return TransportPoint{}, err
	}
	defer srv.Close()

	// One TCP connection: isolation must come from stream credit, not
	// from the staller being parked on a different socket.
	client, err := rpc.Dial("bench-transport", addr, rpc.ClientConfig{Conns: 1})
	if err != nil {
		return TransportPoint{}, err
	}
	defer client.Close()

	var (
		ops     atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	// The staller gets its own cancellable context: cancelling it is the
	// only way to unblock a goroutine parked on exhausted stream credit,
	// and the healthy workers must not see that cancellation.
	ctx := context.Background()
	stallCtx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if staller {
		// The staller pipelines futures and never collects them: its
		// stream's response credit runs dry on the server, then its
		// request credit runs dry here, and it blocks — alone.
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream := client.OpenStream()
			pairs := make([]core.Pair, stallBatchSize)
			for i := range pairs {
				pairs[i] = core.Pair{FP: fingerprint.FromUint64(uint64(i)), Val: core.Value(i + 1)}
			}
			for !stop.Load() {
				call := stream.GoBatchLookupOrInsert(stallCtx, pairs)
				_ = call // never collected; cancel() settles it at teardown
				if stallCtx.Err() != nil {
					return
				}
			}
		}()
	}

	start := time.Now()
	for w := 0; w < stallHealthyWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := client.OpenStream()
			pairs := make([]core.Pair, stallBatchSize)
			for i := range pairs {
				pairs[i] = core.Pair{FP: fingerprint.FromUint64(uint64(w*stallBatchSize + i)), Val: core.Value(i + 1)}
			}
			for !stop.Load() {
				if _, err := stream.BatchLookupOrInsert(ctx, pairs); err != nil {
					errOnce.Do(func() { runErr = err })
					return
				}
				ops.Add(int64(stallBatchSize))
			}
		}(w)
	}
	time.Sleep(measure)
	elapsed := time.Since(start)

	// Snapshot server stats BEFORE teardown: bytes-in-flight shows the
	// staller's bounded backlog only while it is still queued.
	st, statsErr := client.Stats(ctx)

	stop.Store(true)
	cancel() // unblock the staller (credit wait) and settle its futures
	wg.Wait()
	if runErr != nil {
		return TransportPoint{}, runErr
	}
	if statsErr != nil {
		return TransportPoint{}, statsErr
	}

	n := ops.Load()
	clients := stallHealthyWorkers
	if staller {
		clients++
	}
	return TransportPoint{
		Scenario:            scenario,
		TCPConns:            1,
		LogicalClients:      clients,
		Ops:                 n,
		Throughput:          float64(n) / elapsed.Seconds(),
		Elapsed:             elapsed,
		ServerCreditStalls:  st.Transport.CreditStalls,
		ServerBytesInFlight: st.Transport.BytesInFlight,
		ServerWindowUpdates: st.Transport.WindowUpdates,
		ClientCreditStalls:  client.CreditStalls(),
	}, nil
}

// FormatTransportBench renders the report with the isolation headline.
func FormatTransportBench(r TransportReport) string {
	t := &table{header: []string{
		"scenario", "tcpConns", "clients", "throughput(ops/s)", "srvStalls", "srvBytesQ", "cliStalls",
	}}
	for _, p := range r.Points {
		t.addRow(
			p.Scenario,
			fmt.Sprintf("%d", p.TCPConns),
			fmt.Sprintf("%d", p.LogicalClients),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%d", p.ServerCreditStalls),
			fmt.Sprintf("%d", p.ServerBytesInFlight),
			fmt.Sprintf("%d", p.ClientCreditStalls),
		)
	}
	return fmt.Sprintf(
		"Benchmark: multiplexed transport (streams + credit flow control; isolation ratio = stalled/baseline healthy throughput: %.2f)\n%s",
		r.IsolatedRatio, t.String())
}

// EmitTransportReport writes the report to path as JSON for regression
// tracking (BENCH_transport.json in CI and CHANGES.md).
func EmitTransportReport(path string, r TransportReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
