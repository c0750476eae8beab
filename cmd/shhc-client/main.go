// Command shhc-client is the backup client: it chunks a file, asks the
// front-end which chunks are new, uploads only those, and can restore a
// stream from a saved manifest.
//
// It can also probe a hash node directly over the multiplexed RPC
// transport (bypassing the front-end), reporting the negotiated protocol
// version and every counter the node's STATS answer carries, one
// "name value" line each — handy for checking that a deployment actually
// negotiated streams and credit flow control.
//
// Examples:
//
//	shhc-client -front http://127.0.0.1:8080 -backup photos.tar -manifest photos.manifest
//	shhc-client -front http://127.0.0.1:8080 -restore photos.manifest -out photos.tar
//	shhc-client -probe node-00=127.0.0.1:7001
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"shhc/internal/backup"
	"shhc/internal/fingerprint"
	"shhc/internal/metrics"
	"shhc/internal/ring"
	"shhc/internal/rpc"
	"shhc/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shhc-client:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		front     = flag.String("front", "http://127.0.0.1:8080", "front-end base URL")
		backupArg = flag.String("backup", "", "file to back up")
		manifest  = flag.String("manifest", "", "manifest path (written on backup, read on restore)")
		restore   = flag.String("restore", "", "manifest to restore from")
		out       = flag.String("out", "", "output path for restore")
		chunkSize = flag.Int("chunk", 4096, "fixed chunk size in bytes (0 = content-defined)")
		batch     = flag.Int("batch", 2048, "fingerprints per plan request")
		timeout   = flag.Duration("timeout", 0, "overall run deadline (0 = none)")
		probe     = flag.String("probe", "", "probe a hash node directly over RPC (id=host:port): ping, one round-trip per stream, every stats counter")
	)
	flag.Parse()

	// Ctrl-C (or a deadline from -timeout) cancels the run: in-flight plan
	// and upload requests abort instead of holding the front-end's
	// flight-table slots.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *probe != "" {
		return probeNode(ctx, *probe)
	}

	client, err := backup.New(backup.Config{FrontURL: *front, ChunkSize: *chunkSize, PlanBatch: *batch})
	if err != nil {
		return err
	}

	switch {
	case *backupArg != "":
		report, err := client.BackupFile(ctx, *backupArg)
		if err != nil {
			return err
		}
		fmt.Println(report)
		if *manifest != "" {
			if err := backup.SaveManifest(report.Manifest, *manifest); err != nil {
				return err
			}
			fmt.Printf("manifest saved to %s\n", *manifest)
		}
		return nil

	case *restore != "":
		if *out == "" {
			return fmt.Errorf("-restore requires -out")
		}
		m, err := backup.LoadManifest(*restore)
		if err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create %s: %w", *out, err)
		}
		if err := client.Restore(ctx, m, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("restored %d chunks (%d bytes) to %s\n", len(m.Chunks), m.Bytes, *out)
		return nil
	}
	return fmt.Errorf("nothing to do: pass -backup FILE, -restore MANIFEST, or -probe id=host:port")
}

// probeNode dials a hash node's RPC port directly, exercises a few
// streams, and prints every counter of the node's stats by name.
func probeNode(ctx context.Context, target string) error {
	id, hostport, ok := strings.Cut(strings.TrimSpace(target), "=")
	if !ok {
		return fmt.Errorf("bad -probe target %q (want id=host:port)", target)
	}
	client, err := rpc.Dial(ring.NodeID(id), hostport, rpc.ClientConfig{Conns: 1, Timeout: 10 * time.Second})
	if err != nil {
		return err
	}
	defer client.Close()

	start := time.Now()
	if err := client.Ping(ctx); err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	rtt := time.Since(start)
	fmt.Printf("node %s at %s: protocol v%d, ping %v\n", id, hostport, wire.ProtocolVersion, rtt.Round(time.Microsecond))

	// One read-only round trip per stream handle: proves per-stream
	// traffic flows.
	const streams = 4
	for i := 0; i < streams; i++ {
		s := client.OpenStream()
		if _, err := s.Lookup(ctx, fingerprint.FromUint64(uint64(i)+1)); err != nil {
			return fmt.Errorf("stream %d lookup: %w", s.Stream(), err)
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	for name, v := range metrics.Values(&st) {
		if d, ok := v.(time.Duration); ok {
			v = int64(d) // as /v1/stats has it; destage.wave_sizes.* are entries
		}
		fmt.Println(name, v)
	}
	return nil
}
