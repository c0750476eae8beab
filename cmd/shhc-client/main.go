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
	"errors"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "shhc-client:", err)
		os.Exit(1)
	}
}

// options is the client's command line.
type options struct {
	front, backup, manifest, restore, out, probe string
	chunk, batch                                 int
	timeout                                      time.Duration
}

// flags declares the command's flags over o, with their defaults; usage goes
// to out.
func flags(o *options, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("shhc-client", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.front, "front", "http://127.0.0.1:8080", "front-end base URL")
	fs.StringVar(&o.backup, "backup", "", "file to back up")
	fs.StringVar(&o.manifest, "manifest", "", "manifest path (written on backup, read on restore)")
	fs.StringVar(&o.restore, "restore", "", "manifest to restore from")
	fs.StringVar(&o.out, "out", "", "output path for restore")
	fs.IntVar(&o.chunk, "chunk", 4096, "fixed chunk size in bytes (0 = content-defined)")
	fs.IntVar(&o.batch, "batch", 2048, "fingerprints per plan request")
	fs.DurationVar(&o.timeout, "timeout", 0, "overall run deadline (0 = none)")
	fs.StringVar(&o.probe, "probe", "", "probe a hash node directly over RPC (id=host:port): ping, one round-trip per stream, every stats counter")
	return fs
}

// run parses args and runs one backup, restore or probe, reporting to
// stdout.
func run(args []string, stdout io.Writer) error {
	var o options
	if err := flags(&o, stdout).Parse(args); err != nil {
		return err
	}

	// Ctrl-C (or a deadline from -timeout) cancels the run: in-flight plan
	// and upload requests abort instead of holding the front-end's
	// flight-table slots.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	if o.probe != "" {
		return probeNode(ctx, stdout, o.probe)
	}

	client, err := backup.New(backup.Config{FrontURL: o.front, ChunkSize: o.chunk, PlanBatch: o.batch})
	if err != nil {
		return err
	}

	switch {
	case o.backup != "":
		report, err := client.BackupFile(ctx, o.backup)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report)
		if o.manifest != "" {
			if err := backup.SaveManifest(report.Manifest, o.manifest); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "manifest saved to %s\n", o.manifest)
		}
		return nil

	case o.restore != "":
		if o.out == "" {
			return fmt.Errorf("-restore requires -out")
		}
		m, err := backup.LoadManifest(o.restore)
		if err != nil {
			return err
		}
		f, err := os.Create(o.out)
		if err != nil {
			return fmt.Errorf("create %s: %w", o.out, err)
		}
		if err := client.Restore(ctx, m, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "restored %d chunks (%d bytes) to %s\n", len(m.Chunks), m.Bytes, o.out)
		return nil
	}
	return fmt.Errorf("nothing to do: pass -backup FILE, -restore MANIFEST, or -probe id=host:port")
}

// probeNode dials a hash node's RPC port directly, exercises a few
// streams, and prints every counter of the node's stats by name to out.
func probeNode(ctx context.Context, out io.Writer, target string) error {
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
	fmt.Fprintf(out, "node %s at %s: protocol v%d, ping %v\n", id, hostport, wire.ProtocolVersion, rtt.Round(time.Microsecond))

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
		fmt.Fprintln(out, name, v)
	}
	return nil
}
