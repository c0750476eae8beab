// Command shhc-lb runs the HTTP load balancer tier from the paper's
// Figure 2 (the HAProxy box): a round-robin, health-checked reverse proxy
// over web front-ends.
//
// Example:
//
//	shhc-lb -addr :8000 -backends http://10.0.0.2:8080,http://10.0.0.3:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"shhc/internal/lb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "shhc-lb:", err)
		os.Exit(1)
	}
}

// options is the balancer's command line.
type options struct {
	addr, backends string
	interval       time.Duration
}

// flags declares the command's flags over o, with their defaults; usage goes
// to out.
func flags(o *options, out io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("shhc-lb", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8000", "listen address")
	fs.StringVar(&o.backends, "backends", "", "comma-separated front-end base URLs")
	fs.DurationVar(&o.interval, "health-interval", time.Second, "health probe period")
	return fs
}

// run parses args and serves the balancer until SIGINT or SIGTERM.
func run(args []string, stdout io.Writer) error {
	var o options
	if err := flags(&o, stdout).Parse(args); err != nil {
		return err
	}
	if o.backends == "" {
		return fmt.Errorf("-backends is required")
	}

	var urls []string
	for _, u := range strings.Split(o.backends, ",") {
		urls = append(urls, strings.TrimSpace(u))
	}
	balancer, err := lb.New(lb.Config{Backends: urls, HealthInterval: o.interval})
	if err != nil {
		return err
	}
	defer balancer.Close()

	bound, err := balancer.Listen(o.addr)
	if err != nil {
		return err
	}
	log.Printf("load balancer on http://%s over %d backends", bound, len(urls))
	if !balancer.WaitHealthy(context.Background(), 5*time.Second) {
		log.Printf("warning: no backend healthy yet")
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	return nil
}
