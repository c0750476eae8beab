// Command shhc-bench regenerates the paper's evaluation: Figure 1 (sim
// sweep), Table I (workload stats), Figure 5 (cluster throughput), Figure 6
// (load balance).
//
// Examples:
//
//	shhc-bench                     # full suite, paper-shaped parameters
//	shhc-bench -run fig5 -scale 64 -fps 100000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"shhc/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "shhc-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		runSel = flag.String("run", "all", "experiments: all|fig1|table1|fig5|fig6 (comma-separated)")
		scale  = flag.Int("scale", 64, "workload scale divisor for cluster experiments")
		t1     = flag.Int("table1-scale", 16, "workload scale divisor for Table I stats")
		fps    = flag.Int("fps", 100000, "fingerprints per Figure 5 cell")
		outPth = flag.String("out", "", "also write the report to this file")
	)
	flag.Parse()

	var out io.Writer = os.Stdout
	var file *os.File
	if *outPth != "" {
		f, err := os.Create(*outPth)
		if err != nil {
			return fmt.Errorf("create %s: %w", *outPth, err)
		}
		file = f
		out = io.MultiWriter(os.Stdout, f)
	}

	selected := map[string]bool{}
	for _, s := range strings.Split(*runSel, ",") {
		selected[strings.TrimSpace(s)] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	section := func(title string) {
		fmt.Fprintf(out, "\n================ %s ================\n", title)
	}

	if want("fig1") {
		section("Figure 1 (simulator)")
		start := time.Now()
		points, err := bench.RunFigure1(bench.Figure1Config{})
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatFigure1(points))
		fmt.Fprintf(out, "(%v)\n", time.Since(start).Round(time.Millisecond))
	}

	if want("table1") {
		section("Table I (workload characteristics)")
		start := time.Now()
		rows, err := bench.RunTable1(bench.Table1Config{Scale: *t1})
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatTable1(rows, *t1))
		fmt.Fprintf(out, "(%v)\n", time.Since(start).Round(time.Millisecond))
	}

	if want("fig5") {
		section("Figure 5 (cluster throughput over TCP)")
		start := time.Now()
		points, err := bench.RunFigure5(bench.Figure5Config{
			Fingerprints: *fps,
			Scale:        *scale,
			UseTCP:       true,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatFigure5(points))
		fmt.Fprintf(out, "(%v)\n", time.Since(start).Round(time.Millisecond))
	}

	if want("fig5sim") || want("fig5") {
		section("Figure 5 cross-check (queueing simulator)")
		points, err := bench.RunFigure5Sim(nil, nil, 100000)
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatFigure5Sim(points))
	}

	if want("fig6") {
		section("Figure 6 (load balance)")
		start := time.Now()
		points, err := bench.RunFigure6(bench.Figure6Config{Nodes: 4, Scale: *scale})
		if err != nil {
			return err
		}
		fmt.Fprint(out, bench.FormatFigure6(points))
		fmt.Fprintf(out, "(%v)\n", time.Since(start).Round(time.Millisecond))
	}

	if file != nil {
		if err := file.Close(); err != nil {
			return err
		}
	}
	return nil
}
