// Command benchmark is SHHC's end-to-end benchmark: it assembles the
// production wiring in one process, drives it with /v1/plan requests made
// from internal/trace, checks every answer, and prints each metric of
// BENCHMARK.json by name with its unit. See README.md.
//
//	go run -C benchmark . --workload first_full --seed 1 --seconds 9 --trace 0
//	go run -C benchmark . -all -out run.json
//	go run -C benchmark . -repeat 5 -out five.json
//	go run -C benchmark . -compare baseline.json five.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// rounds is how many set-up + window cycles a run makes, each on a fresh
// stack. Traced, the first of them is the undecorated reference.
const rounds = 3

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload and print its metrics as one JSON line")
		seed    = flag.Int64("seed", 1, "derives every trace.Spec seed; the stack only ever sees generated requests")
		seconds = flag.Float64("seconds", 0, "how long a run measures, summed over its rounds (0 = run_seconds of BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics on the undecorated stack; 1: per-layer metrics with the timing decorators in place")
		dataDir = flag.String("data-dir", ".bench_data", "where the nodes' files live; a fresh directory per round is made inside and removed")
		outDir  = flag.String("out-dir", "", "write <workload>.spans.jsonl of the last traced round here")
		all     = flag.Bool("all", false, "run every workload, untraced then traced, and print every metric and the budget tables")
		repeat  = flag.Int("repeat", 0, "run every workload (or -workload) untraced this many times, on seeds -seed, -seed+1, ..., and print median and quartiles")
		out     = flag.String("out", "", "write the result file of -all or -repeat here")
		cmp     = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		verbose = flag.Bool("v", false, "print each round's end-to-end numbers to standard error")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		return fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			return fatal(fmt.Errorf("usage: -compare old.json new.json"))
		}
		old, err := readResultFile(flag.Arg(0))
		if err != nil {
			return fatal(err)
		}
		cur, err := readResultFile(flag.Arg(1))
		if err != nil {
			return fatal(err)
		}
		regressed, unresolved := compare(os.Stdout, spec, old, cur)
		fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
		if regressed > 0 {
			return 1
		}
		return 0
	}

	o := options{seed: *seed, seconds: *seconds, rounds: rounds, scale: 1, dataDir: *dataDir, outDir: *outDir, stack: defaultStack(), verbose: *verbose}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.dataDir, err = filepath.Abs(o.dataDir); err != nil {
		return fatal(err)
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fatal(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{*w}
	}

	switch {
	case *all || *repeat > 0:
		file := &resultFile{Env: stampEnvironment(o), Results: map[string]map[string]series{}}
		ok := true
		for i := 0; i < max(1, *repeat); i++ {
			o.seed = *seed + int64(i)
			for j := range selected {
				w := &selected[j]
				for _, tr := range []bool{false, true} {
					if tr && !*all {
						continue
					}
					line, err := runChild(w.name, o, tr)
					if err != nil {
						return fatal(err)
					}
					ok = ok && line.Correct
					values := map[string]float64{}
					for k, v := range line.Metrics {
						values[k] = v.Value
					}
					file.add(w.name, spec.metricsFor(tr), values)
				}
			}
		}
		if *repeat > 0 {
			file.printSeries(os.Stdout, spec)
		}
		if *out != "" {
			if err := file.write(*out); err != nil {
				return fatal(err)
			}
		}
		if !ok {
			return 1
		}
		return 0
	case *name != "":
		w := &selected[0]
		res, err := measureAndCheck(o, spec, w, *traced == 1)
		if err != nil {
			return fatal(err)
		}
		printResult(w.name, *traced == 1, spec, res)
		if err := printContractLine(spec.metricsFor(*traced == 1), res); err != nil {
			return fatal(err)
		}
		if res.failed > 0 {
			return 1
		}
		return 0
	}
	flag.Usage()
	return 2
}

func fatal(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// measureAndCheck runs one workload in one mode and refuses a metric set
// that differs from BENCHMARK.json's.
func measureAndCheck(o options, spec *benchSpec, w *workload, traced bool) (*result, error) {
	res, err := runWorkload(o, w, traced)
	if err != nil {
		return nil, err
	}
	if err := checkNames(res.metrics, spec.metricsFor(traced)); err != nil {
		return nil, err
	}
	return res, nil
}

// printResult writes the human-readable report to standard error, so the
// contract's JSON object stays the last line of standard output.
func printResult(name string, traced bool, spec *benchSpec, res *result) {
	mode := "end-to-end, tracing off"
	if traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(os.Stderr, "== %s (%s): %d plans attempted, %d failed\n", name, mode, res.attempted, res.failed)
	for _, m := range spec.metricsFor(traced) {
		fmt.Fprintf(os.Stderr, "  %-34s %16.4f %s\n", m.Name, res.metrics[m.Name], m.Unit)
	}
	if res.budget != nil {
		res.budget.print(os.Stderr, name)
	}
	for _, v := range res.violations {
		fmt.Fprintln(os.Stderr, "  VIOLATION:", v)
	}
}

// contractLine is the one JSON object the driver reads.
type contractLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func printContractLine(specs []metricSpec, res *result) error {
	line := contractLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	line.Metrics = make(map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}, len(specs))
	for _, m := range specs {
		v := line.Metrics[m.Name]
		v.Value, v.Unit = res.metrics[m.Name], m.Unit
		line.Metrics[m.Name] = v
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// runChild measures one workload in a process of its own, exactly as the
// driver does, so that -all and -repeat report what the driver would see:
// a run that shares its process with earlier workloads starts from their
// heap, which shows in mem_peak_mb and, through the collector, in
// cpu_us_per_fp. The child's report goes to standard error; its JSON line
// is parsed here.
func runChild(workload string, o options, traced bool) (*contractLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-trace", trace,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-data-dir", o.dataDir, "-out-dir", o.outDir, "-v="+strconv.FormatBool(o.verbose))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line contractLine
	if jerr := json.Unmarshal(lines[len(lines)-1], &line); jerr != nil {
		return nil, fmt.Errorf("%s: no result line (%v): %w", workload, err, jerr)
	}
	return &line, nil
}
