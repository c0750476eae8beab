package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"shhc/internal/directio"
)

// metricSpec and benchSpec mirror BENCHMARK.json, the one list of workload
// and metric names: the binary takes names, units, directions and bounds
// from it and refuses to print a set that differs.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repo root, which is the working
// directory's parent under `go run -C benchmark .` and `go test`.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, s.checkWorkloads()
	}
	return nil, firstErr
}

func (s *benchSpec) checkWorkloads() error {
	var have, want []string
	for _, w := range s.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(have, ",") != strings.Join(want, ",") {
		return fmt.Errorf("workloads differ: binary has %v, BENCHMARK.json has %v", have, want)
	}
	return nil
}

func (s *benchSpec) metricsFor(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// checkNames fails unless got has exactly the names of want.
func checkNames(got map[string]float64, want []metricSpec) error {
	names := map[string]bool{}
	for _, m := range want {
		names[m.Name] = true
		if _, ok := got[m.Name]; !ok {
			return fmt.Errorf("metric %q is in BENCHMARK.json but was not measured", m.Name)
		}
	}
	for k := range got {
		if !names[k] {
			return fmt.Errorf("metric %q was measured but is not in BENCHMARK.json", k)
		}
	}
	return nil
}

// environment is stamped on every result file.
type environment struct {
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Rounds     int         `json:"rounds"`
	Stack      stackConfig `json:"stack"`
	Filesystem string      `json:"filesystem"`
	ODirect    bool        `json:"o_direct_works"`
}

var fsNames = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
}

func stampEnvironment(o options) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds, Rounds: o.rounds, Stack: o.stack,
		Filesystem: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if err := os.MkdirAll(o.dataDir, 0o755); err != nil {
		return env
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(o.dataDir, &fs); err == nil {
		env.Filesystem = fmt.Sprintf("0x%x", int64(fs.Type))
		if name, ok := fsNames[int64(fs.Type)]; ok {
			env.Filesystem = name
		}
	}
	probe, err := os.CreateTemp(o.dataDir, "odirect-")
	if err != nil {
		return env
	}
	probe.Close()
	defer os.Remove(probe.Name())
	if f, err := directio.Open(probe.Name(), os.O_RDWR, 0o644, directio.Options{}); err == nil {
		env.ODirect = f.Direct()
		f.Close()
	}
	return env
}

// series is one metric of one workload over the runs of a result file.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

type resultFile struct {
	Env     environment                  `json:"env"`
	Results map[string]map[string]series `json:"results"`
}

// quartiles follows Python's statistics.quantiles(values, n=4), which is
// what the acceptance check of the benchmark contract uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func (f *resultFile) add(workload string, specs []metricSpec, values map[string]float64) {
	if f.Results[workload] == nil {
		f.Results[workload] = map[string]series{}
	}
	for _, m := range specs {
		s := f.Results[workload][m.Name]
		s.Unit = m.Unit
		s.Values = append(s.Values, values[m.Name])
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		f.Results[workload][m.Name] = s
	}
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printSeries prints median and quartiles per metric × workload.
func (f *resultFile) printSeries(w io.Writer, spec *benchSpec) {
	fmt.Fprintf(w, "%-14s %-22s %-14s %14s %14s %14s %8s\n", "workload", "metric", "unit", "q1", "median", "q3", "spread")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			s, ok := f.Results[wl.Name][m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-14s %-22s %-14s %14.4f %14.4f %14.4f %7.2f%%\n",
				wl.Name, m.Name, s.Unit, s.Q1, s.Median, s.Q3, div(s.Q3-s.Q1, s.Median)*100)
		}
	}
}

// compare prints one row per end-to-end metric × workload: how much worse
// the new median is than the old one, against the metric's bound. A row is
// unresolved when either side's own spread is wider than the bound. It
// returns the number of regressed and of unresolved rows.
func compare(w io.Writer, spec *benchSpec, old, cur *resultFile) (regressed, unresolved int) {
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "old", "new", "worse", "bound", "spread", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, okA := old.Results[wl.Name][m.Name]
			b, okB := cur.Results[wl.Name][m.Name]
			if !okA || !okB {
				continue
			}
			worse := div(b.Median-a.Median, a.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(div(a.Q3-a.Q1, a.Median), div(b.Q3-b.Q1, b.Median))
			verdict := "same"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > m.Bound:
				verdict = "regressed"
				regressed++
			case -worse > max(spread, m.Bound):
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-14s %-22s %14.4f %14.4f %+8.2f%% %6.1f%% %7.2f%%  %s\n",
				wl.Name, m.Name, a.Median, b.Median, worse*100, m.Bound*100, spread*100, verdict)
		}
	}
	return regressed, unresolved
}
