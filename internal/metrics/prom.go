package metrics

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"
)

// WritePrometheus writes the leaves of the structs vs, all of one type, in
// the Prometheus text exposition format, one group per metric: leaf "a.b"
// is metric PromName(prefix, "a.b"), with one untyped sample per struct,
// labelled label="keys[i]" when label is not "". A time.Duration is written
// in seconds and a bool as 0 or 1.
func WritePrometheus[T any](w io.Writer, prefix, label string, keys []string, vs []T) error {
	if len(vs) == 0 {
		return nil
	}
	rvs := make([]reflect.Value, len(vs))
	for i := range vs {
		rvs[i] = reflect.Indirect(reflect.ValueOf(vs[i]))
	}
	s := schemaOf(rvs[0].Type())
	bw := bufio.NewWriter(w)
	for _, name := range s.names {
		metric := PromName(prefix, name)
		bw.WriteString("# TYPE " + metric + " untyped\n")
		for i, rv := range rvs {
			bw.WriteString(metric)
			if label != "" {
				bw.WriteString("{" + label + "=" + strconv.Quote(keys[i]) + "}")
			}
			bw.WriteByte(' ')
			bw.WriteString(promValue(at(rv, s.index[name])))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// PromName is the metric WritePrometheus writes leaf name under: prefix_,
// then the name with each '.' spelled "__", so a nested leaf never takes
// the name of a flat one (core.NodeStats has cache_hits and cache.hits).
func PromName(prefix, name string) string {
	return prefix + "_" + strings.ReplaceAll(name, ".", "__")
}

var durationType = reflect.TypeOf(time.Duration(0))

func promValue(v reflect.Value) string {
	switch {
	case v.Type() == durationType:
		return strconv.FormatFloat(time.Duration(v.Int()).Seconds(), 'g', -1, 64)
	case v.CanUint():
		return strconv.FormatUint(v.Uint(), 10)
	case v.CanInt():
		return strconv.FormatInt(v.Int(), 10)
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return "1"
		}
		return "0"
	}
	return strconv.FormatFloat(v.Float(), 'g', -1, 64) // NaN, +Inf and -Inf as the format spells them
}

// SampleCounts counts the samples of Prometheus text by series — the metric
// name with its labels, as written — skipping comments.
func SampleCounts(text string) map[string]int {
	counts := make(map[string]int)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			counts[line[:i]]++
		}
	}
	return counts
}

// Serve registers a process's observability endpoints on mux: /metrics,
// the Prometheus text write renders; /healthz, 200 while the process
// answers HTTP at all; and /readyz, 200 when ready returns nil and 503 with
// its error otherwise.
func Serve(mux *http.ServeMux, write func(ctx context.Context, w io.Writer) error, ready func(ctx context.Context) error) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := write(r.Context(), &buf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if err := ready(r.Context()); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
}
