package metrics

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

type histStats struct {
	Chain [3]uint64
	Waves [2]innerStats
}

// TestFieldArrays: an array's elements are leaves named by their index, an
// array of structs is walked per element, and both survive Fields →
// SetFields.
func TestFieldArrays(t *testing.T) {
	in := histStats{Chain: [3]uint64{1, 2, 3}, Waves: [2]innerStats{{QueueDepth: 4}, {QueueDepth: 5, WaveSizes: Summary{P99: time.Second}}}}
	var names []string
	for _, f := range Fields(&in) {
		names = append(names, f.Name)
	}
	if names[0] != "chain.0" || names[2] != "chain.2" || names[3] != "waves.0.queue_depth" || names[len(names)-1] != "waves.1.wave_sizes.p99" {
		t.Fatalf("names = %q", names)
	}
	var out histStats
	SetFields(&out, Fields(&in))
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip\n got %+v\nwant %+v", out, in)
	}
}

// TestWritePrometheus: one group per leaf, one sample per struct under its
// label, durations in seconds and bools as 0 or 1.
func TestWritePrometheus(t *testing.T) {
	vs := []sampleStats{{Lookups: 7, SSD: 1500 * time.Millisecond, Saturated: true}, {Lookups: 9, EstimatedFPRate: 0.25}}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, "shhc_x", "node", []string{"a", "b"}, vs); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE shhc_x_lookups untyped\nshhc_x_lookups{node=\"a\"} 7\nshhc_x_lookups{node=\"b\"} 9\n",
		"shhc_x_ssd{node=\"a\"} 1.5\n", "shhc_x_saturated{node=\"a\"} 1\n", "shhc_x_saturated{node=\"b\"} 0\n",
		"shhc_x_estimated_fp_rate{node=\"b\"} 0.25\n", "shhc_x_inner__wave_sizes__p99{node=\"a\"} 0\n",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("output lacks %q:\n%s", want, text)
		}
	}
	counts := SampleCounts(text)
	for _, f := range Fields(sampleStats{}) {
		for _, key := range []string{"a", "b"} {
			if n := counts[PromName("shhc_x", f.Name)+"{node=\""+key+"\"}"]; n != 1 {
				t.Fatalf("%s for %s: %d samples, want 1", f.Name, key, n)
			}
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	mux := http.NewServeMux()
	notReady := io.ErrUnexpectedEOF
	Serve(mux, func(_ context.Context, w io.Writer) error {
		return WritePrometheus(w, "p", "", nil, []sampleStats{{Lookups: 3}})
	}, func(context.Context) error { return notReady })
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := get("/metrics"); code != 200 || SampleCounts(body)["p_lookups"] != 1 {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while not ready = %d, want 503", code)
	}
	notReady = nil
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz when ready = %d", code)
	}
}
