package metrics

import (
	"math"
	"reflect"
	"testing"
	"time"
)

type innerStats struct {
	QueueDepth uint32
	WaveSizes  Summary
}

type sampleStats struct {
	ID              string
	Lookups         uint64
	StoreEntries    int
	Inner           innerStats
	EstimatedFPRate float64
	Saturated       bool
	SSD             time.Duration
}

func TestFieldNames(t *testing.T) {
	var got []string
	for _, f := range Fields(sampleStats{}) {
		got = append(got, f.Name)
	}
	want := []string{
		"lookups", "store_entries", "inner.queue_depth",
		"inner.wave_sizes.count", "inner.wave_sizes.sum", "inner.wave_sizes.min", "inner.wave_sizes.max",
		"inner.wave_sizes.mean", "inner.wave_sizes.p50", "inner.wave_sizes.p90", "inner.wave_sizes.p99",
		"estimated_fp_rate", "saturated", "ssd",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("names\n got %q\nwant %q", got, want)
	}
}

// TestFieldsRoundTrip: every leaf kind survives Fields → SetFields
// unchanged, a float64 bit for bit; unknown names are ignored and leaves no
// field names keep their value.
func TestFieldsRoundTrip(t *testing.T) {
	in := sampleStats{
		ID: "not a counter", Lookups: math.MaxUint64, StoreEntries: -7,
		Inner:           innerStats{QueueDepth: 9, WaveSizes: Summary{Count: 3, P99: -time.Second}},
		EstimatedFPRate: math.Nextafter(0.01, 1), Saturated: true, SSD: 42 * time.Microsecond,
	}
	fs := append(Fields(&in), Field{Name: "from_a_newer_peer", Bits: 1})
	out := sampleStats{ID: "kept"}
	SetFields(&out, fs)
	in.ID = "kept"
	if out != in {
		t.Fatalf("round trip\n got %+v\nwant %+v", out, in)
	}

	SetFields(&out, []Field{{Name: "lookups", Bits: 5}})
	if out.Lookups != 5 || out.StoreEntries != -7 {
		t.Fatalf("a partial set changed leaves it did not name: %+v", out)
	}
}

func TestValuesAreNative(t *testing.T) {
	got := map[string]any{}
	for name, v := range Values(sampleStats{EstimatedFPRate: 0.5, Saturated: true, StoreEntries: 3}) {
		got[name] = v
	}
	if got["estimated_fp_rate"] != 0.5 || got["saturated"] != true || got["store_entries"] != 3 {
		t.Fatalf("values = %v", got)
	}
}

func TestNonCounterFieldPanics(t *testing.T) {
	type withSlice struct {
		Lookups uint64
		Hist    []uint64
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a []uint64 field was walked as a counter")
		}
	}()
	Fields(withSlice{})
}

func TestSnake(t *testing.T) {
	for in, want := range map[string]string{
		"ID": "id", "BloomFalse": "bloom_false", "EstimatedFPRate": "estimated_fp_rate",
		"SSD": "ssd", "P99": "p99", "BytesInFlight": "bytes_in_flight", "Len": "len",
	} {
		if got := snake(in); got != want {
			t.Errorf("snake(%q) = %q, want %q", in, got, want)
		}
	}
}
