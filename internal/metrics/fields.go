package metrics

import (
	"fmt"
	"iter"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode"
)

// A Field is one leaf of a struct of counters (core.NodeStats, the blocks
// of /v1/stats): the struct's own field tree is the stats schema, and the
// STATS frame, /v1/stats and shhc-client -probe all read it through Fields,
// SetFields and Values. Name is the lower-snake Go field path joined with
// '.' ("bloom_false", "destage.wave_sizes.p99"). A leaf is an integer, a
// time.Duration, a bool or a float64, and Bits holds it as itself, in
// nanoseconds, as 0 or 1, or as its IEEE-754 bits. String fields are
// skipped, struct fields walked, an array's elements walked as fields
// named by their index ("chain_hist.0"), and any other kind of field panics
// the first time its type is walked.
type Field struct {
	Name string
	Bits uint64
}

// schema is a struct type's leaves: their names in declaration order, and
// each one's path by name — at each step a field index into a struct or an
// element index into an array (see at).
type schema struct {
	names []string
	index map[string][]int
}

var schemas sync.Map // reflect.Type → *schema

func schemaOf(t reflect.Type) *schema {
	if s, ok := schemas.Load(t); ok {
		return s.(*schema)
	}
	s := &schema{index: make(map[string][]int)}
	s.walk(t, "", nil)
	got, _ := schemas.LoadOrStore(t, s)
	return got.(*schema)
}

func (s *schema) walk(t reflect.Type, prefix string, index []int) {
	for i := range t.NumField() {
		f := t.Field(i)
		s.leaf(f.Type, prefix+snake(f.Name), append(index[:len(index):len(index)], i))
	}
}

// leaf records the leaves of a value of type t named name at path.
func (s *schema) leaf(t reflect.Type, name string, path []int) {
	switch t.Kind() {
	case reflect.String:
	case reflect.Struct:
		s.walk(t, name+".", path)
	case reflect.Array:
		for e := range t.Len() {
			s.leaf(t.Elem(), name+"."+strconv.Itoa(e), append(path[:len(path):len(path)], e))
		}
	default:
		bits(reflect.Zero(t)) // panics on a field that is not a counter
		s.names = append(s.names, name)
		s.index[name] = path
	}
}

// at follows a schema path from v.
func at(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		if v.Kind() == reflect.Array {
			v = v.Index(i)
		} else {
			v = v.Field(i)
		}
	}
	return v
}

// bits is the one mapping from a leaf to a Field's 64 bits; setBits is its
// inverse.
func bits(v reflect.Value) uint64 {
	switch {
	case v.CanUint():
		return v.Uint()
	case v.CanInt():
		return uint64(v.Int())
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case v.Kind() == reflect.Float64:
		return math.Float64bits(v.Float())
	}
	panic(fmt.Sprintf("metrics: a %s field is not a counter", v.Type()))
}

func setBits(v reflect.Value, b uint64) {
	switch {
	case v.CanUint():
		v.SetUint(b)
	case v.CanInt():
		v.SetInt(int64(b))
	case v.Kind() == reflect.Bool:
		v.SetBool(b != 0)
	default:
		v.SetFloat(math.Float64frombits(b))
	}
}

// leaves yields the leaves of the struct v is or points to, in declaration
// order.
func leaves(v any) iter.Seq2[string, reflect.Value] {
	rv := reflect.Indirect(reflect.ValueOf(v))
	s := schemaOf(rv.Type())
	return func(yield func(string, reflect.Value) bool) {
		for _, name := range s.names {
			if !yield(name, at(rv, s.index[name])) {
				return
			}
		}
	}
}

// Fields returns every leaf of the struct v is or points to, in declaration
// order.
func Fields(v any) []Field {
	var out []Field
	for name, leaf := range leaves(v) {
		out = append(out, Field{name, bits(leaf)})
	}
	return out
}

// Values yields every leaf of the struct v is or points to by name, in
// declaration order, with its Go value.
func Values(v any) iter.Seq2[string, any] {
	return func(yield func(string, any) bool) {
		for name, leaf := range leaves(v) {
			if !yield(name, leaf.Interface()) {
				return
			}
		}
	}
}

// SetFields stores each of fs into the leaf of the same name of the struct
// dst points to. Names the struct does not have are ignored, and leaves fs
// does not name keep their value.
func SetFields(dst any, fs []Field) {
	rv := reflect.ValueOf(dst).Elem()
	s := schemaOf(rv.Type())
	for _, f := range fs {
		if path, ok := s.index[f.Name]; ok {
			setBits(at(rv, path), f.Bits)
		}
	}
}

// snake spells a Go field name in lower snake case: BloomFalse is
// bloom_false, EstimatedFPRate is estimated_fp_rate, SSD is ssd, P99 is p99.
func snake(name string) string {
	var b strings.Builder
	for i, r := range name {
		if i > 0 && unicode.IsUpper(r) {
			nextLower := i+1 < len(name) && unicode.IsLower(rune(name[i+1]))
			if !unicode.IsUpper(rune(name[i-1])) || nextLower {
				b.WriteByte('_')
			}
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
