package main

import (
	"flag"
	"io"
	"maps"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestFlagsAndTheirDocs parses the command line without serving: exactly
// these flags, with these defaults; with neither -nodes nor -local the
// front runs an embedded cluster of 4 nodes, and -local's help says so; and
// every `shhc-front -flag` that README.md, docs/ARCHITECTURE.md and the
// command's doc comment write is one of them.
func TestFlagsAndTheirDocs(t *testing.T) {
	want := map[string]string{
		"addr": "127.0.0.1:8080", "nodes": "", "local": "0", "replicas": "1", "quorum": "0",
		"anti-entropy": "0s", "pprof": "false", "rpc-conns": "0", "rpc-streams": "0", "rpc-window": "0",
	}
	var o options
	fs := flags(&o, io.Discard)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !maps.Equal(got, want) {
		t.Errorf("flags and defaults = %v, want %v", got, want)
	}
	if err := fs.Parse([]string{"-replicas", "3", "-anti-entropy", "5s", "-pprof"}); err != nil {
		t.Fatal(err)
	}
	if o.replicas != 3 || o.antiGap != 5*time.Second || !o.pprof || o.addr != "127.0.0.1:8080" {
		t.Errorf("parsed %+v", o)
	}
	if err := flags(new(options), io.Discard).Parse([]string{"-device", "ssd"}); err == nil {
		t.Error("an unknown flag parsed")
	}

	if usage := fs.Lookup("local").Usage; !strings.Contains(usage, "4 when -nodes is empty") {
		t.Errorf("-local's help %q does not say an empty command line runs 4 nodes", usage)
	}
	cluster, err := buildCluster(options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := cluster.Size(); n != 4 {
		t.Errorf("no -nodes and no -local ran %d embedded nodes, want 4", n)
	}
	cluster.Close()
	if _, err := buildCluster(options{nodes: "n0=127.0.0.1:1", local: 2}); err == nil {
		t.Error("-nodes and -local together built a cluster")
	}

	// A use runs from "shhc-front" to a backtick, the line's end or the next
	// command; each -word in it is a flag.
	use := regexp.MustCompile("shhc-front([^`\\n]*?)(?:`|\\n|shhc-|$)")
	flagRef := regexp.MustCompile(`(?:^|\s)-([a-z][a-z-]*)`)
	uses := 0
	for _, doc := range []string{"../../README.md", "../../docs/ARCHITECTURE.md", "main.go"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		if doc == "main.go" {
			src, _, _ = strings.Cut(src, "package main")
		}
		for _, u := range use.FindAllStringSubmatch(src, -1) {
			for _, f := range flagRef.FindAllStringSubmatch(u[1], -1) {
				uses++
				if _, ok := want[f[1]]; !ok {
					t.Errorf("%s: shhc-front%s names -%s, which is no flag", doc, u[1], f[1])
				}
			}
		}
	}
	if uses == 0 {
		t.Error("found no shhc-front -flag in the docs")
	}
}
