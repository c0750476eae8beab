package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"shhc/internal/configdoc"
)

// TestFlagsAndTheirDocs parses the command line without serving: the flags
// and defaults are the Configuration table's shhc-front rows; with neither
// -nodes nor -local the front runs an embedded cluster of 4 nodes, and
// -local's help says so; and every `shhc-front -flag` that README.md,
// docs/ARCHITECTURE.md and the command's doc comment write is one of them.
func TestFlagsAndTheirDocs(t *testing.T) {
	var o options
	fs := flags(&o, io.Discard)
	configdoc.CheckFlags(t, "../..", fs)
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
}
