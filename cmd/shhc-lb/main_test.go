package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"shhc/internal/configdoc"
)

// TestFlagsAndTheirDocs parses the command line without serving: the flags
// and defaults are the Configuration table's shhc-lb rows, a run without
// -backends fails before it listens, and every `shhc-lb -flag` that
// README.md, docs/ARCHITECTURE.md and the command's doc comment write is one
// of them.
func TestFlagsAndTheirDocs(t *testing.T) {
	var o options
	fs := flags(&o, io.Discard)
	configdoc.CheckFlags(t, "../..", fs)
	if err := fs.Parse([]string{"-backends", "http://a:1,http://b:2", "-health-interval", "250ms"}); err != nil {
		t.Fatal(err)
	}
	if o.backends != "http://a:1,http://b:2" || o.interval != 250*time.Millisecond || o.addr != "127.0.0.1:8000" {
		t.Errorf("parsed %+v", o)
	}
	if err := run([]string{"-device", "ssd"}, io.Discard); err == nil {
		t.Error("an unknown flag parsed")
	}
	if err := run(nil, io.Discard); err == nil || !strings.Contains(err.Error(), "-backends is required") {
		t.Errorf("run without -backends = %v, want -backends is required", err)
	}
}
