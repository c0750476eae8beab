package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"shhc/internal/configdoc"
)

// TestFlagsAndTheirDocs parses the command line without dialing: the flags
// and defaults are the Configuration table's shhc-client rows, a run with
// nothing to do or a restore without -out fails before it sends a request,
// and every `shhc-client -flag` that README.md, docs/ARCHITECTURE.md and the
// command's doc comment write is one of them.
func TestFlagsAndTheirDocs(t *testing.T) {
	var o options
	fs := flags(&o, io.Discard)
	configdoc.CheckFlags(t, "../..", fs)
	if err := fs.Parse([]string{"-backup", "f.tar", "-chunk", "0", "-timeout", "1m"}); err != nil {
		t.Fatal(err)
	}
	if o.backup != "f.tar" || o.chunk != 0 || o.timeout != time.Minute || o.batch != 2048 {
		t.Errorf("parsed %+v", o)
	}
	if err := run([]string{"-device", "ssd"}, io.Discard); err == nil {
		t.Error("an unknown flag parsed")
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "nothing to do"},
		{[]string{"-restore", "m.manifest"}, "-restore requires -out"},
	} {
		if err := run(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error saying %q", tc.args, err, tc.want)
		}
	}
}
