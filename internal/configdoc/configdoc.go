// Package configdoc reads the Configuration table of docs/ARCHITECTURE.md,
// the one list of every exported config field and command-line flag with
// its default, who sets it and why, so that tests can hold the table and
// the code to each other in both directions.
package configdoc

import (
	"flag"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Rows returns the settings the table lists, each with its Default cell:
// backticks removed, and `""` read as the empty string. root is the
// repository root.
func Rows(root string) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "docs", "ARCHITECTURE.md"))
	if err != nil {
		return nil, err
	}
	_, section, _ := strings.Cut(string(raw), "\n## Configuration\n")
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]string{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(line, "|")
		def := strings.Trim(strings.TrimSpace(cells[2]), "`")
		if def == `""` {
			def = ""
		}
		rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = def
	}
	return rows, nil
}

// CheckFlags fails t unless the flags of fs, with their defaults, are
// exactly the table's rows for the command fs names ("shhc-node -id"), and
// every `shhc-node -flag` that README.md, docs/ARCHITECTURE.md or the
// command's doc comment (main.go in the working directory) writes is one of
// them.
func CheckFlags(t testing.TB, root string, fs *flag.FlagSet) {
	t.Helper()
	rows, err := Rows(root)
	if err != nil {
		t.Fatal(err)
	}
	cmd := fs.Name()
	want := map[string]string{}
	for setting, def := range rows {
		if name, ok := strings.CutPrefix(setting, cmd+" -"); ok {
			want[name] = def
		}
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if !maps.Equal(got, want) {
		t.Errorf("%s flags and defaults = %v, but the Configuration table has %v", cmd, got, want)
	}

	// A use runs from the command's name to a backtick, the line's end or
	// the next command; each -word in it is a flag.
	use := regexp.MustCompile(regexp.QuoteMeta(cmd) + "([^`\\n]*?)(?:`|\\n|shhc-|$)")
	flagRef := regexp.MustCompile(`(?:^|\s)-([a-z][a-z-]*)`)
	uses := 0
	for _, doc := range []string{filepath.Join(root, "README.md"), filepath.Join(root, "docs", "ARCHITECTURE.md"), "main.go"} {
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
				if _, ok := got[f[1]]; !ok {
					t.Errorf("%s: %s%s names -%s, which is no flag", doc, cmd, u[1], f[1])
				}
			}
		}
	}
	if uses == 0 {
		t.Errorf("found no %s -flag in the docs", cmd)
	}
}
