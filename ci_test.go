package shhc

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"shhc/internal/configdoc"
)

// TestCIPatternsMatchTests holds the CI workflow to the tests the tree
// declares: every alternative of every `go test` -run and -fuzz pattern in
// it must match a Test, Fuzz or Benchmark function of some *_test.go. A step
// whose pattern names only deleted tests would pass while running nothing.
func TestCIPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	var names []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	flag := regexp.MustCompile(`\s-(run|fuzz)[ =](?:'([^']*)'|"([^"]*)"|(\S+))`)
	patterns := 0
	for _, line := range strings.Split(string(ci), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		for _, m := range flag.FindAllStringSubmatch(cmd, -1) {
			patterns++
			for _, alt := range alternatives(m[2] + m[3] + m[4]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: -%s %q: %v", m[1], alt, err)
					continue
				}
				if re.MatchString("") {
					continue // selects by other means: -run '^$' runs none beside -bench or -fuzz
				}
				if !matchesAny(re, names) {
					t.Errorf("ci.yml: -%s alternative %q matches no test, fuzz target or benchmark", m[1], alt)
				}
			}
		}
	}
	if patterns == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml")
	}
}

// TestDocReferencesResolve holds the prose to the tree: every *.md a Go
// comment names, and every relative link in a Markdown file, must name a
// file that exists. A name in a Go comment resolves against the file's own
// directory or the repository root; a Markdown link resolves against its
// file's directory, as a renderer reads it.
func TestDocReferencesResolve(t *testing.T) {
	var (
		url    = regexp.MustCompile(`[a-z]+://\S+`)
		mdName = regexp.MustCompile(`[\w./-]*\w\.md\b`)
		mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	)
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir():
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".md" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if ext == ".go" {
			for _, c := range goComments(src) {
				for _, name := range mdName.FindAllString(url.ReplaceAllString(c, ""), -1) {
					checked++
					if !exists(filepath.Join(dir, name)) && !exists(name) {
						t.Errorf("%s: a comment names %s, which does not exist", path, name)
					}
				}
			}
			return nil
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(src), -1) {
			target, _, _ := strings.Cut(m[1], "#")
			if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			checked++
			if !exists(filepath.Join(dir, target)) {
				t.Errorf("%s: link to %s, which does not exist", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("found no document reference to check")
	}
}

// TestConfigTableMatchesCode holds ARCHITECTURE's Configuration table to
// the code: every exported field of an exported struct type named Config or
// Options, or ending in either, outside the test files, the frozen benchmark
// and the tools that configure experiments rather than a deployment (the vet
// analyzers, the queueing model and its experiments), is one row
// "pkg.Type.Field", and every such row names one. The command-line rows are
// checked by each command's TestFlagsAndTheirDocs.
func TestConfigTableMatchesCode(t *testing.T) {
	rows, err := configdoc.Rows(".")
	if err != nil {
		t.Fatal(err)
	}
	skip := map[string]bool{".git": true, "testdata": true, "benchmark": true,
		"analysis": true, "sim": true, "bench": true}
	code := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && skip[d.Name()]:
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || ts.Assign.IsValid() ||
				!(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() {
						code[f.Name.Name+"."+ts.Name.Name+"."+name.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for field := range code {
		if _, ok := rows[field]; !ok {
			t.Errorf("%s has no row in the Configuration table", field)
		}
	}
	for setting := range rows {
		if !code[setting] && !strings.HasPrefix(setting, "shhc-") {
			t.Errorf("the Configuration table lists %s, which is no exported config field", setting)
		}
	}
	if len(code) == 0 {
		t.Fatal("found no config struct")
	}
}

// goComments returns the text of every comment in a Go source file.
func goComments(src []byte) []string {
	fset := token.NewFileSet()
	var s scanner.Scanner
	s.Init(fset.AddFile("", fset.Base(), len(src)), src, nil, scanner.ScanComments)
	var comments []string
	for {
		_, tok, lit := s.Scan()
		switch tok {
		case token.EOF:
			return comments
		case token.COMMENT:
			comments = append(comments, lit)
		}
	}
}

// alternatives splits a regexp on its top-level |.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
