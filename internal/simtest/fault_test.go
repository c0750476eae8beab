package simtest

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// pageSize is the page the FaultFile of these tests counts in.
const pageSize = 4096

// TestFaultFileKillsInsideCoalescedWrite: a kill point counts pages, so a
// write of several pages dies on its Nth page — the pages before it land,
// then the torn prefix of the killing page, and nothing after it — and a
// write after the kill lands nothing.
func TestFaultFileKillsInsideCoalescedWrite(t *testing.T) {
	pageOf := func(b byte) []byte { return bytes.Repeat([]byte{b}, pageSize) }
	first := pageOf('a')
	run := append(append(pageOf('b'), pageOf('c')...), pageOf('d')...)
	for _, tc := range []struct {
		kill    int64
		partial int
		want    []byte // the file after the two writes
	}{
		{1, 0, nil},
		{1, 9, first[:9]},
		{2, 0, first},
		{3, 0, append(append([]byte{}, first...), run[:pageSize]...)},
		{3, 100, append(append([]byte{}, first...), run[:pageSize+100]...)},
		{4, pageSize + 7, append(append([]byte{}, first...), run[:3*pageSize]...)}, // a tear clamps to its page
		{5, 0, append(append([]byte{}, first...), run...)},
	} {
		path := filepath.Join(t.TempDir(), "kill")
		osf, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		ff := NewFaultFile(osf, pageSize, tc.kill, tc.partial)
		_, err1 := ff.WriteAt(first, 0)
		_, err2 := ff.WriteAt(run, pageSize)
		_, err3 := ff.WriteAt(first, 4*pageSize)
		ff.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		wantErrs := [3]bool{tc.kill == 1, tc.kill <= 4, true}
		if gotErrs := [3]bool{err1 != nil, err2 != nil, err3 != nil}; gotErrs != wantErrs {
			t.Errorf("kill=%d: write errors %v, %v, %v; want failures %v", tc.kill, err1, err2, err3, wantErrs)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("kill=%d partial=%d: the file holds %d bytes, want %d", tc.kill, tc.partial, len(got), len(tc.want))
		}
		if w := ff.Writes(); w != tc.kill {
			t.Errorf("kill=%d: Writes() = %d pages, want %d", tc.kill, w, tc.kill)
		}
	}
}
