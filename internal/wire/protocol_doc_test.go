package wire

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// docTable returns the number → name column pairs of the table under the
// given heading of docs/PROTOCOL.md: every row whose first cell is an
// integer, with the backticks stripped from its second.
func docTable(t *testing.T, doc, heading string) map[int]string {
	t.Helper()
	_, section, ok := strings.Cut(doc, "\n"+heading+"\n"+strings.Repeat("-", len(heading))+"\n")
	if !ok {
		t.Fatalf("docs/PROTOCOL.md has no %q section", heading)
	}
	rows := make(map[int]string)
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break // the section's first table has ended
			}
			continue
		}
		inTable = true
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSpace(cells[1]))
		if err != nil {
			continue // header and separator rows
		}
		if _, dup := rows[n]; dup {
			t.Errorf("%s: number %d is listed twice", heading, n)
		}
		rows[n] = strings.Trim(strings.TrimSpace(cells[2]), "`")
	}
	if len(rows) == 0 {
		t.Fatalf("%s: no table rows found", heading)
	}
	return rows
}

// TestProtocolDocMatchesCode holds docs/PROTOCOL.md's two tables to the
// constants: every wire.Type and wire.Code the code names appears in its
// table under the same number and String() name, and the tables list
// nothing the code does not have.
func TestProtocolDocMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	check := func(heading string, name func(n uint8) string, unknownPrefix string) {
		rows := docTable(t, doc, heading)
		for n := 0; n < 256; n++ {
			inCode := name(uint8(n))
			known := !strings.HasPrefix(inCode, unknownPrefix)
			inDoc, listed := rows[n]
			switch {
			case known && !listed:
				t.Errorf("%s: %d (%s) is missing from the table", heading, n, inCode)
			case known && inDoc != inCode:
				t.Errorf("%s: %d is %q in the table, %q in the code", heading, n, inDoc, inCode)
			case !known && listed:
				t.Errorf("%s: the table lists %d (%s), which the code does not define", heading, n, inDoc)
			}
		}
	}
	check("Message types", func(n uint8) string { return Type(n).String() }, "type(")
	check("Error codes", func(n uint8) string { return Code(n).String() }, "code(")

	if !strings.Contains(doc, "version "+strconv.Itoa(ProtocolVersion)+"\n") {
		t.Errorf("docs/PROTOCOL.md's title does not name version %d", ProtocolVersion)
	}
}
