package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// quickTablesDigest is the SHA-256 of the 14 quick tables exactly as
// `go run ./cmd/benchtables -quick` prints them to stdout (one
// fmt.Println per table), at any -workers. Update it only for a
// deliberate change of an experiment's output, never for a refactor or
// a performance change.
const quickTablesDigest = "9d430c0b64d682a698b611d131cc7f754ac9142766661eea02d6168e20913212"

// TestAllQuick runs the full experiment suite at quick scale and checks
// each table is well-formed, contains no bound violations, and renders
// byte-identically to quickTablesDigest.
func TestAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite skipped in -short mode")
	}
	tables, err := All(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 14 {
		t.Fatalf("got %d tables, want 14", len(tables))
	}
	stdout := sha256.New()
	for _, table := range tables {
		if len(table.Rows) == 0 {
			t.Errorf("%s: empty table", table.ID)
		}
		out := table.String()
		if !strings.Contains(out, table.ID) {
			t.Errorf("%s: render missing id", table.ID)
		}
		for _, note := range table.Notes {
			if strings.Contains(note, "VIOLATED") {
				t.Errorf("%s: %s", table.ID, note)
			}
		}
		t.Logf("\n%s", out)
		stdout.Write([]byte(out + "\n"))
	}
	if got := hex.EncodeToString(stdout.Sum(nil)); got != quickTablesDigest {
		t.Errorf("quick tables digest %s, want %s", got, quickTablesDigest)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope", Config{Quick: true}); err == nil {
		t.Fatal("expected error for unknown experiment id")
	}
}

func TestTablePanicsOnBadRow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched row")
		}
	}()
	tab := NewTable("x", "t", "a", "b")
	tab.AddRow("only-one")
}

func TestTableMarkdown(t *testing.T) {
	tab := NewTable("X1", "demo", "a", "b")
	tab.AddRow("1", "2")
	tab.Note("hello")
	md := tab.Markdown()
	for _, want := range []string{"### X1 — demo", "| a | b |", "| 1 | 2 |", "*hello*"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestHelpers(t *testing.T) {
	if got := splitWorldSet(64, 3); len(got) != 3 {
		t.Fatalf("splitWorldSet(64, 3) = %v", got)
	}
	for link := range splitWorldSet(64, 3) {
		if link%3 != 1 {
			t.Fatalf("unexpected link %d", link)
		}
	}
	if got := firstK(4); len(got) != 4 || got[3] != 3 {
		t.Fatalf("firstK = %v", got)
	}
	if fmtCount(1234567) != "1,234,567" || fmtCount(42) != "42" {
		t.Fatal("fmtCount wrong")
	}
	if fmtBool(true) != "yes" || fmtBool(false) != "no" {
		t.Fatal("fmtBool wrong")
	}
	cfg := Config{Quick: true}
	if cfg.pick(1, 2) != 1 || (Config{}).pick(1, 2) != 2 {
		t.Fatal("pick wrong")
	}
}
