package exp

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a failing emitter leaves the existing target
// untouched and no temp sibling; a successful write leaves only the target.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.csv")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() []string {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, de := range des {
			names = append(names, de.Name())
		}
		return names
	}
	boom := errors.New("emitter failed")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFileAtomic = %v, want the emitter's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old\n" {
		t.Fatalf("failed write changed the target to %q", got)
	}
	if names := listing(); len(names) != 1 || names[0] != "report.csv" {
		t.Fatalf("failed write left %v, want only report.csv", names)
	}
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new\n" {
		t.Fatalf("target = %q, want the new content", got)
	}
	if names := listing(); len(names) != 1 || names[0] != "report.csv" {
		t.Fatalf("successful write left %v, want only report.csv", names)
	}
}
