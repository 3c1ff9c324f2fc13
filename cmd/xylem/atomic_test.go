package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the old content and no temp litter.
	boom := errors.New("boom")
	err := writeFileAtomic(path, func(w io.Writer) error {
		fmt.Fprint(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "old" {
		t.Fatalf("old content lost: %q, %v", b, err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	// A successful writer replaces the content.
	if err := writeFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, _ = os.ReadFile(path)
	if string(b) != "new" {
		t.Fatalf("content = %q", b)
	}
	ents, _ = os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("%d directory entries after atomic write, want 1", len(ents))
	}
}
