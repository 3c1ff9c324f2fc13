package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// writeFileAtomic writes a file via write-temp → fsync → rename →
// fsync-dir, so readers (and a post-crash restart) see either the old
// content or the complete new content, never a truncated half-write.
// write renders the content; any error it returns aborts the write and
// removes the temp file. Every file the CLI writes — figure CSVs, PPM
// images, traces, heap profiles — goes through here.
func writeFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("fsync %s: %w", tmpName, err))
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Persist the rename itself. Some filesystems reject fsync on a
	// directory handle; the rename is still atomic there, so this is
	// best-effort.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}
