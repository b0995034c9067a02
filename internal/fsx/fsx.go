// Package fsx holds the repository's durable-file conventions. Long-running
// processes (squatd, squatmond) periodically spill state — deltascan
// candidate state, trace stores, metrics snapshots — and a crash mid-write
// must never poison the artifact a restart will Load: a spill cut off
// between two blocks or a half-encoded JSONL stream is strictly worse than
// no file at all, because the next process trusts it, fails, and loses the
// graceful-degrade path.
//
// WriteFile is the one sanctioned way to persist such state: the content is
// streamed to a temporary file in the destination directory, fsynced, and
// renamed over the destination. On POSIX filesystems the rename is atomic,
// so a reader (or a restarted process) observes either the complete old
// file or the complete new file — never a torn intermediate.
package fsx

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes that write produces.
// The content is written to a temporary sibling file (same directory, so
// the final rename cannot cross filesystems), flushed to stable storage
// with fsync, and renamed over path. If write or any syscall fails, the
// temporary file is removed and path is left untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("fsx: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on must not leave the temp file behind.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("fsx: write %s: %w", path, err)
	}
	if err := write(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fsx: write %s: %w", path, err)
	}
	if err := os.Chmod(tmpName, 0o644); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fsx: write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fsx: write %s: %w", path, err)
	}
	return nil
}
