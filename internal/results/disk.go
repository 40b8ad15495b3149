package results

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// DiskBackend stores blobs as files under one root directory. Bare
// (hash) keys are sharded by their first two characters —
// <dir>/<shard>/<key>.json, the layout the pre-Backend store used, so
// existing caches keep working — while keys containing "/" map to that
// relative path directly (the store's quarantine/ area).
//
// Put is atomic and durable: write to a temp file, fsync it, rename it
// into place, then fsync the parent directory, so a crash between
// rename and writeback cannot surface a zero-length entry. (Entries
// written by pre-fsync builds that did get torn heal on read via the
// store's quarantine path.)
type DiskBackend struct {
	dir string
}

// NewDiskBackend opens (creating if needed) the blob root at dir.
func NewDiskBackend(dir string) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return &DiskBackend{dir: dir}, nil
}

// Dir returns the backend's root directory.
func (d *DiskBackend) Dir() string { return d.dir }

// path maps a key to its file. Sharding keeps any one directory from
// accumulating every entry.
func (d *DiskBackend) path(key string) string {
	if strings.Contains(key, "/") {
		return filepath.Join(d.dir, filepath.FromSlash(key))
	}
	shard := "xx"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(d.dir, shard, key+".json")
}

// Get reads the blob stored under key. An absent key is ErrNotFound.
func (d *DiskBackend) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("results: get %s: %w", key, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("results: get %s: %w", key, err)
	}
	return data, nil
}

// Put stores data under key atomically and durably.
func (d *DiskBackend) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p := d.path(key)
	parent := filepath.Dir(p)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	tmp, err := os.CreateTemp(parent, "put-*")
	if err != nil {
		return fmt.Errorf("results: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("results: write %s: %w", key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("results: sync %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: write %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: write %s: %w", key, err)
	}
	// Make the rename itself durable. Some filesystems do not support
	// fsync on directories; that is a missed optimisation, not a failed
	// write, so it is best-effort.
	if dirf, err := os.Open(parent); err == nil {
		_ = dirf.Sync()
		dirf.Close()
	}
	return nil
}

// Delete removes the blob stored under key; an absent key is fine.
func (d *DiskBackend) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	err := os.Remove(d.path(key))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("results: delete %s: %w", key, err)
	}
	return nil
}
