package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// Save writes a checkpoint atomically: it is encoded (version 2), written
// to a temporary file in the target directory, synced to stable storage,
// and renamed over the destination. A crash at any point leaves either the
// previous good checkpoint or the new one — never a torn file — because
// rename within a directory is atomic on POSIX filesystems.
func Save(path string, cp *Checkpoint) error {
	data, err := Encode(cp)
	if err != nil {
		return err
	}
	return WriteFile(path, data)
}

// WriteFile writes encoded checkpoint bytes to path the way Save does:
// temp file, sync, rename, directory sync. Stream.Save hands it
// AppendStream's bytes, a 1-stream checkpoint.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: create temp checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on removes the temp file so aborted writes
	// never accumulate next to the checkpoint.
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: close checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snapshot: install checkpoint: %w", err)
	}
	// Sync the directory so the rename itself is durable: without it a
	// power loss can roll the directory entry back to the previous
	// checkpoint even though Save returned. Best-effort on filesystems
	// that reject directory fsync; real errors surface.
	if d, err := os.Open(dir); err == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil && !errors.Is(serr, syscall.EINVAL) && !errors.Is(serr, syscall.ENOTSUP) {
			return fmt.Errorf("snapshot: sync checkpoint directory: %w", serr)
		}
	}
	return nil
}

// Load reads and validates a checkpoint of either version: a file that
// starts with '{' is a version 1 JSON document, anything else version 2.
// It fails loudly on torn or foreign files and on format/version mismatch;
// it never returns a partially decoded checkpoint.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: read checkpoint: %w", err)
	}
	decode := Decode
	if len(data) > 0 && data[0] == '{' {
		decode = decodeV1
	}
	cp, err := decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return cp, nil
}

// decodeV1 reads a version 1 checkpoint, one JSON document.
func decodeV1(data []byte) (*Checkpoint, error) {
	// Probe the header first so a version mismatch is reported as such
	// even if the stream payload of another version does not decode.
	var header struct {
		Format  string `json:"format"`
		Version int    `json:"version"`
	}
	if err := json.Unmarshal(data, &header); err != nil {
		return nil, fmt.Errorf("snapshot: corrupt checkpoint: %w", err)
	}
	if header.Format != Format {
		return nil, fmt.Errorf("snapshot: not an %s file (format %q)", Format, header.Format)
	}
	if header.Version != 1 {
		return nil, fmt.Errorf("snapshot: JSON checkpoint of format version %d; JSON checkpoints are version 1", header.Version)
	}
	cp := &Checkpoint{}
	if err := json.Unmarshal(data, cp); err != nil {
		return nil, fmt.Errorf("snapshot: corrupt checkpoint: %w", err)
	}
	cp.Version = Version
	return cp, nil
}
