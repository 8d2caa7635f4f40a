// Package snapshot is the durable mid-run checkpoint format behind the
// simulator's kill/restore contract: a versioned, checksummed, torn-write-
// safe serialization of the complete simulator state, written atomically
// into the results directory so an interrupted job resumes from its last
// snapshot instead of cycle zero.
//
// File format — three JSON lines:
//
//	{"schema":"csalt-snapshot","version":2,"key":"<config key>","seq":N,"steps":N}
//	{ ... State payload ... }
//	{"sha256":"<hex digest of the two lines above, newlines included>"}
//
// The payload is a tree of slices and scalars only — no maps — so Go's
// deterministic struct-field encoding makes decode→re-encode byte-identical
// (FuzzSnapshotRoundTrip pins this). Writes go through a temp file, fsync
// and rename, so a crash mid-write leaves either the previous snapshot or
// the new one — never a torn mix; a file damaged by other means (bit flip,
// manual truncation) fails the checksum, is quarantined to <path>.corrupt,
// and the job falls back cleanly to a from-zero restart.
//
// The package deliberately knows nothing about the simulator: component
// packages (tlb, cache, cpu, dram, walker, workload, sim) export and import
// their mutable state through the plain substructs below, keeping the
// dependency arrow pointing at this package only.
package snapshot

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/csalt-sim/csalt/internal/faultinject"
)

// Schema identifies the snapshot layout; bump Version whenever the State
// tree changes incompatibly so stale snapshots are rejected (and fall back
// to a from-zero restart) instead of restoring wrong state.
const (
	Schema  = "csalt-snapshot"
	Version = 2
)

// Suffix is the snapshot file extension inside a snapshot directory.
const Suffix = ".snap"

// Sentinel error classes; concrete errors wrap them so callers can route
// corruption to quarantine-and-fallback and version skew to a clean
// restart without string matching.
var (
	// ErrCorrupt marks a snapshot whose bytes cannot be trusted: checksum
	// mismatch, truncation, or an unparseable line.
	ErrCorrupt = errors.New("snapshot corrupt")
	// ErrVersion marks a structurally intact snapshot written by an
	// incompatible schema or version.
	ErrVersion = errors.New("snapshot version mismatch")
)

// Meta is the first line of every snapshot file.
type Meta struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	// Key is the configuration identity (checkpoint.KeyOf of the config),
	// so a snapshot can never be restored into a different job.
	Key string `json:"key"`
	// Seq is the snapshot ordinal within the run (1 = first boundary).
	Seq uint64 `json:"seq"`
	// Steps is the number of simulation steps completed at capture, for
	// diagnostics ("resumed at step N").
	Steps uint64 `json:"steps"`
}

// PathFor names the snapshot file for a job key inside dir.
func PathFor(dir, key string) string { return filepath.Join(dir, key+Suffix) }

// Encode writes the three-line snapshot format to w.
func Encode(w io.Writer, meta Meta, st *State) error {
	head, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("snapshot: encoding header: %w", err)
	}
	body, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("snapshot: encoding state: %w", err)
	}
	h := sha256.New()
	h.Write(head)
	h.Write([]byte("\n"))
	h.Write(body)
	h.Write([]byte("\n"))
	trailer, err := json.Marshal(struct {
		SHA256 string `json:"sha256"`
	}{hex.EncodeToString(h.Sum(nil))})
	if err != nil {
		return fmt.Errorf("snapshot: encoding trailer: %w", err)
	}
	for _, line := range [][]byte{head, body, trailer} {
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("snapshot: writing: %w", err)
		}
		if _, err := w.Write([]byte("\n")); err != nil {
			return fmt.Errorf("snapshot: writing: %w", err)
		}
	}
	return nil
}

// Decode reads and verifies the three-line snapshot format. Checksum or
// parse failures wrap ErrCorrupt; schema/version skew wraps ErrVersion.
func Decode(r io.Reader) (Meta, *State, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	line := func(what string) ([]byte, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, fmt.Errorf("snapshot: reading %s: %w (%w)", what, err, ErrCorrupt)
			}
			return nil, fmt.Errorf("snapshot: missing %s line: %w", what, ErrCorrupt)
		}
		return append([]byte(nil), sc.Bytes()...), nil
	}
	head, err := line("header")
	if err != nil {
		return Meta{}, nil, err
	}
	body, err := line("payload")
	if err != nil {
		return Meta{}, nil, err
	}
	tail, err := line("checksum")
	if err != nil {
		return Meta{}, nil, err
	}
	var trailer struct {
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(tail, &trailer); err != nil {
		return Meta{}, nil, fmt.Errorf("snapshot: unreadable checksum line: %w", ErrCorrupt)
	}
	h := sha256.New()
	h.Write(head)
	h.Write([]byte("\n"))
	h.Write(body)
	h.Write([]byte("\n"))
	if got := hex.EncodeToString(h.Sum(nil)); got != trailer.SHA256 {
		return Meta{}, nil, fmt.Errorf("snapshot: checksum mismatch (file %s, computed %s): %w",
			trailer.SHA256, got, ErrCorrupt)
	}
	var meta Meta
	if err := json.Unmarshal(head, &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("snapshot: unreadable header: %w", ErrCorrupt)
	}
	if meta.Schema != Schema || meta.Version != Version {
		return Meta{}, nil, fmt.Errorf("snapshot: file is %s/v%d, this binary reads %s/v%d: %w",
			meta.Schema, meta.Version, Schema, Version, ErrVersion)
	}
	st := new(State)
	if err := json.Unmarshal(body, st); err != nil {
		return Meta{}, nil, fmt.Errorf("snapshot: unreadable state: %w", ErrCorrupt)
	}
	return meta, st, nil
}

// Write atomically replaces the snapshot at path: the bytes go to a temp
// file in the same directory, are fsynced, and rename over the live path,
// so a crash at any instant leaves either the previous snapshot or the new
// one. The snapshot.write fault seam, when armed on plane, fails the write
// before any byte lands (keyed by meta.Key).
func Write(path string, meta Meta, st *State, plane *faultinject.Plane) error {
	if _, ok := plane.Fire(faultinject.SnapshotWrite, meta.Key); ok {
		return fmt.Errorf("snapshot: injected write failure (key %s)", meta.Key)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: creating dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriterSize(tmp, 1<<20)
	if err := Encode(w, meta, st); err != nil {
		tmp.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Read loads and verifies the snapshot at path. A missing file returns
// (Meta{}, nil, nil) — no snapshot is not an error, it just means a
// from-zero start. Damage wraps ErrCorrupt; skew wraps ErrVersion.
func Read(path string) (Meta, *State, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, nil, nil
		}
		return Meta{}, nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

// Quarantine moves a damaged snapshot aside to <path>.corrupt so the job
// falls back to a from-zero start without destroying the evidence. It
// returns the quarantine path; a missing original is not an error.
func Quarantine(path string) (string, error) {
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		if os.IsNotExist(err) {
			return dst, nil
		}
		return "", fmt.Errorf("snapshot: quarantining: %w", err)
	}
	return dst, nil
}

// Remove deletes the snapshot for a completed job; a missing file is fine.
func Remove(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// DirInfo summarises a snapshot directory for diagnostics (the SIGQUIT
// dump's "snapshot age" line).
type DirInfo struct {
	Snapshots   int
	Quarantined int
	Newest      time.Time // zero when no snapshots exist
}

// ScanDir inspects dir without reading file contents. A missing directory
// reports zero snapshots.
func ScanDir(dir string) (DirInfo, error) {
	var info DirInfo
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return info, nil
		}
		return info, fmt.Errorf("snapshot: scanning %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, Suffix+".corrupt"):
			info.Quarantined++
		case strings.HasSuffix(name, Suffix):
			info.Snapshots++
			if fi, err := e.Info(); err == nil && fi.ModTime().After(info.Newest) {
				info.Newest = fi.ModTime()
			}
		}
	}
	return info, nil
}

// EncodeToBytes is Encode into a fresh buffer, for tests and digests.
func EncodeToBytes(meta Meta, st *State) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, meta, st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
