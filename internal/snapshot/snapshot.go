// Package snapshot is the durable mid-run checkpoint format behind the
// simulator's kill/restore contract: a versioned, checksummed, torn-write-
// safe serialization of the complete simulator state, written atomically
// into the results directory so an interrupted job resumes from its last
// snapshot instead of cycle zero.
//
// File format (version 3), three parts:
//
//	{"schema":"csalt-snapshot","version":3,"key":"<config key>","seq":N,"steps":N}\n
//	<binary State payload>
//	<32-byte sha256 of the header line and the payload>
//
// The header is one JSON line, as in versions 1 and 2, so any version's
// header reads the same way. The payload is the little-endian binary
// encoding of the State tree described in codec.go: packed structure words
// are written as zero runs and literal runs, so the mostly empty POM-TLB
// and invalid cache lines cost a few bytes. The encoding is canonical, so
// decode→re-encode is byte-identical (FuzzSnapshotRoundTrip pins this).
// Writes go through a temp file, fsync and rename, so a crash mid-write
// leaves either the previous snapshot or the new one — never a torn mix; a
// file damaged by other means (bit flip, manual truncation) fails the
// checksum, is quarantined to <path>.corrupt, and the job falls back
// cleanly to a from-zero restart. A file in the old three-JSON-line layout
// is reported as version skew and also falls back to a from-zero restart.
//
// The package deliberately knows nothing about the simulator: component
// packages (tlb, cache, cpu, dram, walker, workload, sim) export and import
// their mutable state through the plain substructs below, keeping the
// dependency arrow pointing at this package only.
package snapshot

import (
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
	Version = 3
)

// Suffix is the snapshot file extension inside a snapshot directory.
const Suffix = ".snap"

// Sentinel error classes; concrete errors wrap them so callers can route
// corruption to quarantine-and-fallback and version skew to a clean
// restart without string matching.
var (
	// ErrCorrupt marks a snapshot whose bytes cannot be trusted: checksum
	// mismatch, truncation, or an unparseable header or payload.
	ErrCorrupt = errors.New("snapshot corrupt")
	// ErrVersion marks a structurally intact snapshot written by an
	// incompatible schema or version.
	ErrVersion = errors.New("snapshot version mismatch")
)

// Meta is the header line of every snapshot file.
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

// EncodeToBytes encodes a snapshot into a fresh buffer: the header line,
// the binary payload and the checksum trailer.
func EncodeToBytes(meta Meta, st *State) ([]byte, error) {
	head, err := json.Marshal(meta)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encoding header: %w", err)
	}
	buf := make([]byte, 0, 1<<20)
	buf = append(append(buf, head...), '\n')
	if buf, err = encodePayload(buf, st); err != nil {
		return nil, fmt.Errorf("snapshot: encoding state: %w", err)
	}
	sum := sha256.Sum256(buf)
	return append(buf, sum[:]...), nil
}

// Decode reads a whole snapshot from r and verifies it: the checksum
// trailer first, then the header, then the payload. Damage and parse
// failures wrap ErrCorrupt; a file of another schema or version — including
// an intact file in the three-JSON-line layout of versions 1 and 2 — wraps
// ErrVersion.
func Decode(r io.Reader) (Meta, *State, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("snapshot: reading: %w (%w)", err, ErrCorrupt)
	}
	return decode(data)
}

// decode is Decode over the file's bytes.
func decode(data []byte) (Meta, *State, error) {
	n := len(data) - sha256.Size
	if n < 0 || sha256.Sum256(data[:n]) != [sha256.Size]byte(data[n:]) {
		if meta, ok := legacyHeader(data); ok {
			return Meta{}, nil, fmt.Errorf("snapshot: file is %s/v%d in the JSON-line layout, this binary reads %s/v%d: %w",
				meta.Schema, meta.Version, Schema, Version, ErrVersion)
		}
		return Meta{}, nil, fmt.Errorf("snapshot: checksum mismatch over %d bytes: %w", len(data), ErrCorrupt)
	}
	nl := bytes.IndexByte(data[:n], '\n')
	if nl < 0 {
		return Meta{}, nil, fmt.Errorf("snapshot: missing header line: %w", ErrCorrupt)
	}
	var meta Meta
	if err := json.Unmarshal(data[:nl], &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("snapshot: unreadable header: %w", ErrCorrupt)
	}
	if meta.Schema != Schema || meta.Version != Version {
		return Meta{}, nil, fmt.Errorf("snapshot: file is %s/v%d, this binary reads %s/v%d: %w",
			meta.Schema, meta.Version, Schema, Version, ErrVersion)
	}
	st, err := decodePayload(data[nl+1 : n])
	if err != nil {
		return Meta{}, nil, err
	}
	return meta, st, nil
}

// legacyHeader recognises an intact file in the layout of format versions
// 1 and 2 — three JSON lines: header, payload, {"sha256":"<hex>"} over the
// first two lines with their newlines — and returns its header.
func legacyHeader(data []byte) (Meta, bool) {
	lines := bytes.SplitN(data, []byte("\n"), 4)
	if len(lines) < 3 || (len(lines) == 4 && len(lines[3]) != 0) {
		return Meta{}, false
	}
	var trailer struct {
		SHA256 string `json:"sha256"`
	}
	if json.Unmarshal(lines[2], &trailer) != nil {
		return Meta{}, false
	}
	sum := sha256.Sum256(data[:len(lines[0])+len(lines[1])+2])
	var meta Meta
	if hex.EncodeToString(sum[:]) != trailer.SHA256 || json.Unmarshal(lines[0], &meta) != nil {
		return Meta{}, false
	}
	return meta, true
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
	b, err := EncodeToBytes(meta, st)
	if err != nil {
		return err
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
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: writing: %w", err)
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
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, nil, nil
		}
		return Meta{}, nil, fmt.Errorf("snapshot: %w", err)
	}
	return decode(data)
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

// Remove deletes the snapshot for a completed job, together with any
// <path>.tmp-* file a Write killed before its rename left in the slot; a
// missing file is fine.
func Remove(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("snapshot: %w", err)
	}
	prefix := filepath.Base(path) + ".tmp-"
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("snapshot: %w", err)
		}
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
