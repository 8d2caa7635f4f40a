package sim

import (
	"bytes"
	"errors"
	"testing"

	"github.com/csalt-sim/csalt/internal/core"
	"github.com/csalt-sim/csalt/internal/snapshot"
	"github.com/csalt-sim/csalt/internal/workload"
)

// BenchmarkEpochBatch measures the steady-state cost of one simulation
// step — generator, translation, data path, MLP bookkeeping — through the
// benchreg probe's configuration (2 cores, GUPS/GUPS, CSALT-CD), driven
// by the same min-cycle-first schedule as the run loop's batched inner
// loop. Picked up by cmd/benchreg's go-bench pass.
func BenchmarkEpochBatch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Scale = 0.1
	cfg.Scheme = core.CriticalityDynamic
	cfg.Mix = workload.Mix{ID: "bench", VM1: workload.GUPS, VM2: workload.GUPS}
	// Step is driven directly; run-control limits are not consulted.
	sys := MustNew(cfg)
	cores := sys.Cores()
	for i := 0; i < 20_000; i++ {
		for _, c := range cores {
			if ok, err := c.Step(); err != nil || !ok {
				b.Fatalf("warm step: ok=%v err=%v", ok, err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cores[0]
		if cores[1].Cycle() < c.Cycle() {
			c = cores[1]
		}
		if ok, err := c.Step(); err != nil || !ok {
			b.Fatalf("step: ok=%v err=%v", ok, err)
		}
	}
}

// benchSnapshot captures a real snapshot to encode and decode: one tiny
// CSALT-CD job (the tiny figure scale, mix canneal) stopped at its first
// snapshot boundary after 40k steps, as the benchmark's resume workload
// takes it. It returns the decoded state and its encoded file bytes.
func benchSnapshot(b *testing.B) (*snapshot.State, []byte) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Cores = 2
	cfg.Scale = 0.1
	cfg.MaxRefsPerCore = 40_000
	cfg.WarmupRefs = 8_000
	cfg.SwitchIntervalCycles = 60_000
	cfg.EpochLen = 4_000
	cfg.OccupancyScanEvery = 10_000
	cfg.Scheme = core.CriticalityDynamic
	cfg.Mix = workload.Mixes()[0]
	sys := MustNew(cfg)
	sink := &memSink{sys: sys, stopAfter: 1}
	sys.EnableSnapshots(sink, 40_000)
	if _, err := sys.Run(); !errors.Is(err, ErrSnapshotStop) {
		b.Fatalf("run did not stop at its snapshot: %v", err)
	}
	blob := sink.blobs[0]
	_, st, err := snapshot.Decode(bytes.NewReader(blob))
	if err != nil {
		b.Fatal(err)
	}
	return st, blob
}

var snapshotSink []byte

// BenchmarkSnapshotEncode measures encoding one captured tiny snapshot to
// its file bytes (header, payload and checksum); snapshot-bytes is the
// encoded size.
func BenchmarkSnapshotEncode(b *testing.B) {
	st, blob := benchSnapshot(b)
	meta := snapshot.Meta{Schema: snapshot.Schema, Version: snapshot.Version, Key: "bench"}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := snapshot.EncodeToBytes(meta, st)
		if err != nil {
			b.Fatal(err)
		}
		snapshotSink = out
	}
	b.ReportMetric(float64(len(blob)), "snapshot-bytes")
}

var stateSink *snapshot.State

// BenchmarkSnapshotDecode measures verifying and decoding the same
// snapshot's file bytes.
func BenchmarkSnapshotDecode(b *testing.B) {
	_, blob := benchSnapshot(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := snapshot.Decode(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		stateSink = st
	}
	b.ReportMetric(float64(len(blob)), "snapshot-bytes")
}
