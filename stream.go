package fakeclick

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/clicktable"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/stream"
)

// StreamDurability configures the durable state layer of a StreamDetector
// (Config.Durability): a checksummed write-ahead log of every click and
// sweep commit plus periodic atomic snapshots, all under Dir.
type StreamDurability struct {
	// Dir holds the WAL segments and snapshots. Reopening a detector with
	// the same Dir recovers the previous incarnation's state.
	Dir string
	// Fsync makes every WAL append fsync (acknowledged clicks survive
	// power loss). Off, appends are flushed to the OS per call — they
	// survive a process crash but not a kernel panic or power cut.
	Fsync bool
	// SnapshotEvery takes an automatic snapshot at the first sweep
	// boundary after this many WAL records (0 disables; Snapshot can
	// still be called explicitly).
	SnapshotEvery int
}

// StreamRecovery reports what a durable StreamDetector reconstructed when
// it opened.
type StreamRecovery struct {
	// ColdStart is true when the directory held no usable state.
	ColdStart bool
	// SnapshotClock is the record clock of the loaded snapshot (0 if
	// recovery replayed the WAL from the beginning).
	SnapshotClock uint64
	// ReplayedRecords is how many WAL records were applied on top of the
	// snapshot.
	ReplayedRecords int
	// TruncatedBytes is how many torn trailing WAL bytes (a crash wound)
	// were cut during recovery.
	TruncatedBytes int64
}

// StreamDetector is the incremental detection surface: feed click events
// continuously and sweep periodically. Sweeps after the first are scoped to
// the users whose new activity carries the crowd-worker signature; what
// that saves over a full detection on the same state is measured, per
// workload, as stream.sweep_ms_p50 against stream.full_detect_ms_p50 in
// BENCHMARK.json. Sweep and FullSweep reports are built the way Detect's
// are: the same thresholds, the same Module 3 scores, the same group order
// for the same outcome.
//
// Ingestion and sweeping are safe to run concurrently: AddClicks may race
// with an in-flight Sweep/SweepContext, which works on a consistent
// snapshot; clicks streamed during a sweep land in the next one. Running
// multiple sweeps concurrently is not supported.
type StreamDetector struct {
	inner *stream.Detector
	// cfg and params are what the detector was created with: every report
	// carries the thresholds its detection ran with.
	cfg      Config
	params   core.Params
	recovery *StreamRecovery
}

// NewStreamDetector creates a streaming detector, optionally warm-started
// from an existing graph's clicks. Config semantics match Detect; derived
// thresholds (zero THot/TClick) are resolved against the initial graph, so
// a warm start is recommended when relying on derivation.
//
// With Config.Durability set, the detector opens (or recovers) durable
// state under Durability.Dir instead — see StreamDurability. Durable
// detectors reject a warm-start graph (the recovered state replaces it)
// and require explicit THot/TClick; call Close when done and Recovery to
// inspect what was reconstructed.
func NewStreamDetector(initial *Graph, cfg Config) (*StreamDetector, error) {
	if cfg.Durability != nil {
		return openDurableStreamDetector(initial, cfg)
	}
	var tbl *clicktable.Table
	var bg *bipartite.Graph
	if initial != nil {
		bg = initial.graph()
		tbl = clicktable.FromGraph(bg)
	} else {
		bg = bipartite.NewGraph(0, 0)
	}
	params, err := resolveParams(bg, cfg)
	if err != nil {
		return nil, err
	}
	inner, err := stream.New(tbl, params)
	if err != nil {
		return nil, fmt.Errorf("fakeclick: %w", err)
	}
	inner.Obs = auditObserver(cfg)
	return &StreamDetector{inner: inner, cfg: cfg, params: params}, nil
}

// openDurableStreamDetector is NewStreamDetector's durable path.
func openDurableStreamDetector(initial *Graph, cfg Config) (*StreamDetector, error) {
	if initial != nil {
		return nil, errors.New("fakeclick: Durability cannot be combined with a warm-start graph (the recovered state replaces it)")
	}
	if cfg.THot == 0 || cfg.TClick == 0 {
		return nil, errors.New("fakeclick: Durability requires explicit THot and TClick (derived thresholds could differ across restarts)")
	}
	params, err := resolveParams(bipartite.NewGraph(0, 0), cfg)
	if err != nil {
		return nil, err
	}
	sync := durable.SyncNever
	if cfg.Durability.Fsync {
		sync = durable.SyncAlways
	}
	inner, info, err := stream.Open(stream.Durability{
		Dir:           cfg.Durability.Dir,
		Sync:          sync,
		SnapshotEvery: cfg.Durability.SnapshotEvery,
	}, params, auditObserver(cfg))
	if err != nil {
		return nil, fmt.Errorf("fakeclick: %w", err)
	}
	return &StreamDetector{inner: inner, cfg: cfg, params: params, recovery: &StreamRecovery{
		ColdStart:       info.ColdStart,
		SnapshotClock:   info.SnapshotClock,
		ReplayedRecords: info.Replayed,
		TruncatedBytes:  info.TruncatedBytes,
	}}, nil
}

// Recovery returns what a durable detector reconstructed at open; nil for
// a memory-only detector.
func (s *StreamDetector) Recovery() *StreamRecovery { return s.recovery }

// Snapshot atomically persists the detector's full state and prunes the
// WAL it covers. Errors on a memory-only detector.
func (s *StreamDetector) Snapshot() error {
	if err := s.inner.Snapshot(); err != nil {
		return fmt.Errorf("fakeclick: %w", err)
	}
	return nil
}

// DurabilityErr reports the latched WAL failure after which the detector
// degraded to memory-only operation; nil while durability is healthy.
func (s *StreamDetector) DurabilityErr() error { return s.inner.DurabilityErr() }

// Close flushes and closes the WAL of a durable detector (no-op for a
// memory-only one). The detector keeps working in memory afterwards.
func (s *StreamDetector) Close() error {
	if err := s.inner.Close(); err != nil {
		return fmt.Errorf("fakeclick: %w", err)
	}
	return nil
}

// AddClicks streams one aggregated click event.
func (s *StreamDetector) AddClicks(user, item, clicks uint32) {
	s.inner.AddClick(user, item, clicks)
}

// Sweep runs one detection sweep (incremental after the first) and returns
// the current report.
func (s *StreamDetector) Sweep() (*Report, error) {
	return s.SweepContext(context.Background())
}

// SweepContext is Sweep under a context. A cancelled or deadline-expired
// sweep returns a non-nil PARTIAL report (Report.Partial, Report.Stage,
// Report.Err — same contract as DetectContext) and commits nothing: the
// dirty region and cached groups are untouched, so the next sweep redoes
// the work in full. A stage panic is isolated into a *StageError.
func (s *StreamDetector) SweepContext(ctx context.Context) (*Report, error) {
	res, err := s.inner.SweepContext(ctx)
	return s.report(res, err)
}

// report is newReport for a sweep outcome. A complete one arrives identified
// against the graph it examined; a cut-short one, which is never published,
// is identified against the live graph.
func (s *StreamDetector) report(res *detect.Result, err error) (*Report, error) {
	var g *bipartite.Graph
	if err != nil {
		g = s.inner.Graph()
	}
	return newReport(g, res, err, s.params, s.cfg)
}

// FullSweep forces a from-scratch batch detection.
func (s *StreamDetector) FullSweep() (*Report, error) {
	return s.FullSweepContext(context.Background())
}

// FullSweepContext is FullSweep under a context, with SweepContext's
// partial-report contract.
func (s *StreamDetector) FullSweepContext(ctx context.Context) (*Report, error) {
	res, err := s.inner.FullDetectContext(ctx)
	return s.report(res, err)
}
