// Package runner fans independent, seed-deterministic experiment runs
// across a worker pool and emits one structured telemetry record per
// completed point to pluggable sinks (JSONL, CSV, live progress).
//
// # Determinism contract
//
// The pool preserves bit-reproducibility: every point's seed is fixed
// before any worker starts (explicit per-point seeds, or derived from
// the sweep seed and the point index), never influenced by scheduling
// order. Records are delivered to sinks in point order regardless of
// the worker count, so a sweep artifact is byte-identical at -workers=1
// and -workers=8 (modulo the wall-clock and allocation fields, which
// the deterministic sink mode zeroes).
//
// # Memory contract
//
// Records are rolled up, never per-node: a point's Metrics carries
// whole-run totals, per-kind counts, and — when profiling is on — the
// condensed per-round traffic profile from trace.Recorder.Summary. The
// harnesses feed that recorder round digests through
// sim.WithRoundDigest — O(rounds) state — so nothing the runner retains
// grows with n; a
// million-node point's record is the same few hundred bytes as a
// 64-node one (docs/OBSERVABILITY.md documents the schema,
// docs/MEMORY.md the scaling model).
//
// Artifacts are the system of record for a sweep: -resume replays
// completed points from a previous artifact instead of re-running them,
// and a table can be regenerated offline from JSONL alone.
package runner
