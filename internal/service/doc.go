// Package service is the long-lived renaming service: an epoch-batched
// join/leave layer over the paper's one-shot algorithms that allocates
// names from — and releases them back into — a fixed recyclable
// namespace [1, Capacity].
//
// The paper solves one-shot renaming: n participants show up once, run
// the protocol, and keep their names forever. A production name service
// faces churn — clients join and leave continuously — so the one-shot
// protocol becomes the inner loop of an epoch loop:
//
//   - clients join and leave in per-epoch batches;
//   - each epoch runs the one-shot crash or Byzantine protocol over the
//     join batch alone, giving every surviving joiner a rank in
//     [1, batch];
//   - the epoch then decides whether to commit: it aborts when the run
//     leaves the guarantee envelope (a non-unique outcome, a broken
//     committee assumption, too few free names for the survivors). The
//     run reads none of the service's tables, so every abort reason is
//     known before any table is written, and an aborted epoch leaves
//     the service exactly as it was;
//   - a committed epoch releases the leavers' names into a ring-buffer
//     FreeList (head/tail indices with phase bits, the register-renaming
//     free-list structure), then maps ranks in order onto names popped
//     from it and records them in the rename map (client → name).
//
// The service inherits the repo's determinism contract: a Config seed
// fixes every epoch's one-shot execution, and results are bit-identical
// at any EngineWorkers setting, which is what the churn harness's
// golden-fingerprint test (service_determinism_test.go) and the
// stdout and JSONL digests of cmd/renamed (cmd/renamed/main_test.go)
// pin.
//
// Invariants (re-checked per epoch by the campaign oracle,
// internal/campaign.ServiceOracle; see docs/SERVICE.md):
//
//   - recycle safety: a name is never handed out while live;
//   - tightness: every live name lies in [1, Capacity] — the namespace
//     never grows past the configured peak population, no matter how
//     many clients the trace serves in total;
//   - conservation: live names + free names = Capacity every epoch;
//   - rollback: an aborted epoch leaves no visible state change;
//   - per-epoch order (Byzantine core): within a join batch, ranks —
//     and therefore free-list pop positions — preserve the order of the
//     joiners' original identities. Global order across epochs is
//     deliberately out of scope: with recycling, released low names are
//     re-granted to later (arbitrarily ordered) clients.
package service
