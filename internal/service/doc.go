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
//   - each epoch first releases the leavers' names into a ring-buffer
//     FreeList (head/tail indices with phase bits, the register-renaming
//     free-list structure), then runs the one-shot crash or Byzantine
//     protocol over the join batch alone, giving every surviving joiner
//     a rank in [1, batch];
//   - ranks are mapped in order onto names popped from the FreeList and
//     committed into the rename-map table (client → name, name → client);
//   - an undo journal opened at epoch start makes the epoch atomic: when the
//     one-shot run leaves the guarantee envelope (a non-unique outcome,
//     a broken committee assumption, a drained free list) the whole
//     epoch — leaves included — rolls back to the exact pre-epoch
//     mapping.
//
// The service inherits the repo's determinism contract: a Config seed
// fixes every epoch's one-shot execution, and results are bit-identical
// at any EngineWorkers setting, which is what the churn harness's
// golden-fingerprint test (service_determinism_test.go) and the
// byte-identical JSONL acceptance of cmd/renamed pin.
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
