//! Persistent state-fingerprint cache for the exploration stack.
//!
//! Three layers, one handle:
//!
//! * [`FingerprintTable`] — a sharded concurrent map from
//!   `(state fingerprint, next thread)` to the best coverage credit
//!   recorded for that subtree. The search drivers probe it at every
//!   work-item emission and skip subtrees a previous item (or a
//!   previous *run*) already explored at least as thoroughly.
//! * [`Segment`] — the on-disk unit, in the versioned, checksummed
//!   container checkpoints use too ([`icb_core::durable`]). Segments
//!   are written atomically (temp file + rename), keyed by a program
//!   identity hash, and compacted back into one file on load.
//! * [`CacheStore`] — the [`ExplorationCache`](icb_core::ExplorationCache)
//!   implementation the session binds: it merges segments on open,
//!   answers probes from the table, collects visited states as seeds,
//!   and — only when the session certifies a clean completed run —
//!   persists everything plus a certification ledger entry
//!   ("program H is bug-free under strategy X up to bound c") that
//!   lets an identical later search be answered without running at
//!   all.
//!
//! Soundness note: pruning on cached fingerprints is exact only when
//! the program's fingerprints are exact (the explicit-state VM). The
//! session enforces that; hash-based happens-before fingerprints
//! require an explicit heuristic opt-in and never certify or persist.

pub mod segment;
pub mod store;
pub mod table;

pub use segment::{CacheError, Segment, VERSION};
pub use store::{gc, invalidate, list_programs, CacheStore, ProgramEntry, StoreStats};
pub use table::{table_key, FingerprintTable};
