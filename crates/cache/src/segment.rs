//! The disk-backed half of the cache: one *segment* file per completed
//! run, holding the run's new table entries, its visited-state seeds
//! and any certification it earned.
//!
//! The file is the container of `icb-core::durable`, the one checkpoints
//! use too: magic, version, payload length and checksum, written
//! atomically (temp file, fsync, rename), so a `SIGKILL` mid-write never
//! destroys an existing segment, and corrupted or truncated files are
//! rejected with a structured [`durable::Error`], never a panic. This
//! module holds only the payload layout.
//!
//! Segments are append-only at the directory level: each persisting run
//! adds `seg-<n>.bin` next to its predecessors instead of rewriting
//! them. [`CacheStore::open`](crate::CacheStore::open) merges all
//! segments of a program and compacts them back into a single file.

use std::fmt;
use std::fs;
use std::path::Path;

use icb_core::durable::{self, Format, Reader, Writer};
use icb_core::Certification;

/// Current segment format version. Bump on any layout change —
/// including any change to the fingerprint functions in
/// `icb-core::hash`, which would silently re-key every entry.
/// Version 2 added the certification fault bound.
pub const VERSION: u32 = 2;

/// The cache segment file format.
pub(crate) static FORMAT: Format = Format {
    magic: b"ICBCACHE",
    version: VERSION,
    name: "cache segment",
    version_advice: "",
};

/// Why a cache store operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// A segment or the cache directory could not be written or read
    /// back.
    Durable(durable::Error),
    /// The segment was recorded for a different program than the one
    /// being explored — its entries would poison the search.
    WrongProgram {
        /// The identity hash of the program under exploration.
        expected: u64,
        /// The identity hash recorded in the segment.
        found: u64,
    },
}

impl From<durable::Error> for CacheError {
    fn from(e: durable::Error) -> Self {
        CacheError::Durable(e)
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Durable(e) => e.fmt(f),
            CacheError::WrongProgram { expected, found } => write!(
                f,
                "cache segment belongs to program {found:016x}, not {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for CacheError {}

/// The decoded contents of one segment file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Segment {
    /// Identity hash of the program the entries describe.
    pub program_id: u64,
    /// `(table key, coverage credit)` pairs, sorted by key.
    pub entries: Vec<(u64, u32)>,
    /// Distinct state fingerprints the recording run visited, sorted.
    pub seeds: Vec<u64>,
    /// Certifications earned by the recording run (usually 0 or 1).
    pub certifications: Vec<Certification>,
}

impl Segment {
    /// Serializes the segment and writes it to `path` atomically.
    pub fn write_to(&self, path: &Path) -> Result<(), durable::Error> {
        // Transient write failures (NFS hiccups, momentary ENOSPC) must
        // not forfeit the run's coverage: `write_atomic` retries.
        FORMAT.write_atomic(path, &FORMAT.seal(&self.encode()))
    }

    /// Reads and validates a segment from `path`.
    pub fn read_from(path: &Path) -> Result<Self, durable::Error> {
        Self::from_bytes(&fs::read(path).map_err(|e| FORMAT.io_error(e))?)
    }

    /// Decodes a segment from its on-disk byte representation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, durable::Error> {
        FORMAT.open(bytes, Self::decode)
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u64(self.program_id);
        w.list(&self.entries, |w, &(key, credit)| {
            w.u64(key);
            w.u32(credit);
        });
        w.list(&self.seeds, |w, &fp| w.u64(fp));
        w.list(&self.certifications, |w, cert| {
            w.str(&cert.strategy);
            w.opt_usize(cert.bound);
            w.usize(cert.fault_bound);
            w.usize(cert.executions);
            w.usize(cert.distinct_states);
        });
        w.into_bytes()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, durable::Error> {
        Ok(Segment {
            program_id: r.u64()?,
            entries: r.list(|r| Ok((r.u64()?, r.u32()?)))?,
            seeds: r.list(Reader::u64)?,
            certifications: r.list(|r| {
                Ok(Certification {
                    strategy: r.str()?,
                    bound: r.opt_usize()?,
                    fault_bound: r.usize()?,
                    executions: r.usize()?,
                    distinct_states: r.usize()?,
                })
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icb_core::durable::ErrorKind;

    fn sample() -> Segment {
        Segment {
            program_id: 0xfeed_f00d_dead_beef,
            entries: vec![(1, 7), (9, u32::MAX), (42, 0)],
            seeds: vec![3, 5, 8],
            certifications: vec![Certification {
                strategy: "icb".into(),
                bound: Some(2),
                fault_bound: 1,
                executions: 1234,
                distinct_states: 321,
            }],
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("icb-cache-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-0.bin");
        let seg = sample();
        seg.write_to(&path).unwrap();
        assert_eq!(Segment::read_from(&path).unwrap(), seg);
        assert!(
            !durable::temp_path(&path).exists(),
            "temp file renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pins the bytes of format version 2 as written to disk, and cuts
    /// the file at every length: a cut file is an error naming the
    /// truncation, never a panic.
    #[test]
    fn written_bytes_are_pinned_and_every_cut_is_rejected() {
        let dir = std::env::temp_dir().join(format!("icb-cache-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-0.bin");
        sample().write_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            (bytes.len(), icb_core::hash::fingerprint_bytes(&bytes)),
            (164, 3652702260165833370),
            "segment bytes changed"
        );
        for cut in 0..bytes.len() {
            let err = Segment::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(err.to_string().contains("truncated"), "cut at {cut}: {err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_render_clear_messages() {
        assert!(FORMAT
            .error(ErrorKind::ChecksumMismatch)
            .to_string()
            .contains("corrupt"));
        let e = CacheError::WrongProgram {
            expected: 0xa,
            found: 0xb,
        };
        assert!(e.to_string().contains("000000000000000b"));
    }
}
