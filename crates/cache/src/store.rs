//! The cache handle tying the pieces together: an on-disk store opened
//! for one program, the in-memory [`FingerprintTable`] the search
//! probes, the visited-state seed set, and the certification ledger.
//!
//! # Lifecycle
//!
//! [`CacheStore::open`] loads and merges every segment recorded for the
//! program (compacting multiple segments back into one), the search
//! probes and notes states through the [`ExplorationCache`] trait, and
//! [`certify`](ExplorationCache::certify) — which the session only
//! calls after a *clean, fully explored, bug-free* run — persists the
//! merged table, seed set and ledger as a new segment. A run that is
//! killed or aborts mid-way persists nothing: its optimistic in-memory
//! stores die with it, so segments on disk only ever describe subtrees
//! that were actually explored to completion.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use icb_core::durable::{self, ErrorKind};
use icb_core::{Certification, ExplorationCache, Tid};

use crate::segment::{CacheError, Segment, FORMAT};
use crate::table::FingerprintTable;

/// Shards for the visited-state set (contended by every worker at every
/// execution step).
const STATE_SHARDS: usize = 16;

/// A disk-backed exploration cache for one program.
pub struct CacheStore {
    dir: PathBuf,
    program_id: u64,
    table: FingerprintTable,
    /// Seed states inherited from previous runs (sorted).
    loaded_seeds: Vec<u64>,
    /// All states seen — loaded seeds plus this run's visits.
    states: Vec<Mutex<HashSet<u64>>>,
    certs: Mutex<Vec<Certification>>,
    persist_error: Mutex<Option<CacheError>>,
    /// Segments set aside as `.corrupt` when this store was opened.
    quarantined: usize,
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStore")
            .field("dir", &self.dir)
            .field("program_id", &format_args!("{:016x}", self.program_id))
            .field("table", &self.table)
            .finish_non_exhaustive()
    }
}

/// Aggregate numbers for `explore cache stats`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreStats {
    /// Identity hash of the program this store describes.
    pub program_id: u64,
    /// `(state, thread)` subtree entries currently in the table.
    pub entries: usize,
    /// Seed states inherited from previous runs.
    pub seeds: usize,
    /// The certification ledger.
    pub certifications: Vec<Certification>,
    /// Lifetime probes answered by the in-memory table.
    pub probes: u64,
    /// Lifetime probe hits.
    pub hits: u64,
    /// Segments quarantined as `.corrupt` when the store was opened.
    pub quarantined: usize,
}

impl CacheStore {
    /// Opens (creating if needed) the cache for program `program_id`
    /// under `root`, merging and compacting any existing segments.
    ///
    /// A corrupted or foreign segment fails the open with a structured
    /// [`CacheError`] — a poisoned cache must never silently prune.
    pub fn open(root: &Path, program_id: u64) -> Result<Self, CacheError> {
        let dir = program_dir(root, program_id);
        std::fs::create_dir_all(&dir).map_err(io)?;
        let table = FingerprintTable::new();
        let mut seeds: HashSet<u64> = HashSet::new();
        let mut certs: Vec<Certification> = Vec::new();
        let mut paths = Vec::new();
        let mut quarantined = 0usize;
        for path in segment_paths(&dir)? {
            match Segment::read_from(&path) {
                Ok(seg) if seg.program_id == program_id => {
                    for (key, credit) in seg.entries {
                        table.load(key, credit);
                    }
                    seeds.extend(seg.seeds);
                    for cert in seg.certifications {
                        if !certs.contains(&cert) {
                            certs.push(cert);
                        }
                    }
                    paths.push(path);
                }
                // A foreign segment is a usage error, not damage: its
                // entries would poison the search, so refuse loudly
                // instead of silently discarding it.
                Ok(seg) => {
                    return Err(CacheError::WrongProgram {
                        expected: program_id,
                        found: seg.program_id,
                    })
                }
                // Filesystem-level failures stay fatal: nothing says the
                // data is bad, so quarantining would destroy good state.
                Err(e) if matches!(e.kind, ErrorKind::Io(_)) => return Err(e.into()),
                // Damaged or version-skewed segments must not kill the
                // run: set them aside under a `.corrupt` name (for
                // post-mortems) and continue with a cold cache. Losing
                // coverage credit is always sound — the cache only ever
                // *prunes*.
                Err(err) => {
                    let mut corrupt = path.as_os_str().to_owned();
                    corrupt.push(".corrupt");
                    let renamed = std::fs::rename(&path, PathBuf::from(corrupt));
                    eprintln!(
                        "warning: cache segment {} unreadable ({err}); {}, continuing cold",
                        path.display(),
                        if renamed.is_ok() {
                            "quarantined as .corrupt"
                        } else {
                            "quarantine rename failed; ignoring it"
                        },
                    );
                    quarantined += 1;
                }
            }
        }
        let mut loaded_seeds: Vec<u64> = seeds.iter().copied().collect();
        loaded_seeds.sort_unstable();
        let states: Vec<Mutex<HashSet<u64>>> = (0..STATE_SHARDS)
            .map(|shard| {
                Mutex::new(
                    loaded_seeds
                        .iter()
                        .copied()
                        .filter(|fp| (*fp as usize) % STATE_SHARDS == shard)
                        .collect(),
                )
            })
            .collect();
        let store = CacheStore {
            dir,
            program_id,
            table,
            loaded_seeds,
            states,
            certs: Mutex::new(certs),
            persist_error: Mutex::new(None),
            quarantined,
        };
        if paths.len() > 1 {
            // Compact: one merged segment replaces the pile.
            store.persist()?;
        }
        Ok(store)
    }

    /// The identity hash this store was opened for.
    pub fn program_id(&self) -> u64 {
        self.program_id
    }

    /// Aggregate statistics (for `explore cache stats`).
    pub fn stats(&self) -> StoreStats {
        let (probes, hits) = self.table.counters();
        StoreStats {
            program_id: self.program_id,
            entries: self.table.len(),
            seeds: self.states.iter().map(|s| s.lock().unwrap().len()).sum(),
            certifications: self.certs.lock().unwrap().clone(),
            probes,
            hits,
            quarantined: self.quarantined,
        }
    }

    /// The error of the last failed persist, if any.
    /// [`certify`](ExplorationCache::certify) cannot return one through
    /// the trait, so callers that care (the CLI) collect it here.
    pub fn last_persist_error(&self) -> Option<CacheError> {
        self.persist_error.lock().unwrap().clone()
    }

    fn snapshot_states(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .states
            .iter()
            .flat_map(|s| s.lock().unwrap().iter().copied().collect::<Vec<_>>())
            .collect();
        all.sort_unstable();
        all
    }

    /// Writes the merged table + seeds + ledger as a fresh segment and
    /// removes the segments it supersedes.
    fn persist(&self) -> Result<(), CacheError> {
        let seg = Segment {
            program_id: self.program_id,
            entries: self.table.entries(),
            seeds: self.snapshot_states(),
            certifications: self.certs.lock().unwrap().clone(),
        };
        let old = segment_paths(&self.dir)?;
        let next = old.last().and_then(|p| segment_seq(p)).map_or(0, |n| n + 1);
        seg.write_to(&self.dir.join(format!("seg-{next}.bin")))?;
        // A crash here leaves extra segments behind; the next open
        // merges and re-compacts them, so this cleanup is best-effort.
        for path in old {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

impl ExplorationCache for CacheStore {
    fn probe(&self, state: u64, choice: Tid, credit: u32) -> bool {
        self.table.probe(state, choice, credit)
    }

    fn seed_states(&self) -> Vec<u64> {
        self.loaded_seeds.clone()
    }

    fn note_state(&self, state: u64) {
        self.states[(state as usize) % STATE_SHARDS]
            .lock()
            .unwrap()
            .insert(state);
    }

    fn find_certification(
        &self,
        strategy: &str,
        target: Option<usize>,
        fault_target: usize,
    ) -> Option<Certification> {
        self.certs
            .lock()
            .unwrap()
            .iter()
            .find(|c| c.covers(strategy, target, fault_target))
            .cloned()
    }

    fn attach_metrics(&self, registry: &std::sync::Arc<icb_core::MetricsRegistry>) {
        self.table.attach_metrics(std::sync::Arc::clone(registry));
    }

    fn certify(&self, certification: Certification) {
        {
            let mut certs = self.certs.lock().unwrap();
            // The new certificate supersedes every weaker same-strategy
            // one it covers.
            certs.retain(|old| {
                old.strategy != certification.strategy
                    || !certification.covers(&old.strategy, old.bound, old.fault_bound)
            });
            certs.push(certification);
        }
        if let Err(e) = self.persist() {
            *self.persist_error.lock().unwrap() = Some(e);
        }
    }
}

/// One row of `explore cache ls`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgramEntry {
    /// Identity hash parsed from the directory name.
    pub program_id: u64,
    /// Segment files on disk.
    pub segments: usize,
    /// Total size of the segment files in bytes.
    pub bytes: u64,
}

/// Lists every program directory under `root`.
pub fn list_programs(root: &Path) -> Result<Vec<ProgramEntry>, CacheError> {
    let mut out = Vec::new();
    for dir in files(root, Path::is_dir)? {
        let name = dir.file_name().and_then(|n| n.to_str());
        let Some(program_id) = name.and_then(|s| u64::from_str_radix(s, 16).ok()) else {
            continue;
        };
        let segs = segment_paths(&dir)?;
        let bytes = segs
            .iter()
            .map(|p| p.metadata().map(|m| m.len()).unwrap_or(0))
            .sum();
        out.push(ProgramEntry {
            program_id,
            segments: segs.len(),
            bytes,
        });
    }
    out.sort_by_key(|e| e.program_id);
    Ok(out)
}

/// Removes the cached data of one program (its whole directory).
/// Returns whether anything existed.
pub fn invalidate(root: &Path, program_id: u64) -> Result<bool, CacheError> {
    let dir = program_dir(root, program_id);
    if !dir.exists() {
        return Ok(false);
    }
    std::fs::remove_dir_all(&dir).map(|()| true).map_err(io)
}

/// Compacts every program under `root` (merging multi-segment piles)
/// and drops unreadable segments, the temp files of segment writes
/// interrupted before their rename, and empty directories. Segments
/// quarantined as `.corrupt` stay for post-mortems. Returns
/// `(programs kept, segments removed)`, temp files counted as segments.
pub fn gc(root: &Path) -> Result<(usize, usize), CacheError> {
    let mut kept = 0;
    let mut removed = 0;
    for prog in list_programs(root)? {
        let dir = program_dir(root, prog.program_id);
        let stale = files(&dir, |p| {
            let target = p.with_extension("");
            segment_seq(&target).is_some() && durable::temp_path(&target) == p
        })?;
        for path in stale {
            std::fs::remove_file(&path).map_err(io)?;
            removed += 1;
        }
        // Drop segments that no longer decode (corruption, version
        // skew); whatever survives is merged by `open`.
        let mut readable = 0;
        for path in segment_paths(&dir)? {
            match Segment::read_from(&path) {
                Ok(seg) if seg.program_id == prog.program_id => readable += 1,
                _ => {
                    std::fs::remove_file(&path).map_err(io)?;
                    removed += 1;
                }
            }
        }
        if readable == 0 {
            let _ = std::fs::remove_dir(&dir);
            continue;
        }
        CacheStore::open(root, prog.program_id)?;
        kept += 1;
    }
    Ok((kept, removed))
}

fn io(e: std::io::Error) -> CacheError {
    FORMAT.io_error(e).into()
}

fn program_dir(root: &Path, program_id: u64) -> PathBuf {
    root.join(format!("{program_id:016x}"))
}

/// Segment files of one program directory, sorted by sequence number.
fn segment_paths(dir: &Path) -> Result<Vec<PathBuf>, CacheError> {
    let mut out = files(dir, |p| segment_seq(p).is_some())?;
    out.sort_by_key(|p| segment_seq(p));
    Ok(out)
}

/// The entries of `dir` that `keep` accepts; none if `dir` is missing.
fn files(dir: &Path, keep: impl Fn(&Path) -> bool) -> Result<Vec<PathBuf>, CacheError> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io(e)),
    };
    for entry in entries {
        let path = entry.map_err(io)?.path();
        if keep(&path) {
            out.push(path);
        }
    }
    Ok(out)
}

fn segment_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("seg-")?
        .strip_suffix(".bin")?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("icb-cache-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn cold_open_is_empty_and_warm_open_restores() {
        let root = tmp_root("roundtrip");
        let store = CacheStore::open(&root, 7).unwrap();
        assert!(store.seed_states().is_empty());
        assert!(!store.probe(0x11, Tid(0), 3));
        assert!(!store.probe(0x22, Tid(1), 3));
        store.note_state(0xaa);
        store.note_state(0xbb);
        store.certify(Certification {
            strategy: "icb".into(),
            bound: Some(2),
            fault_bound: 1,
            executions: 10,
            distinct_states: 2,
        });
        assert_eq!(store.last_persist_error(), None);
        drop(store);

        let warm = CacheStore::open(&root, 7).unwrap();
        assert_eq!(warm.seed_states(), vec![0xaa, 0xbb]);
        assert!(warm.probe(0x11, Tid(0), 3), "entry survived the disk trip");
        assert!(warm.probe(0x11, Tid(0), 2));
        assert!(!warm.probe(0x11, Tid(0), 9), "larger credit still misses");
        assert_eq!(
            warm.find_certification("icb", Some(1), 0)
                .unwrap()
                .executions,
            10
        );
        assert!(
            warm.find_certification("icb", Some(1), 1).is_some(),
            "fault bound survived the disk trip"
        );
        assert!(warm.find_certification("icb", Some(1), 2).is_none());
        assert!(warm.find_certification("icb", Some(3), 0).is_none());
        assert!(warm.find_certification("dfs", Some(1), 0).is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn stronger_certification_supersedes_weaker() {
        let root = tmp_root("supersede");
        let store = CacheStore::open(&root, 1).unwrap();
        let base = Certification {
            strategy: "icb".into(),
            bound: Some(1),
            fault_bound: 0,
            executions: 5,
            distinct_states: 3,
        };
        store.certify(base.clone());
        store.certify(Certification {
            bound: Some(4),
            ..base.clone()
        });
        assert_eq!(store.stats().certifications.len(), 1);
        assert!(store.find_certification("icb", Some(4), 0).is_some());
        // A faulted certificate subsumes the fault-free one, but not
        // vice versa: certifying fault-free again keeps both.
        store.certify(Certification {
            bound: Some(4),
            fault_bound: 2,
            ..base.clone()
        });
        assert_eq!(store.stats().certifications.len(), 1);
        store.certify(base);
        assert_eq!(store.stats().certifications.len(), 2);
        assert!(store.find_certification("icb", Some(4), 2).is_some());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wrong_program_is_rejected() {
        let root = tmp_root("poison");
        let store = CacheStore::open(&root, 0xaaaa).unwrap();
        store.certify(Certification {
            strategy: "icb".into(),
            bound: None,
            fault_bound: 0,
            executions: 1,
            distinct_states: 1,
        });
        drop(store);
        // Copy the segment under a different program's directory.
        let src = segment_paths(&program_dir(&root, 0xaaaa)).unwrap()[0].clone();
        std::fs::create_dir_all(program_dir(&root, 0xbbbb)).unwrap();
        std::fs::copy(&src, program_dir(&root, 0xbbbb).join("seg-0.bin")).unwrap();
        assert!(matches!(
            CacheStore::open(&root, 0xbbbb),
            Err(CacheError::WrongProgram { .. })
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_segment_is_quarantined_and_open_continues_cold() {
        let root = tmp_root("bitflip");
        let store = CacheStore::open(&root, 0xcccc).unwrap();
        store.note_state(0x42);
        store.certify(Certification {
            strategy: "icb".into(),
            bound: None,
            fault_bound: 0,
            executions: 1,
            distinct_states: 1,
        });
        drop(store);
        // Flip one payload byte: the checksum catches it, the store
        // renames the file aside and opens cold instead of dying.
        let seg = segment_paths(&program_dir(&root, 0xcccc)).unwrap()[0].clone();
        let mut bytes = std::fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&seg, bytes).unwrap();

        let cold = CacheStore::open(&root, 0xcccc).unwrap();
        assert!(cold.seed_states().is_empty(), "cold: no seeds survive");
        assert!(cold.find_certification("icb", None, 0).is_none());
        assert_eq!(cold.stats().quarantined, 1);
        assert!(!seg.exists(), "damaged segment moved aside");
        let mut corrupt = seg.as_os_str().to_owned();
        corrupt.push(".corrupt");
        assert!(
            PathBuf::from(corrupt).exists(),
            "damaged bytes kept for post-mortem"
        );
        // The quarantined file is invisible to later opens and does not
        // block fresh certifications.
        cold.certify(Certification {
            strategy: "icb".into(),
            bound: Some(1),
            fault_bound: 0,
            executions: 2,
            distinct_states: 1,
        });
        assert_eq!(cold.last_persist_error(), None);
        drop(cold);
        let warm = CacheStore::open(&root, 0xcccc).unwrap();
        assert_eq!(warm.stats().quarantined, 0);
        assert!(warm.find_certification("icb", Some(1), 0).is_some());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn ls_gc_invalidate_admin_flows() {
        let root = tmp_root("admin");
        for id in [3u64, 5] {
            let store = CacheStore::open(&root, id).unwrap();
            store.certify(Certification {
                strategy: "icb".into(),
                bound: None,
                fault_bound: 0,
                executions: 2,
                distinct_states: 2,
            });
        }
        let ls = list_programs(&root).unwrap();
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].program_id, 3);
        assert_eq!(ls[0].segments, 1);
        assert!(ls[0].bytes > 0);

        // Corrupt program 5's segment; gc must drop it and keep 3. An
        // interrupted segment write left a temp file next to 3's
        // segment: gc reclaims it, and keeps a quarantined segment.
        let seg5 = segment_paths(&program_dir(&root, 5)).unwrap()[0].clone();
        std::fs::write(&seg5, b"garbage").unwrap();
        let dir3 = program_dir(&root, 3);
        let tmp = dir3.join("seg-7.bin.tmp");
        let quarantined = dir3.join("seg-6.bin.corrupt");
        std::fs::write(&tmp, b"half a segment").unwrap();
        std::fs::write(&quarantined, b"damaged").unwrap();
        let (kept, removed) = gc(&root).unwrap();
        assert_eq!((kept, removed), (1, 2));
        assert_eq!(list_programs(&root).unwrap().len(), 1);
        assert!(!tmp.exists(), "temp file of an interrupted write reclaimed");
        assert!(quarantined.exists(), "quarantined segment kept");

        assert!(invalidate(&root, 3).unwrap());
        assert!(!invalidate(&root, 3).unwrap());
        assert!(list_programs(&root).unwrap().is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn multiple_segments_compact_on_open() {
        let root = tmp_root("compact");
        let dir = program_dir(&root, 9);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, key) in [(0u64, 100u64), (1, 200)] {
            Segment {
                program_id: 9,
                entries: vec![(key, 3)],
                seeds: vec![key],
                certifications: Vec::new(),
            }
            .write_to(&dir.join(format!("seg-{i}.bin")))
            .unwrap();
        }
        let store = CacheStore::open(&root, 9).unwrap();
        assert_eq!(store.stats().entries, 2);
        assert_eq!(store.seed_states(), vec![100, 200]);
        assert_eq!(segment_paths(&dir).unwrap().len(), 1, "compacted");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
