//! The one on-disk container for everything a search persists:
//! checkpoints ([`crate::snapshot`]) and cache segments (`icb-cache`).
//!
//! A file is an 8-byte magic, a little-endian `u32` format version, the
//! payload length as a `u64`, an FNV-1a checksum of the payload as a
//! `u64`, then the payload. Payloads are written with [`Writer`] and read
//! back with [`Reader`], a hand-rolled little-endian codec (the
//! workspace builds hermetically, with no serialization crates).
//! [`Format::open`] checks the whole frame before a payload byte is
//! decoded, so corrupted or truncated files are rejected with a
//! structured [`Error`], never a panic.
//!
//! [`Format::write_atomic`] writes a sibling temp file, fsyncs it and
//! renames it over the target, so a `SIGKILL` mid-write never destroys
//! the previous file. Such writes can fail transiently (NFS hiccups,
//! momentary ENOSPC, scanners holding the temp file), so the whole write
//! is retried a few times with jittered backoff before the error is
//! returned; callers degrade to a logged warning and keep searching
//! (durability is best-effort, the search never depends on it).

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::hash::fingerprint_bytes;
use crate::rng::SplitMix64;

/// Total attempts (the first try plus retries) of one atomic write.
const ATTEMPTS: u32 = 3;

/// One kind of durable file: what opens it, which payload layout it
/// holds, and how errors name it.
#[derive(Debug, PartialEq, Eq)]
pub struct Format {
    /// Bytes opening every file of this kind.
    pub magic: &'static [u8; 8],
    /// The payload layout version this build writes and reads.
    pub version: u32,
    /// What error messages call the file (`"checkpoint file"`).
    pub name: &'static str,
    /// Appended to the unsupported-version error: what to do with a file
    /// of another version (may be empty).
    pub version_advice: &'static str,
}

/// Why a durable file could not be written or read back.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// The format of the failed file, which names it in the message.
    format: &'static Format,
    /// What went wrong.
    pub kind: ErrorKind,
}

/// The failures a durable file can meet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// An underlying filesystem operation failed.
    Io(String),
    /// The file does not start with the format's magic bytes.
    BadMagic,
    /// The file uses a format version this build does not understand.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload does.
    Truncated,
    /// The payload checksum does not match its contents.
    ChecksumMismatch,
    /// The payload decodes to structurally invalid data.
    Corrupt(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.format.name;
        match &self.kind {
            ErrorKind::Io(e) => write!(f, "{name} I/O error: {e}"),
            ErrorKind::BadMagic => write!(f, "not a {name} (bad magic)"),
            ErrorKind::UnsupportedVersion(v) => write!(
                f,
                "unsupported {name} format version {v} (this build reads version {}){}",
                self.format.version, self.format.version_advice
            ),
            ErrorKind::Truncated => write!(f, "{name} is truncated"),
            ErrorKind::ChecksumMismatch => write!(f, "{name} is corrupted (checksum mismatch)"),
            ErrorKind::Corrupt(what) => write!(f, "{name} is corrupted ({what})"),
        }
    }
}

impl std::error::Error for Error {}

impl Format {
    /// An error of `kind` about a file of this format.
    pub fn error(&'static self, kind: ErrorKind) -> Error {
        Error { format: self, kind }
    }

    /// An I/O failure on a file of this format.
    pub fn io_error(&'static self, e: std::io::Error) -> Error {
        self.error(ErrorKind::Io(e.to_string()))
    }

    /// Frames `payload` as a complete file of this format.
    pub fn seal(&self, payload: &[u8]) -> Vec<u8> {
        let version = self.version.to_le_bytes();
        let len = (payload.len() as u64).to_le_bytes();
        let checksum = fingerprint_bytes(payload).to_le_bytes();
        [&self.magic[..], &version, &len, &checksum, payload].concat()
    }

    /// Checks the magic, version, length and checksum of `bytes`, then
    /// decodes the payload with `decode`, which must read all of it.
    pub fn open<'a, T>(
        &'static self,
        bytes: &'a [u8],
        decode: impl FnOnce(&mut Reader<'a>) -> Result<T, Error>,
    ) -> Result<T, Error> {
        let mut r = Reader {
            format: self,
            buf: bytes,
            pos: 0,
        };
        if r.take(8)? != self.magic {
            return Err(self.error(ErrorKind::BadMagic));
        }
        let version = r.u32()?;
        if version != self.version {
            return Err(self.error(ErrorKind::UnsupportedVersion(version)));
        }
        let (len, checksum) = (r.u64()?, r.u64()?);
        let payload = &bytes[r.pos..];
        if payload.len() as u64 != len {
            return Err(self.error(ErrorKind::Truncated));
        }
        if fingerprint_bytes(payload) != checksum {
            return Err(self.error(ErrorKind::ChecksumMismatch));
        }
        let mut r = Reader {
            format: self,
            buf: payload,
            pos: 0,
        };
        let value = decode(&mut r)?;
        if r.pos != payload.len() {
            return Err(r.corrupt("trailing bytes"));
        }
        Ok(value)
    }

    /// Writes `bytes` to `path` atomically: they go to the sibling
    /// [`temp_path`], which is fsynced and renamed over `path`. A failed
    /// attempt is logged and the whole write retried, up to three
    /// attempts with jittered backoff, before the last error is
    /// returned.
    pub fn write_atomic(&'static self, path: &Path, bytes: &[u8]) -> Result<(), Error> {
        let tmp = temp_path(path);
        with_backoff(self.name, || {
            let io = |e| self.io_error(e);
            let mut file = fs::File::create(&tmp).map_err(io)?;
            file.write_all(bytes).map_err(io)?;
            file.sync_all().map_err(io)?;
            drop(file);
            fs::rename(&tmp, path).map_err(io)
        })
    }
}

/// The temp file [`Format::write_atomic`] writes before renaming it over
/// `path`.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    PathBuf::from(tmp)
}

/// Runs `op` up to [`ATTEMPTS`] times, sleeping with jittered
/// exponential backoff between failures (≈10 ms then ≈40 ms, each with
/// up to 100% added jitter so colocated writers do not retry in
/// lockstep). Returns the first success, or the last error once the
/// attempts are exhausted. Every failed attempt is logged to stderr
/// with `what` for context.
fn with_backoff<T, E: fmt::Display>(
    what: &str,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    // The jitter stream need not be reproducible across runs (it never
    // influences search results), only cheap and process-local.
    let mut rng = SplitMix64::new(std::process::id() as u64 ^ ((what.len() as u64) << 32));
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) => {
                attempt += 1;
                if attempt >= ATTEMPTS {
                    return Err(e);
                }
                let base = 10u64 << (2 * (attempt - 1)); // 10ms, 40ms
                let delay = base + rng.gen_index(base as usize + 1) as u64;
                eprintln!(
                    "warning: {what} write failed (attempt {attempt}/{ATTEMPTS}): {e}; \
                     retrying in {delay}ms"
                );
                std::thread::sleep(Duration::from_millis(delay));
            }
        }
    }
}

/// Builds a payload in the container's little-endian encoding.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Four bytes, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Eight bytes, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// A `usize`, stored as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// A bool, as one byte 0 or 1.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    /// A presence flag, then the value when present.
    pub fn opt_usize(&mut self, v: Option<usize>) {
        self.bool(v.is_some());
        if let Some(x) = v {
            self.usize(x);
        }
    }
    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
    /// A length-prefixed list, each element written by `item`.
    pub fn list<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for x in items {
            item(self, x);
        }
    }
}

/// Decodes a payload checked by [`Format::open`]. Every read past the
/// end is [`ErrorKind::Truncated`] and every invalid value
/// [`ErrorKind::Corrupt`], never a panic.
#[derive(Debug)]
pub struct Reader<'a> {
    format: &'static Format,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A [`ErrorKind::Corrupt`] error about this payload, for checks the
    /// caller's layout adds.
    pub(crate) fn corrupt(&self, what: impl Into<String>) -> Error {
        self.format.error(ErrorKind::Corrupt(what.into()))
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        let end = end.ok_or(self.format.error(ErrorKind::Truncated))?;
        let bytes = &self.buf[self.pos..end];
        self.pos = end;
        Ok(bytes)
    }
    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Error> {
        Ok(self.take(1)?[0])
    }
    /// Four bytes, little-endian.
    pub fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4 bytes"),
        ))
    }
    /// Eight bytes, little-endian.
    pub fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }
    /// A `usize` stored as a `u64`.
    pub fn usize(&mut self) -> Result<usize, Error> {
        usize::try_from(self.u64()?).map_err(|_| self.corrupt("value exceeds usize"))
    }
    /// A bool: exactly 0 or 1.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.corrupt(format!("invalid bool byte {b}"))),
        }
    }
    /// A presence flag, then the value when present.
    pub fn opt_usize(&mut self) -> Result<Option<usize>, Error> {
        self.bool()?.then(|| self.usize()).transpose()
    }
    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, Error> {
        let n = self.usize()?;
        let bytes = self.take(n)?.to_vec();
        String::from_utf8(bytes).map_err(|_| self.corrupt("invalid UTF-8 string"))
    }
    /// A length-prefixed list, each element read by `item`. The declared
    /// length only bounds the loop: memory grows with the elements
    /// actually read.
    pub fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, Error>,
    ) -> Result<Vec<T>, Error> {
        let n = self.usize()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST: Format = Format {
        magic: b"ICBTESTv",
        version: 1,
        name: "test file",
        version_advice: "",
    };

    #[test]
    fn open_rejects_a_damaged_frame_and_trailing_bytes() {
        let mut w = Writer::default();
        w.str("payload");
        let bytes = TEST.seal(&w.into_bytes());
        let kind = |bytes: &[u8]| TEST.open(bytes, |_| Ok(())).unwrap_err().kind;
        let mut flipped = bytes.clone();
        flipped[bytes.len() - 1] ^= 0xff;
        assert_eq!(kind(&flipped), ErrorKind::ChecksumMismatch);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(kind(&bad_magic), ErrorKind::BadMagic);
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(kind(&future), ErrorKind::UnsupportedVersion(99));
        for cut in 0..bytes.len() {
            assert_eq!(kind(&bytes[..cut]), ErrorKind::Truncated, "cut at {cut}");
        }
        assert_eq!(TEST.open(&bytes, |r| r.str()), Ok("payload".into()));
        let err = TEST.open(&bytes, |r| r.u8()).unwrap_err();
        assert_eq!(err.to_string(), "test file is corrupted (trailing bytes)");
    }

    #[test]
    fn returns_first_success_without_retry() {
        let mut calls = 0;
        let out: Result<u32, String> = with_backoff("test op", || {
            calls += 1;
            Ok(7)
        });
        assert_eq!(out, Ok(7));
        assert_eq!(calls, 1);
    }

    #[test]
    fn retries_transient_failures_then_succeeds() {
        let mut calls = 0;
        let out: Result<u32, String> = with_backoff("test op", || {
            calls += 1;
            if calls < 3 {
                Err("transient".to_string())
            } else {
                Ok(9)
            }
        });
        assert_eq!(out, Ok(9));
        assert_eq!(calls, 3);
    }

    #[test]
    fn exhausts_attempts_and_returns_last_error() {
        let mut calls = 0;
        let out: Result<u32, String> = with_backoff("test op", || {
            calls += 1;
            Err(format!("fail {calls}"))
        });
        assert_eq!(out, Err("fail 3".to_string()));
        assert_eq!(calls, ATTEMPTS as usize);
    }
}
