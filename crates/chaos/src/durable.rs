//! The one home of every durable byte format: the little-endian codec
//! ([`Enc`] / [`Dec`]), the FNV-1a checksum ([`Fnv`]), the checksummed
//! frame ([`seal`] / [`open`]) and the atomic file replace
//! ([`write_atomic`]).
//!
//! The detector checkpoint (`ENLDCKPT`) is a sealed frame, as is the ANN
//! index blob (`ENLDANNX`) the benchmark sizes; the checkpoint and the
//! metrics snapshot are published with [`write_atomic`]. A frame is
//!
//! ```text
//! magic [u8; 8] · version u32 · payload_len u64 · fnv1a64(payload) u64 · payload
//! ```
//!
//! Every integer is little-endian, every float is stored as its IEEE-754
//! bit pattern (a decode is bit-exact), and every slice or sequence
//! carries a `u64` length prefix that is checked against the bytes
//! remaining before anything is allocated.
//!
//! ```
//! use enld_chaos::durable::{open, seal, Dec, Enc};
//!
//! let mut enc = Enc::default();
//! enc.u32(7);
//! enc.f32_slice(&[1.5, -0.25]);
//! let blob = seal(b"EXAMPLE!", 1, &enc.finish());
//! let mut dec = Dec::new(open(b"EXAMPLE!", 1, &blob).unwrap());
//! assert_eq!((dec.u32(), dec.f32_vec()), (Ok(7), Ok(vec![1.5, -0.25])));
//! assert!(dec.finish().is_ok() && open(b"EXAMPLE!", 2, &blob).is_err());
//! ```

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Bytes in front of a sealed payload: magic, version, length, checksum.
pub const HEADER_LEN: usize = 28;

/// Incremental FNV-1a 64 hasher: the frame checksum and every content
/// fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.finish()
}

/// Little-endian encoder into a growing buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A length-prefixed sequence, each item written by `item`.
    pub fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for x in items {
            item(self, x);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u8_slice(s.as_bytes());
    }

    pub fn u8_slice(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    pub fn bool_slice(&mut self, v: &[bool]) {
        self.usize(v.len());
        self.buf.extend(v.iter().map(|&b| b as u8));
    }

    pub fn u32_slice(&mut self, v: &[u32]) {
        self.seq(v, |e, &x| e.u32(x));
    }

    pub fn u64_slice(&mut self, v: &[u64]) {
        self.seq(v, |e, &x| e.u64(x));
    }

    pub fn usize_slice(&mut self, v: &[usize]) {
        self.seq(v, |e, &x| e.usize(x));
    }

    pub fn f32_slice(&mut self, v: &[f32]) {
        self.seq(v, |e, &x| e.f32(x));
    }

    pub fn f64_slice(&mut self, v: &[f64]) {
        self.seq(v, |e, &x| e.f64(x));
    }
}

/// Little-endian decoder over a borrowed payload, the mirror of [`Enc`];
/// every error is a message naming what was wrong.
#[derive(Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not consumed yet.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Ends the decode.
    ///
    /// # Errors
    /// When bytes are left over.
    pub fn finish(self) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after payload")),
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!("truncated payload: wanted {n} bytes, {} left", self.remaining()));
        }
        self.pos += n;
        Ok(&self.bytes[self.pos - n..self.pos])
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn i64(&mut self) -> Result<i64, String> {
        self.array().map(i64::from_le_bytes)
    }

    #[inline]
    pub fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("size {v} overflows usize"))
    }

    #[inline]
    pub fn f32(&mut self) -> Result<f32, String> {
        self.u32().map(f32::from_bits)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, String> {
        self.u64().map(f64::from_bits)
    }

    /// A sequence written by [`Enc::seq`], each item read by `item`. No
    /// item encodes to zero bytes, so the bytes left bound the up-front
    /// allocation a corrupt count could ask for.
    pub fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let n = self.usize()?;
        let mut out = Vec::with_capacity(n.min(self.remaining()));
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A length prefix of `elem_size`-byte elements, bounded by the bytes
    /// left so a corrupt length cannot trigger a huge allocation.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, String> {
        let n = self.usize()?;
        if n.checked_mul(elem_size).is_none_or(|total| total > self.remaining()) {
            return Err(format!("length prefix {n} exceeds the {} bytes left", self.remaining()));
        }
        Ok(n)
    }

    /// A length-prefixed run of `N`-byte elements, converted by `from`.
    fn fixed_vec<T, const N: usize>(
        &mut self,
        from: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, String> {
        let n = self.len_prefix(N)?;
        let raw = self.take(n * N)?;
        Ok(raw.chunks_exact(N).map(|c| from(c.try_into().expect("N-byte chunk"))).collect())
    }

    pub fn str(&mut self) -> Result<String, String> {
        String::from_utf8(self.u8_vec()?).map_err(|_| "non-UTF-8 string".to_owned())
    }

    pub fn u8_vec(&mut self) -> Result<Vec<u8>, String> {
        let n = self.len_prefix(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Booleans are exactly 0 or 1; any other byte is corruption.
    pub fn bool_vec(&mut self) -> Result<Vec<bool>, String> {
        let n = self.len_prefix(1)?;
        self.take(n)?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(format!("bad bool byte {other}")),
            })
            .collect()
    }

    pub fn u32_vec(&mut self) -> Result<Vec<u32>, String> {
        self.fixed_vec(u32::from_le_bytes)
    }

    pub fn u64_vec(&mut self) -> Result<Vec<u64>, String> {
        self.fixed_vec(u64::from_le_bytes)
    }

    pub fn usize_vec(&mut self) -> Result<Vec<usize>, String> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    pub fn f32_vec(&mut self) -> Result<Vec<f32>, String> {
        self.fixed_vec(f32::from_le_bytes)
    }

    pub fn f64_vec(&mut self) -> Result<Vec<f64>, String> {
        self.fixed_vec(f64::from_le_bytes)
    }
}

/// Frames `payload` behind the 28-byte header (see the module docs).
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a frame written by [`seal`] and returns its payload.
///
/// # Errors
/// A distinct message for a short header, bad magic, another version, a
/// length that disagrees with the header, and a checksum mismatch.
pub fn open<'a>(magic: &[u8; 8], version: u32, bytes: &'a [u8]) -> Result<&'a [u8], String> {
    let kind = String::from_utf8_lossy(magic);
    if bytes.len() < HEADER_LEN {
        return Err(format!("{} bytes is shorter than the {kind} header", bytes.len()));
    }
    let (header, payload) = bytes.split_at(HEADER_LEN);
    let mut header = Dec::new(header);
    if header.take(8)? != magic {
        return Err(format!("bad magic (not an {kind} blob)"));
    }
    let found = header.u32()?;
    if found != version {
        return Err(format!("unsupported {kind} version {found} (this build reads {version})"));
    }
    let len = header.u64()?;
    if payload.len() as u64 != len {
        return Err(format!("payload length {} does not match header {len}", payload.len()));
    }
    if fnv1a64(payload) != header.u64()? {
        return Err("checksum mismatch (corrupt payload)".to_owned());
    }
    Ok(payload)
}

/// Replaces `path` with `bytes` so that a crash or a power loss at any
/// point leaves either the old file or the new one, never a torn one: the
/// bytes go to a `<file>.tmp` sibling, which is synced to disk and then
/// renamed over `path`, and the rename is made durable by syncing the
/// parent directory. The failpoints `<site>.write` and `<site>.rename`
/// guard the two steps.
///
/// # Errors
/// Filesystem failures, injected ones included. A failure up to and
/// including the rename removes the `.tmp` sibling (best effort) and
/// leaves `path` untouched; a failed directory sync after it is reported
/// with the new file in place.
pub fn write_atomic(path: &Path, bytes: &[u8], site: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        crate::fail_point_io(&format!("{site}.write"))?;
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        crate::fail_point_io(&format!("{site}.rename"))?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_slices_round_trip() {
        let mut enc = Enc::default();
        enc.u8(0xAB);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX - 1);
        enc.i64(-3);
        enc.f32(-0.0);
        enc.f64(f64::NAN);
        enc.str("θ′");
        enc.f32_slice(&[1.5, -2.25]);
        enc.f64_slice(&[0.125]);
        enc.u32_slice(&[1, 2, 3]);
        enc.u64_slice(&[u64::MAX]);
        enc.usize_slice(&[9, 8]);
        enc.bool_slice(&[true, false, true]);
        enc.u8_slice(&[0xAA, 0xBB]);
        let bytes = enc.finish();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8().unwrap(), 0xAB);
        assert_eq!(dec.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.i64().unwrap(), -3);
        assert_eq!(dec.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(dec.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(dec.str().unwrap(), "θ′");
        assert_eq!(dec.f32_vec().unwrap(), [1.5, -2.25]);
        assert_eq!(dec.f64_vec().unwrap(), [0.125]);
        assert_eq!(dec.u32_vec().unwrap(), [1, 2, 3]);
        assert_eq!(dec.u64_vec().unwrap(), [u64::MAX]);
        assert_eq!(dec.usize_vec().unwrap(), [9, 8]);
        assert_eq!(dec.bool_vec().unwrap(), [true, false, true]);
        assert_eq!(dec.u8_vec().unwrap(), [0xAA, 0xBB]);
        dec.finish().unwrap();
    }

    #[test]
    fn truncation_bad_lengths_bools_flags_and_trailing_bytes_are_rejected() {
        assert!(Dec::new(&[1, 2]).u32().is_err());
        // A length prefix claiming more elements than bytes remain, and
        // one whose byte count overflows.
        for claimed in [1u64 << 40, u64::MAX] {
            let mut enc = Enc::default();
            enc.u64(claimed);
            let bytes = enc.finish();
            assert!(Dec::new(&bytes).f32_vec().is_err());
            assert!(Dec::new(&bytes).usize_vec().is_err());
        }
        let mut enc = Enc::default();
        enc.u8_slice(&[0, 1, 2]);
        let bytes = enc.finish();
        let err = Dec::new(&bytes).bool_vec().unwrap_err();
        assert!(err.contains("bool byte 2"), "{err}");
        let mut dec = Dec::new(&[0, 0]);
        dec.u8().unwrap();
        assert!(dec.finish().unwrap_err().contains("1 trailing"));
    }

    #[test]
    fn fnv_matches_reference_vectors_incrementally() {
        // FNV-1a("a") from the reference implementation.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.write(b"ab");
        h.u64(7);
        let mut whole = b"ab".to_vec();
        whole.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(h.finish(), fnv1a64(&whole));
    }

    #[test]
    fn open_names_each_frame_fault() {
        let blob = seal(b"TESTBLOB", 3, b"payload");
        assert_eq!(blob.len(), HEADER_LEN + 7);
        assert_eq!(open(b"TESTBLOB", 3, &blob).unwrap(), b"payload");
        let fault = |bytes: &[u8]| open(b"TESTBLOB", 3, bytes).unwrap_err();
        assert!(fault(&blob[..HEADER_LEN - 1]).contains("shorter"));
        let mut magic = blob.clone();
        magic[0] ^= 0xFF;
        assert!(fault(&magic).contains("magic"));
        assert!(open(b"TESTBLOB", 4, &blob).unwrap_err().contains("version 3"));
        assert!(fault(&blob[..blob.len() - 1]).contains("length"));
        let mut flipped = blob.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(fault(&flipped).contains("checksum"));
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("enld-durable-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn write_atomic_publishes_and_leaves_no_tmp() {
        let dir = scratch_dir("ok");
        let path = dir.join("state.bin");
        write_atomic(&path, b"one", "tests.durable.ok").expect("first write");
        write_atomic(&path, b"two", "tests.durable.ok").expect("replace");
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("state.bin.tmp").exists(), "tmp sibling renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_failure_at_either_site_keeps_the_target_and_drops_the_tmp() {
        let dir = scratch_dir("fail");
        let path = dir.join("state.bin");
        write_atomic(&path, b"old", "tests.durable.fail").expect("seed the target");
        for step in ["write", "rename"] {
            let _s = crate::scenario_with(&format!("tests.durable.fail.{step}=error@nth:1"));
            let err = write_atomic(&path, b"new", "tests.durable.fail").expect_err(step);
            assert!(err.to_string().contains(step), "{err}");
            assert_eq!(fs::read(&path).unwrap(), b"old", "{step}: previous target intact");
            assert!(!dir.join("state.bin.tmp").exists(), "{step}: no tmp left behind");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
