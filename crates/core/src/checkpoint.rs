//! Versioned, checksummed binary checkpoints of detector state.
//!
//! A checkpoint captures everything [`crate::detector::Enld`] needs to
//! continue after a crash: the general model `θ` (tensors *and* SGD
//! momentum), the estimated conditional `P̃`, the high-quality set `H`,
//! the accumulated clean-inventory selection `S_c`, the task/update
//! counters that drive every derived RNG seed — and, when a detection
//! task was in flight, the task itself: [`InFlightTask`] is the state
//! `Enld::detect` mutates while it runs, encoded by reference at every
//! boundary (fine-tuned `θ'`, contrastive set `C`, ambiguous set `A`,
//! sticky clean flags `S`, inventory vote tallies, pseudo-label votes,
//! per-iteration history and the audit trace).
//!
//! # Format
//!
//! ```text
//! magic "ENLDCKPT" · version u32 · payload_len u64 · fnv1a64(payload) · payload
//! ```
//!
//! All integers are little-endian; floats are stored as their IEEE-754
//! bit patterns so a restore is bit-exact. [`Checkpoint::save_atomic`]
//! writes to a `<file>.tmp` sibling and renames over the target, so a
//! crash mid-write can never corrupt the previous checkpoint; a leftover
//! `.tmp` file is simply ignored by [`Checkpoint::load`].

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use enld_datagen::Dataset;
use enld_nn::dense::Dense;

use crate::config::EnldConfig;
use crate::ledger::{ContrastDraw, SampleDraw};
use crate::report::IterationSnapshot;
use crate::sampling::{ContrastSample, SampleSource};

/// File magic, first 8 bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"ENLDCKPT";
/// Current format version; bump on any encoding change.
/// v2 added the optional serialized ANN index blob.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Why a checkpoint could not be written, read, or applied.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io(io::Error),
    /// The bytes are not a valid checkpoint (bad magic, unsupported
    /// version, checksum mismatch, or truncation).
    Format(String),
    /// The checkpoint is valid but belongs to a different configuration,
    /// inventory, or incremental dataset.
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            Self::Format(m) => write!(f, "invalid checkpoint: {m}"),
            Self::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Raw parts of a [`crate::probability::ConditionalLabelProbability`].
#[derive(Debug, Clone, PartialEq)]
pub struct CondState {
    pub classes: usize,
    pub joint: Vec<u64>,
    pub cond: Vec<f64>,
}

/// Per-task audit state gathered while a ledger is attached, folded into
/// `SampleRecord`s at the end of `Enld::detect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskTrace {
    /// `votes[sample][iteration][step]`: did `θ'` agree with the observed
    /// label at that step?
    pub votes: Vec<Vec<Vec<bool>>>,
    pub ambiguous_initial: Vec<bool>,
    /// Iterations after which the sample was still ambiguous.
    pub still_ambiguous: Vec<Vec<usize>>,
    /// Contrastive draws per sample across selection rounds.
    pub draws: Vec<Vec<SampleDraw>>,
}

impl TaskTrace {
    pub(crate) fn new(samples: usize, iterations: usize, steps: usize) -> Self {
        Self {
            votes: vec![vec![vec![false; steps]; iterations]; samples],
            ambiguous_initial: vec![false; samples],
            still_ambiguous: vec![Vec::new(); samples],
            draws: vec![Vec::new(); samples],
        }
    }

    /// Files one selection round's [`ContrastDraw`]s under their samples
    /// (`round` is −1 for the pre-warm-up selection, else the iteration).
    pub(crate) fn absorb_draws(&mut self, round: i64, draws: Vec<ContrastDraw>) {
        for draw in draws {
            self.draws[draw.sample].push(SampleDraw {
                round,
                candidate: draw.candidate,
                neighbors: draw.neighbors,
            });
        }
    }
}

/// The mutable state of one detection task: what `Enld::detect` carries
/// from phase to phase, what a checkpoint encodes at every boundary, and
/// what `Enld::resume_from` parks until the matching dataset arrives.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InFlightTask {
    /// Fingerprint of the incremental dataset `D` being processed.
    pub d_fp: u64,
    /// First iteration of Alg. 3 that has *not* completed yet.
    pub next_iteration: usize,
    pub warmup_val_acc: f32,
    pub ambiguous_initial: usize,
    /// The fine-tuned model `θ'` (with momentum) as of the last
    /// checkpointed boundary, as its layer walk
    /// ([`Mlp::layers`](enld_nn::model::Mlp::layers)); between
    /// boundaries the live `Mlp` that `detect` trains is ahead of it.
    pub theta: Vec<Dense>,
    pub contrast: Vec<ContrastSample>,
    pub ambiguous: Vec<usize>,
    /// Sticky clean-set membership `S` over `D`.
    pub in_s: Vec<bool>,
    /// Inventory clean-vote tallies `count_c` over `I_c`.
    pub count_c: Vec<usize>,
    /// Pseudo-label votes for missing-label samples (empty when labelled).
    pub pseudo_votes: Vec<Vec<u32>>,
    pub history: Vec<IterationSnapshot>,
    /// Present only while a ledger is attached.
    pub trace: Option<TaskTrace>,
}

/// A complete, self-validating snapshot of detector state.
///
/// The general model (its layer walk) and the in-flight section are
/// borrowed when the checkpoint is captured from a running detector (so
/// persisting encodes straight from the live state) and owned when it was
/// loaded from bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<'a> {
    /// Fingerprint of the [`EnldConfig`] the detector was built with.
    pub config_fp: u64,
    /// Fingerprint of the inventory dataset passed to `Enld::init`.
    pub inventory_fp: u64,
    pub tasks: usize,
    pub updates: usize,
    pub setup_secs: f64,
    pub hq: Vec<usize>,
    pub sc_accum: Vec<bool>,
    pub cond: CondState,
    pub model: Cow<'a, [Dense]>,
    pub in_flight: Option<Cow<'a, InFlightTask>>,
    /// Serialized HNSW index over the high-quality set (`--index hnsw`
    /// runs only). Opaque, internally checksummed `enld-ann` blob;
    /// `None` for the exact backend. Restoring it on `--resume` skips
    /// the index rebuild entirely.
    pub ann: Option<Vec<u8>>,
}

impl Checkpoint<'_> {
    /// Serialises to the framed binary format (magic/version/checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Enc::default();
        self.encode(&mut payload);
        let payload = payload.buf;
        let mut out = Vec::with_capacity(payload.len() + 28);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses and validates a framed checkpoint.
    ///
    /// # Errors
    /// [`CheckpointError::Format`] on bad magic, unsupported version,
    /// length/checksum mismatch, or a truncated payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint<'static>, CheckpointError> {
        if bytes.len() < 28 {
            return Err(CheckpointError::Format("file shorter than the header".into()));
        }
        if bytes[..8] != MAGIC {
            return Err(CheckpointError::Format("bad magic (not an ENLD checkpoint)".into()));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Format(format!(
                "unsupported version {version} (this build reads {CHECKPOINT_VERSION})"
            )));
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let sum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let payload = &bytes[28..];
        if payload.len() != len {
            return Err(CheckpointError::Format(format!(
                "payload length {} does not match header {len}",
                payload.len()
            )));
        }
        if fnv1a64(payload) != sum {
            return Err(CheckpointError::Format("checksum mismatch (corrupt payload)".into()));
        }
        let mut dec = Dec { bytes: payload, pos: 0 };
        let ckpt = Checkpoint::decode(&mut dec)?;
        if dec.pos != payload.len() {
            return Err(CheckpointError::Format("trailing bytes after payload".into()));
        }
        Ok(ckpt)
    }

    /// Writes the checkpoint durably: serialise, write a `.tmp` sibling,
    /// rename over `path`. A crash at any point leaves either the old
    /// checkpoint or the new one — never a torn file.
    ///
    /// # Errors
    /// Filesystem failures (including injected ones at the
    /// `checkpoint.write` / `checkpoint.rename` failpoints); on error the
    /// `.tmp` sibling is removed best-effort and `path` is untouched.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        let bytes = self.to_bytes();
        let tmp = tmp_path(path);
        let result = (|| {
            enld_chaos::fail_point_io("checkpoint.write")?;
            fs::write(&tmp, &bytes)?;
            enld_chaos::fail_point_io("checkpoint.rename")?;
            fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Reads and validates a checkpoint from `path`. Any `.tmp` sibling
    /// left by an interrupted [`Checkpoint::save_atomic`] is ignored.
    ///
    /// # Errors
    /// I/O failures or an invalid file (see [`Checkpoint::from_bytes`]).
    pub fn load(path: &Path) -> Result<Checkpoint<'static>, CheckpointError> {
        let bytes = fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.config_fp);
        e.u64(self.inventory_fp);
        e.usize(self.tasks);
        e.usize(self.updates);
        e.f64(self.setup_secs);
        e.usize_slice(&self.hq);
        e.bool_slice(&self.sc_accum);
        e.usize(self.cond.classes);
        e.u64_slice(&self.cond.joint);
        e.f64_slice(&self.cond.cond);
        encode_model(e, &self.model);
        e.opt(self.in_flight.as_deref(), encode_in_flight);
        e.opt(self.ann.as_deref(), Enc::u8_slice);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Checkpoint<'static>, CheckpointError> {
        let config_fp = d.u64()?;
        let inventory_fp = d.u64()?;
        let tasks = d.usize()?;
        let updates = d.usize()?;
        let setup_secs = d.f64()?;
        let hq = d.usize_vec()?;
        let sc_accum = d.bool_vec()?;
        let classes = d.usize()?;
        let joint = d.u64_vec()?;
        let cond_rows = d.f64_vec()?;
        if joint.len() != classes * classes || cond_rows.len() != classes * classes {
            return Err(CheckpointError::Format("conditional matrix shape mismatch".into()));
        }
        let cond = CondState { classes, joint, cond: cond_rows };
        let model = Cow::Owned(decode_model(d)?);
        let in_flight = d.opt("in-flight", decode_in_flight)?.map(Cow::Owned);
        let ann = d.opt("ann-index", Dec::u8_vec)?;
        Ok(Checkpoint {
            config_fp,
            inventory_fp,
            tasks,
            updates,
            setup_secs,
            hq,
            sc_accum,
            cond,
            model,
            in_flight,
            ann,
        })
    }
}

/// The stored name of tensor `i` of `n`: redundant with its position in
/// the walk, derived here so the v2 byte layout stays what it was.
fn tensor_name(i: usize, n: usize) -> String {
    match i {
        0 => "embed".into(),
        _ if i + 1 == n => "head".into(),
        _ => format!("block{}.d{}", (i - 1) / 2, 1 + (i - 1) % 2),
    }
}

fn encode_model(e: &mut Enc, layers: &[Dense]) {
    e.usize(layers.len());
    for (i, layer) in layers.iter().enumerate() {
        let (w, b, vel_w, vel_b) = layer.parts();
        e.str(&tensor_name(i, layers.len()));
        e.usize(w.rows());
        e.usize(w.cols());
        e.f32_slice(w.data());
        e.f32_slice(b);
        e.f32_slice(vel_w);
        e.f32_slice(vel_b);
    }
}

fn decode_model(d: &mut Dec<'_>) -> Result<Vec<Dense>, CheckpointError> {
    let n = d.usize()?;
    let mut layers = Vec::with_capacity(n.min(1024));
    for i in 0..n {
        let name = d.str()?;
        if name != tensor_name(i, n) {
            return Err(CheckpointError::Format(format!("tensor {i} of {n} is named `{name}`")));
        }
        let (rows, cols) = (d.usize()?, d.usize()?);
        let (weights, bias) = (d.f32_vec()?, d.f32_vec()?);
        let (vel_w, vel_b) = (d.f32_vec()?, d.f32_vec()?);
        layers.push(
            Dense::from_parts(rows, cols, weights, bias, vel_w, vel_b).ok_or_else(|| {
                CheckpointError::Format(format!("tensor `{name}` shape mismatch"))
            })?,
        );
    }
    Ok(layers)
}

fn encode_in_flight(e: &mut Enc, t: &InFlightTask) {
    e.u64(t.d_fp);
    e.usize(t.next_iteration);
    e.f32(t.warmup_val_acc);
    e.usize(t.ambiguous_initial);
    encode_model(e, &t.theta);
    e.usize(t.contrast.len());
    for s in &t.contrast {
        match s.source {
            SampleSource::Inventory(i) => {
                e.u8(0);
                e.usize(i);
            }
            SampleSource::Incremental(i) => {
                e.u8(1);
                e.usize(i);
            }
        }
        e.u32(s.label);
    }
    e.usize_slice(&t.ambiguous);
    e.bool_slice(&t.in_s);
    e.usize_slice(&t.count_c);
    e.usize(t.pseudo_votes.len());
    for votes in &t.pseudo_votes {
        e.u32_slice(votes);
    }
    e.usize(t.history.len());
    for h in &t.history {
        e.usize(h.iteration);
        e.usize_slice(&h.clean_so_far);
        e.usize(h.ambiguous);
        e.usize(h.contrastive_size);
    }
    e.opt(t.trace.as_ref(), encode_trace);
}

fn decode_in_flight(d: &mut Dec<'_>) -> Result<InFlightTask, CheckpointError> {
    let d_fp = d.u64()?;
    let next_iteration = d.usize()?;
    let warmup_val_acc = d.f32()?;
    let ambiguous_initial = d.usize()?;
    let theta = decode_model(d)?;
    let n = d.usize()?;
    let mut contrast = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let source = match d.u8()? {
            0 => SampleSource::Inventory(d.usize()?),
            1 => SampleSource::Incremental(d.usize()?),
            other => {
                return Err(CheckpointError::Format(format!("bad sample-source tag {other}")));
            }
        };
        contrast.push(ContrastSample { source, label: d.u32()? });
    }
    let ambiguous = d.usize_vec()?;
    let in_s = d.bool_vec()?;
    let count_c = d.usize_vec()?;
    let n = d.usize()?;
    let mut pseudo_votes = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        pseudo_votes.push(d.u32_vec()?);
    }
    let n = d.usize()?;
    let mut history = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        history.push(IterationSnapshot {
            iteration: d.usize()?,
            clean_so_far: d.usize_vec()?,
            ambiguous: d.usize()?,
            contrastive_size: d.usize()?,
        });
    }
    let trace = d.opt("trace", decode_trace)?;
    Ok(InFlightTask {
        d_fp,
        next_iteration,
        warmup_val_acc,
        ambiguous_initial,
        theta,
        contrast,
        ambiguous,
        in_s,
        count_c,
        pseudo_votes,
        history,
        trace,
    })
}

fn encode_trace(e: &mut Enc, t: &TaskTrace) {
    // Width of a vote row: redundant with `votes`, kept so the v2 byte
    // layout stays what it was.
    e.usize(t.votes.first().and_then(|s| s.first()).map_or(0, Vec::len));
    e.usize(t.votes.len());
    for per_sample in &t.votes {
        e.usize(per_sample.len());
        for per_iter in per_sample {
            e.bool_slice(per_iter);
        }
    }
    e.bool_slice(&t.ambiguous_initial);
    e.usize(t.still_ambiguous.len());
    for v in &t.still_ambiguous {
        e.usize_slice(v);
    }
    e.usize(t.draws.len());
    for per_sample in &t.draws {
        e.usize(per_sample.len());
        for draw in per_sample {
            e.i64(draw.round);
            e.u32(draw.candidate);
            e.usize_slice(&draw.neighbors);
        }
    }
}

fn decode_trace(d: &mut Dec<'_>) -> Result<TaskTrace, CheckpointError> {
    let _vote_row_width = d.usize()?;
    let n = d.usize()?;
    let mut votes = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let iters = d.usize()?;
        let mut per_sample = Vec::with_capacity(iters.min(1 << 16));
        for _ in 0..iters {
            per_sample.push(d.bool_vec()?);
        }
        votes.push(per_sample);
    }
    let ambiguous_initial = d.bool_vec()?;
    let n = d.usize()?;
    let mut still_ambiguous = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        still_ambiguous.push(d.usize_vec()?);
    }
    let n = d.usize()?;
    let mut draws = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let m = d.usize()?;
        let mut per_sample = Vec::with_capacity(m.min(1 << 16));
        for _ in 0..m {
            per_sample.push(SampleDraw {
                round: d.i64()?,
                candidate: d.u32()?,
                neighbors: d.usize_vec()?,
            });
        }
        draws.push(per_sample);
    }
    Ok(TaskTrace { votes, ambiguous_initial, still_ambiguous, draws })
}

/// The `.tmp` sibling used by [`Checkpoint::save_atomic`].
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the checkpoint checksum and fingerprint hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Content fingerprint of a dataset: shape, features (bit patterns),
/// observed labels, and the missing mask. Sample ids and ground-truth
/// labels are evaluation metadata and deliberately excluded.
pub fn dataset_fingerprint(d: &Dataset) -> u64 {
    let mut h = Fnv::new();
    h.u64(d.len() as u64);
    h.u64(d.dim() as u64);
    h.u64(d.classes() as u64);
    for &x in d.xs() {
        h.write(&x.to_bits().to_le_bytes());
    }
    for &l in d.labels() {
        h.write(&l.to_le_bytes());
    }
    for &m in d.missing_mask() {
        h.write(&[m as u8]);
    }
    h.0
}

/// Fingerprint of a detector configuration (its full `Debug` rendering —
/// any field change invalidates existing checkpoints).
pub fn config_fingerprint(cfg: &EnldConfig) -> u64 {
    fnv1a64(format!("{cfg:?}").as_bytes())
}

// ---------------------------------------------------------------------------
// Little-endian encoder / decoder
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// An optional section: presence flag, then the section itself.
    fn opt<T: ?Sized>(&mut self, v: Option<&T>, encode: impl FnOnce(&mut Self, &T)) {
        self.u8(v.is_some() as u8);
        if let Some(v) = v {
            encode(self, v);
        }
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn u8_slice(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    fn bool_slice(&mut self, v: &[bool]) {
        self.usize(v.len());
        self.buf.extend(v.iter().map(|&b| b as u8));
    }

    fn u32_slice(&mut self, v: &[u32]) {
        self.usize(v.len());
        for &x in v {
            self.u32(x);
        }
    }

    fn u64_slice(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    fn usize_slice(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }

    fn f32_slice(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }

    fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Dec<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CheckpointError::Format("truncated payload".into()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// An optional section written by [`Enc::opt`].
    fn opt<T>(
        &mut self,
        what: &str,
        decode: impl FnOnce(&mut Self) -> Result<T, CheckpointError>,
    ) -> Result<Option<T>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => decode(self).map(Some),
            other => Err(CheckpointError::Format(format!("bad {what} flag {other}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64, CheckpointError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Format(format!("size {v} overflows")))
    }

    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix, bounded by the bytes actually remaining so
    /// a corrupt length cannot trigger a huge allocation.
    fn len_prefix(&mut self, elem_size: usize) -> Result<usize, CheckpointError> {
        let n = self.usize()?;
        let remaining = self.bytes.len() - self.pos;
        if n.checked_mul(elem_size.max(1)).is_none_or(|total| total > remaining) {
            return Err(CheckpointError::Format("length prefix exceeds payload".into()));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CheckpointError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Format("non-UTF-8 string".into()))
    }

    fn u8_vec(&mut self) -> Result<Vec<u8>, CheckpointError> {
        let n = self.len_prefix(1)?;
        Ok(self.take(n)?.to_vec())
    }

    fn bool_vec(&mut self) -> Result<Vec<bool>, CheckpointError> {
        let n = self.len_prefix(1)?;
        let bytes = self.take(n)?;
        bytes
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                other => Err(CheckpointError::Format(format!("bad bool byte {other}"))),
            })
            .collect()
    }

    fn u32_vec(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.len_prefix(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn u64_vec(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    fn usize_vec(&mut self) -> Result<Vec<usize>, CheckpointError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.usize()).collect()
    }

    fn f32_vec(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.len_prefix(4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    fn f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint<'static> {
        Checkpoint {
            config_fp: 0xDEAD_BEEF,
            inventory_fp: 42,
            tasks: 3,
            updates: 1,
            setup_secs: 1.25,
            hq: vec![0, 2, 5],
            sc_accum: vec![true, false, true],
            cond: CondState {
                classes: 2,
                joint: vec![3, 1, 0, 2],
                cond: vec![0.75, 0.25, 0.0, 1.0],
            },
            model: Cow::Owned(vec![Dense::from_parts(
                2,
                3,
                vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6],
                vec![0.0, 1.0, 2.0],
                vec![0.0; 6],
                vec![0.5, 0.5, 0.5],
            )
            .expect("one 2x3 layer")]),
            in_flight: Some(Cow::Owned(InFlightTask {
                d_fp: 7,
                next_iteration: 2,
                warmup_val_acc: 0.875,
                ambiguous_initial: 4,
                theta: Vec::new(),
                contrast: vec![
                    ContrastSample { source: SampleSource::Inventory(3), label: 1 },
                    ContrastSample { source: SampleSource::Incremental(0), label: 0 },
                ],
                ambiguous: vec![1, 4],
                in_s: vec![false, true, false],
                count_c: vec![2, 0, 1],
                pseudo_votes: vec![vec![], vec![1, 2], vec![]],
                history: vec![IterationSnapshot {
                    iteration: 0,
                    clean_so_far: vec![1],
                    ambiguous: 4,
                    contrastive_size: 8,
                }],
                trace: Some(TaskTrace {
                    votes: vec![vec![vec![true, false], vec![false, false]]],
                    ambiguous_initial: vec![true],
                    still_ambiguous: vec![vec![0]],
                    draws: vec![vec![SampleDraw {
                        round: -1,
                        candidate: 1,
                        neighbors: vec![3, 9],
                    }]],
                }),
            })),
            ann: Some(vec![0xEE, 0x00, 0x7F]),
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("valid");
        assert_eq!(back, ckpt);
    }

    /// The layout proof: a blob the previous release wrote — a
    /// ledger-attached task stopped between iterations, so the in-flight
    /// and trace sections are both present — decodes into the one task
    /// type and re-encodes to the same bytes.
    #[test]
    fn committed_v2_fixture_round_trips_byte_identically() {
        let blob = include_bytes!("../../../tests/fixtures/ckpt_v2_in_flight.bin");
        let ckpt = Checkpoint::from_bytes(blob).expect("fixture decodes");
        let task = ckpt.in_flight.as_deref().expect("fixture carries a task in flight");
        assert_eq!(task.next_iteration, 2, "stopped after the second iteration");
        assert_eq!(task.history.len(), 2);
        let trace = task.trace.as_ref().expect("a ledger was attached");
        assert_eq!(trace.votes.len(), task.in_s.len());
        assert!(trace.draws.iter().flatten().any(|d| d.round == -1));
        assert!(trace.draws.iter().flatten().any(|d| d.round >= 0));
        assert!(task.pseudo_votes.iter().any(|v| !v.is_empty()), "missing labels present");
        assert_eq!(ckpt.to_bytes(), blob);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[0] ^= 0xFF;
        let err = Checkpoint::from_bytes(&bytes).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("magic")), "{err}");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = sample_checkpoint().to_bytes();
        bytes[8] = CHECKPOINT_VERSION as u8 + 1;
        let err = Checkpoint::from_bytes(&bytes).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("version")), "{err}");
    }

    #[test]
    fn checksum_mismatch_is_rejected() {
        let mut bytes = sample_checkpoint().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = Checkpoint::from_bytes(&bytes).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("checksum")), "{err}");
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in [0, 10, 27, bytes.len() / 2, bytes.len() - 1] {
            assert!(Checkpoint::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        // Valid frame, valid checksum, but extra payload bytes the decoder
        // never consumed (header length + checksum recomputed to match).
        let ckpt = sample_checkpoint();
        let mut payload = {
            let mut e = Enc::default();
            ckpt.encode(&mut e);
            e.buf
        };
        payload.push(0);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = Checkpoint::from_bytes(&bytes).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("trailing")), "{err}");
    }

    #[test]
    fn corrupt_length_prefix_cannot_over_allocate() {
        // A huge length prefix inside the payload must fail cleanly (the
        // checksum is recomputed so only the decoder can object).
        let mut e = Enc::default();
        e.u64(1); // config_fp
        e.u64(2); // inventory_fp
        e.usize(0); // tasks
        e.usize(0); // updates
        e.f64(0.0); // setup_secs
        e.u64(u64::MAX); // hq length: absurd
        let payload = e.buf;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    /// Frames `payload` with a valid header, so only the decoder can object.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    /// A payload up to and including the model section's tensor count.
    fn payload_up_to_model(tensors: usize) -> Enc {
        let mut e = Enc::default();
        e.u64(1); // config_fp
        e.u64(2); // inventory_fp
        e.usize(0); // tasks
        e.usize(0); // updates
        e.f64(0.0); // setup_secs
        e.usize_slice(&[]); // hq
        e.bool_slice(&[]); // sc_accum
        e.usize(0); // cond.classes
        e.u64_slice(&[]); // cond.joint
        e.f64_slice(&[]); // cond.cond
        e.usize(tensors);
        e
    }

    #[test]
    fn tensor_shape_product_overflow_is_a_format_error() {
        // 2⁶³ × 2 wraps to 0 — the length of the (empty) weight vector.
        let mut e = payload_up_to_model(1);
        e.str("embed");
        e.usize(1 << 63);
        e.usize(2);
        e.f32_slice(&[]); // weights
        e.f32_slice(&[0.0, 0.0]); // bias
        e.f32_slice(&[]); // vel_w
        e.f32_slice(&[0.0, 0.0]); // vel_b
        let err = Checkpoint::from_bytes(&framed(&e.buf)).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("shape")), "{err}");
    }

    #[test]
    fn tensor_name_out_of_position_is_a_format_error() {
        let mut e = payload_up_to_model(2);
        for name in ["head", "embed"] {
            e.str(name);
            e.usize(1);
            e.usize(1);
            for _ in 0..4 {
                e.f32_slice(&[0.0]);
            }
        }
        let err = Checkpoint::from_bytes(&framed(&e.buf)).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("`head`")), "{err}");
    }

    #[test]
    fn save_atomic_and_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("enld-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("round_trip.ckpt");
        let ckpt = sample_checkpoint();
        ckpt.save_atomic(&path).expect("save");
        assert!(!tmp_path(&path).exists(), "tmp sibling must be renamed away");
        let back = Checkpoint::load(&path).expect("load");
        assert_eq!(back, ckpt);
        let _ = fs::remove_file(&path);
    }

    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn leftover_tmp_file_is_ignored_and_failed_write_keeps_old_checkpoint() {
        let _s = enld_chaos::scenario();
        let dir = std::env::temp_dir().join(format!("enld-ckpt-tmp-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("atomic.ckpt");
        let old = sample_checkpoint();
        old.save_atomic(&path).expect("save old");
        // Simulate a crash that left garbage in the tmp sibling.
        fs::write(tmp_path(&path), b"torn half-written junk").expect("write tmp");
        assert_eq!(Checkpoint::load(&path).expect("tmp ignored"), old);

        // An injected failure before the rename must leave the old
        // checkpoint untouched and clean up the sibling.
        let mut new = sample_checkpoint();
        new.tasks = 99;
        enld_chaos::arm(
            "checkpoint.rename",
            enld_chaos::Action::Error,
            enld_chaos::Trigger::Nth(1),
        );
        assert!(new.save_atomic(&path).is_err(), "injected rename failure");
        assert!(!tmp_path(&path).exists(), "tmp removed after failure");
        assert_eq!(Checkpoint::load(&path).expect("old survives"), old);

        // And an injected failure before the write as well.
        enld_chaos::arm("checkpoint.write", enld_chaos::Action::Error, enld_chaos::Trigger::Nth(1));
        assert!(new.save_atomic(&path).is_err(), "injected write failure");
        assert_eq!(Checkpoint::load(&path).expect("old survives").tasks, old.tasks);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        use enld_datagen::Dataset;
        let d = Dataset::new(vec![0.0, 1.0, 2.0, 3.0], vec![0, 1], 2, 2);
        let fp = dataset_fingerprint(&d);
        assert_eq!(fp, dataset_fingerprint(&d), "stable");
        let d2 = Dataset::new(vec![0.0, 1.0, 2.0, 3.5], vec![0, 1], 2, 2);
        assert_ne!(fp, dataset_fingerprint(&d2), "feature change detected");
        let d3 = Dataset::new(vec![0.0, 1.0, 2.0, 3.0], vec![0, 0], 2, 2);
        assert_ne!(fp, dataset_fingerprint(&d3), "label change detected");

        let cfg = crate::config::EnldConfig::fast_test();
        let mut other = cfg;
        other.k += 1;
        assert_eq!(config_fingerprint(&cfg), config_fingerprint(&cfg));
        assert_ne!(config_fingerprint(&cfg), config_fingerprint(&other));
    }
}
