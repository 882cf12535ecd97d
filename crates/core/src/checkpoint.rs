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
//! Payloads in the `enld_chaos::durable` codec, sealed in its
//! checksummed frames, so a restore is bit-exact. On disk a checkpoint
//! is two files:
//!
//! * **the base**, `<path>`: a v3 frame under magic `ENLDCKPT` holding
//!   everything but a task in flight, with `tasks` counting completed
//!   tasks only. It changes only at task and update boundaries.
//! * **the part**, `<path>.task`: a frame under magic
//!   `ENLDTASK` whose payload is the base frame's checksum, the task's
//!   number and the [`InFlightTask`]. Inside a task only `θ'` and the
//!   task change, so only the part is rewritten at its boundaries.
//!
//! [`Checkpoint::load`] attaches the part only when it binds to the base
//! beside it: same checksum, and task number = `tasks + 1`. A part that
//! does not bind belongs to a superseded base and is ignored. The
//! single-frame form ([`Checkpoint::to_bytes`]), which may carry its
//! in-flight section inline, still loads as before.
//! [`Checkpoint::save_atomic`] publishes each file with
//! `durable::write_atomic`, so a crash mid-write can never corrupt the
//! previous one; a leftover `.tmp` file is simply ignored.

use std::borrow::Cow;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use enld_chaos::durable::{self, Dec, Enc, Fnv};
use enld_datagen::Dataset;
use enld_nn::dense::Dense;

use crate::config::EnldConfig;
use crate::ledger::{ContrastDraw, SampleDraw};
use crate::report::IterationSnapshot;
use crate::sampling::{ContrastSample, SampleSource};

/// File magic, first 8 bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"ENLDCKPT";
/// Current format version; bump on any encoding change.
/// v3 dropped v2's optional ANN index blob, the section that closed the
/// payload: no index outlives a selection round. A base is a v3 frame
/// with no in-flight section.
pub const CHECKPOINT_VERSION: u32 = 3;
/// Magic of the in-flight part.
const TASK_MAGIC: [u8; 8] = *b"ENLDTASK";
/// Format version of the in-flight part.
const TASK_VERSION: u32 = 1;

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
    /// `votes[sample][iteration][step]`, one row per iteration run: did
    /// `θ'` agree with the observed label at that step? A vote the sample did not cast
    /// ([`casts_vote`](crate::ledger::casts_vote)) stays `false`; the
    /// ledger writer re-derives which those were.
    pub votes: Vec<Vec<Vec<bool>>>,
    pub ambiguous_initial: Vec<bool>,
    /// Iterations after which the sample was still ambiguous.
    pub still_ambiguous: Vec<Vec<usize>>,
    /// Contrastive draws per sample across selection rounds.
    pub draws: Vec<Vec<SampleDraw>>,
}

impl TaskTrace {
    /// A trace with no iteration run yet: each iteration pushes its own
    /// vote row per sample.
    pub(crate) fn new(samples: usize) -> Self {
        Self {
            votes: vec![Vec::new(); samples],
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
    /// The fine-tuned model `θ'` (with momentum) of a task read from a
    /// checkpoint, as its layer walk
    /// ([`Mlp::layers`](enld_nn::model::Mlp::layers)). Empty while
    /// `detect` runs the task: `θ'` is then the live `Mlp` it trains, and
    /// a persist encodes that in place.
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
}

impl Checkpoint<'_> {
    /// Serialises to one framed v3 checkpoint (magic/version/checksum),
    /// in-flight section included.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.frame(self.tasks, self.in_flight.as_deref())
    }

    /// This checkpoint's frame with `tasks` and `in_flight` in place of
    /// its own.
    fn frame(&self, tasks: usize, in_flight: Option<&InFlightTask>) -> Vec<u8> {
        let mut payload = Enc::default();
        self.encode(&mut payload, tasks, in_flight);
        durable::seal(&MAGIC, CHECKPOINT_VERSION, &payload.finish())
    }

    /// Parses and validates a framed checkpoint.
    ///
    /// # Errors
    /// [`CheckpointError::Format`] on bad magic, unsupported version,
    /// length/checksum mismatch, or a truncated payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint<'static>, CheckpointError> {
        let decode = || {
            let mut dec = Dec::new(durable::open(&MAGIC, CHECKPOINT_VERSION, bytes)?);
            let ckpt = Checkpoint::decode(&mut dec)?;
            dec.finish().map(|()| ckpt)
        };
        decode().map_err(CheckpointError::Format)
    }

    /// Writes the checkpoint durably: the base to `path`, then, while a
    /// task is in flight, its part to `<path>.task` (see the
    /// module docs). Each file is written to a `.tmp` sibling and renamed
    /// over its target, so a crash at any point leaves each old or new —
    /// never torn — and the files on disk always load.
    ///
    /// # Errors
    /// Filesystem failures (including injected ones at the
    /// `checkpoint.write` / `checkpoint.rename` failpoints, which both
    /// files pass); on error the `.tmp` sibling is removed best-effort and
    /// the target is untouched.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        let base = self.save_base(path)?;
        match self.in_flight.as_deref() {
            Some(task) => save_part(path, base, self.tasks, task, &task.theta),
            None => Ok(()),
        }
    }

    /// Publishes the base: this checkpoint with completed tasks only and
    /// no in-flight section. Returns the base frame's checksum, which a
    /// part binds to. With no task in flight, the finished task's part is
    /// removed, best effort: one left behind no longer binds.
    pub(crate) fn save_base(&self, path: &Path) -> io::Result<u64> {
        let in_flight = usize::from(self.in_flight.is_some());
        let done = self.tasks.checked_sub(in_flight).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "a task in flight but no task counted")
        })?;
        let frame = self.frame(done, None);
        durable::write_atomic(path, &frame, "checkpoint")?;
        if in_flight == 0 {
            let _ = fs::remove_file(part_path(path));
        }
        Ok(durable::checksum(&frame).expect("a sealed frame has a header"))
    }

    /// Reads and validates the checkpoint at `path`: its base, plus its
    /// part when one binds to that base (see the module docs). Any `.tmp`
    /// sibling left by an interrupted [`Checkpoint::save_atomic`] is
    /// ignored.
    ///
    /// # Errors
    /// I/O failures, an invalid base (see [`Checkpoint::from_bytes`]), and
    /// a part that binds to the base but does not decode
    /// ([`CheckpointError::Format`]).
    pub fn load(path: &Path) -> Result<Checkpoint<'static>, CheckpointError> {
        let bytes = fs::read(path)?;
        let mut ckpt = Checkpoint::from_bytes(&bytes)?;
        // A single-frame checkpoint carries its task inline.
        let Some(next) = ckpt.tasks.checked_add(1).filter(|_| ckpt.in_flight.is_none()) else {
            return Ok(ckpt);
        };
        let part = match fs::read(part_path(path)) {
            Ok(part) => part,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(ckpt),
            Err(e) => return Err(e.into()),
        };
        let base = durable::checksum(&bytes).expect("from_bytes read the header");
        let task = bind_part(&part, base, next)
            .map_err(|e| CheckpointError::Format(format!("task part: {e}")))?;
        if let Some(task) = task {
            ckpt.tasks = next;
            ckpt.in_flight = Some(Cow::Owned(task));
        }
        Ok(ckpt)
    }

    fn encode(&self, e: &mut Enc, tasks: usize, in_flight: Option<&InFlightTask>) {
        e.u64(self.config_fp);
        e.u64(self.inventory_fp);
        e.usize(tasks);
        e.usize(self.updates);
        e.f64(self.setup_secs);
        e.usize_slice(&self.hq);
        e.bool_slice(&self.sc_accum);
        e.usize(self.cond.classes);
        e.u64_slice(&self.cond.joint);
        e.f64_slice(&self.cond.cond);
        encode_model(e, &self.model);
        e.opt(in_flight, |e, task| encode_in_flight(e, task, &task.theta));
    }

    fn decode(d: &mut Dec<'_>) -> Result<Checkpoint<'static>, String> {
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
            return Err("conditional matrix shape mismatch".into());
        }
        let cond = CondState { classes, joint, cond: cond_rows };
        let model = Cow::Owned(decode_model(d)?);
        let in_flight = d.opt("in-flight", decode_in_flight)?.map(Cow::Owned);
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
        })
    }
}

/// Where the in-flight part of the checkpoint at `path` lives: a
/// `.task` sibling.
pub(crate) fn part_path(path: &Path) -> PathBuf {
    let mut part = path.as_os_str().to_owned();
    part.push(".task");
    PathBuf::from(part)
}

/// Publishes task number `number` (with `θ'` = `theta`) as the part of
/// the base at `path` whose frame checksum is `base`.
pub(crate) fn save_part(
    path: &Path,
    base: u64,
    number: usize,
    task: &InFlightTask,
    theta: &[Dense],
) -> io::Result<()> {
    let mut e = Enc::default();
    e.u64(base);
    e.usize(number);
    encode_in_flight(&mut e, task, theta);
    let frame = durable::seal(&TASK_MAGIC, TASK_VERSION, &e.finish());
    durable::write_atomic(&part_path(path), &frame, "checkpoint")
}

/// The task a part holds when it binds to the base whose frame checksum
/// is `base` as task number `number`; `None` when it names another base
/// or task, i.e. its base was superseded.
fn bind_part(part: &[u8], base: u64, number: usize) -> Result<Option<InFlightTask>, String> {
    // The binding leads the payload, so a stale part is recognised
    // before anything else in it is trusted.
    let mut binding = Dec::new(part.get(durable::HEADER_LEN..).unwrap_or_default());
    if let (Ok(b), Ok(n)) = (binding.u64(), binding.usize()) {
        if (b, n) != (base, number) {
            return Ok(None);
        }
    }
    let mut d = Dec::new(durable::open(&TASK_MAGIC, TASK_VERSION, part)?);
    let _binding = (d.u64()?, d.usize()?);
    let task = decode_in_flight(&mut d)?;
    d.finish().map(|()| Some(task))
}

/// The stored name of tensor `i` of `n`: redundant with its position in
/// the walk, derived here so the byte layout stays what it was.
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

fn decode_model(d: &mut Dec<'_>) -> Result<Vec<Dense>, String> {
    let n = d.usize()?;
    let mut layers = Vec::with_capacity(n.min(1024));
    for i in 0..n {
        let name = d.str()?;
        if name != tensor_name(i, n) {
            return Err(format!("tensor {i} of {n} is named `{name}`"));
        }
        let (rows, cols) = (d.usize()?, d.usize()?);
        let (weights, bias) = (d.f32_vec()?, d.f32_vec()?);
        let (vel_w, vel_b) = (d.f32_vec()?, d.f32_vec()?);
        layers.push(
            Dense::from_parts(rows, cols, weights, bias, vel_w, vel_b)
                .ok_or_else(|| format!("tensor `{name}` shape mismatch"))?,
        );
    }
    Ok(layers)
}

/// Encodes `t` with `theta` as its `θ'`: the task's own, or the live
/// model a running task trains.
fn encode_in_flight(e: &mut Enc, t: &InFlightTask, theta: &[Dense]) {
    e.u64(t.d_fp);
    e.usize(t.next_iteration);
    e.f32(t.warmup_val_acc);
    e.usize(t.ambiguous_initial);
    encode_model(e, theta);
    e.seq(&t.contrast, |e, s| {
        let (tag, i) = match s.source {
            SampleSource::Inventory(i) => (0, i),
            SampleSource::Incremental(i) => (1, i),
        };
        e.u8(tag);
        e.usize(i);
        e.u32(s.label);
    });
    e.usize_slice(&t.ambiguous);
    e.bool_slice(&t.in_s);
    e.usize_slice(&t.count_c);
    e.seq(&t.pseudo_votes, |e, votes| e.u32_slice(votes));
    e.seq(&t.history, |e, h| {
        e.usize(h.iteration);
        e.usize_slice(&h.clean_so_far);
        e.usize(h.ambiguous);
        e.usize(h.contrastive_size);
    });
    e.opt(t.trace.as_ref(), encode_trace);
}

fn decode_in_flight(d: &mut Dec<'_>) -> Result<InFlightTask, String> {
    let d_fp = d.u64()?;
    let next_iteration = d.usize()?;
    let warmup_val_acc = d.f32()?;
    let ambiguous_initial = d.usize()?;
    let theta = decode_model(d)?;
    let contrast = d.seq(|d| {
        let source = match d.u8()? {
            0 => SampleSource::Inventory(d.usize()?),
            1 => SampleSource::Incremental(d.usize()?),
            other => return Err(format!("bad sample-source tag {other}")),
        };
        Ok(ContrastSample { source, label: d.u32()? })
    })?;
    let ambiguous = d.usize_vec()?;
    let in_s = d.bool_vec()?;
    let count_c = d.usize_vec()?;
    let pseudo_votes = d.seq(Dec::u32_vec)?;
    let history = d.seq(|d| {
        Ok(IterationSnapshot {
            iteration: d.usize()?,
            clean_so_far: d.usize_vec()?,
            ambiguous: d.usize()?,
            contrastive_size: d.usize()?,
        })
    })?;
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
    // Width of a vote row: redundant with `votes`, kept so the byte
    // layout stays what it was.
    e.usize(t.votes.first().and_then(|s| s.first()).map_or(0, Vec::len));
    e.seq(&t.votes, |e, per_sample| e.seq(per_sample, |e, per_iter| e.bool_slice(per_iter)));
    e.bool_slice(&t.ambiguous_initial);
    e.seq(&t.still_ambiguous, |e, v| e.usize_slice(v));
    e.seq(&t.draws, |e, per_sample| {
        e.seq(per_sample, |e, draw| {
            e.i64(draw.round);
            e.u32(draw.candidate);
            e.usize_slice(&draw.neighbors);
        })
    });
}

fn decode_trace(d: &mut Dec<'_>) -> Result<TaskTrace, String> {
    let _vote_row_width = d.usize()?;
    let votes = d.seq(|d| d.seq(Dec::bool_vec))?;
    let ambiguous_initial = d.bool_vec()?;
    let still_ambiguous = d.seq(Dec::usize_vec)?;
    let draws = d.seq(|d| {
        d.seq(|d| {
            Ok(SampleDraw { round: d.i64()?, candidate: d.u32()?, neighbors: d.usize_vec()? })
        })
    })?;
    Ok(TaskTrace { votes, ambiguous_initial, still_ambiguous, draws })
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Content fingerprint of a dataset: shape, features (bit patterns),
/// observed labels, and the missing mask. Sample ids and ground-truth
/// labels are evaluation metadata and deliberately excluded.
pub fn dataset_fingerprint(d: &Dataset) -> u64 {
    let mut h = Fnv::default();
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
    h.finish()
}

/// Fingerprint of a detector configuration (its full `Debug` rendering —
/// any field change invalidates existing checkpoints).
pub fn config_fingerprint(cfg: &EnldConfig) -> u64 {
    durable::fnv1a64(format!("{cfg:?}").as_bytes())
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
        }
    }

    #[test]
    fn round_trip_is_lossless() {
        let ckpt = sample_checkpoint();
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).expect("valid");
        assert_eq!(back, ckpt);
    }

    /// The layout proof: a blob of a ledger-attached task stopped between
    /// iterations, so the in-flight and trace sections are both present,
    /// decodes into the one task type and re-encodes to the same bytes.
    /// It is the v2 fixture less the absent ANN blob's presence byte that
    /// closed v2's payload, resealed as v3; the v2 bytes themselves now
    /// fail the version check.
    #[test]
    fn committed_v3_fixture_round_trips_byte_identically() {
        let blob = include_bytes!("../../../tests/fixtures/ckpt_v3_in_flight.bin");
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

        let v2 = include_bytes!("../../../tests/fixtures/ckpt_v2_in_flight.bin");
        let v2_payload = durable::open(&MAGIC, 2, v2).expect("a v2 frame");
        assert_eq!(v2_payload.split_last(), Some((&0, durable::open(&MAGIC, 3, blob).unwrap())));
        let err = Checkpoint::from_bytes(v2).expect_err("v2 is not read");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("version 2")), "{err}");
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

    /// Frames `payload` with a valid header, so only the decoder can object.
    fn framed(payload: &[u8]) -> Vec<u8> {
        durable::seal(&MAGIC, CHECKPOINT_VERSION, payload)
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Enc::default();
        let ckpt = sample_checkpoint();
        ckpt.encode(&mut e, ckpt.tasks, ckpt.in_flight.as_deref());
        let mut payload = e.finish();
        payload.push(0);
        let err = Checkpoint::from_bytes(&framed(&payload)).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("trailing")), "{err}");
    }

    #[test]
    fn corrupt_length_prefix_cannot_over_allocate() {
        let mut e = Enc::default();
        e.u64(1); // config_fp
        e.u64(2); // inventory_fp
        e.usize(0); // tasks
        e.usize(0); // updates
        e.f64(0.0); // setup_secs
        e.u64(u64::MAX); // hq length: absurd
        assert!(Checkpoint::from_bytes(&framed(&e.finish())).is_err());
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
        let err = Checkpoint::from_bytes(&framed(&e.finish())).expect_err("must fail");
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
        let err = Checkpoint::from_bytes(&framed(&e.finish())).expect_err("must fail");
        assert!(matches!(err, CheckpointError::Format(ref m) if m.contains("`head`")), "{err}");
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("enld-ckpt-{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn save_atomic_and_load_round_trip() {
        let dir = scratch_dir("round-trip");
        let path = dir.join("round_trip.ckpt");
        let ckpt = sample_checkpoint();
        ckpt.save_atomic(&path).expect("save");
        assert!(!dir.join("round_trip.ckpt.tmp").exists(), "tmp sibling must be renamed away");
        assert!(!dir.join("round_trip.ckpt.task.tmp").exists(), "tmp sibling must be renamed away");
        // The base counts completed tasks only and carries no task…
        let base = Checkpoint::from_bytes(&fs::read(&path).expect("base")).expect("a v3 frame");
        assert_eq!((base.tasks, base.in_flight.is_none()), (ckpt.tasks - 1, true));
        // …which the part beside it adds back.
        assert!(part_path(&path).exists());
        assert_eq!(Checkpoint::load(&path).expect("load"), ckpt);

        // At a task boundary: the base alone, and the finished task's part goes.
        let boundary = Checkpoint { in_flight: None, ..sample_checkpoint() };
        boundary.save_atomic(&path).expect("save");
        assert!(!part_path(&path).exists(), "the finished task's part is removed");
        assert_eq!(Checkpoint::load(&path).expect("load"), boundary);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Parts that name another base — a task boundary rewrote the base,
    /// and removing the part failed, or the crash came between the two —
    /// are stale: the base loads alone.
    #[test]
    fn a_part_bound_to_a_superseded_base_is_ignored() {
        let dir = scratch_dir("stale");
        let path = dir.join("stale.ckpt");
        let ckpt = sample_checkpoint();
        ckpt.save_atomic(&path).expect("save");
        let part = fs::read(part_path(&path)).expect("part");

        // The next boundary: one more task done, so the part's number is
        // behind and its checksum names the old base.
        let next = Checkpoint { in_flight: None, ..sample_checkpoint() };
        next.save_atomic(&path).expect("save");
        fs::write(part_path(&path), &part).expect("restore the stale part");
        assert_eq!(Checkpoint::load(&path).expect("load"), next);

        // The same completed-task count as the part's base, but other
        // state: the number matches, the checksum does not.
        let mut other =
            Checkpoint { tasks: ckpt.tasks - 1, in_flight: None, ..sample_checkpoint() };
        other.hq.push(7);
        other.save_atomic(&path).expect("save");
        fs::write(part_path(&path), &part).expect("restore the stale part");
        assert_eq!(Checkpoint::load(&path).expect("load"), other);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A part that binds to its base is never dropped silently: if it
    /// does not decode, the load fails.
    #[test]
    fn a_part_that_binds_but_does_not_decode_is_a_format_error() {
        let dir = scratch_dir("corrupt");
        let path = dir.join("corrupt.ckpt");
        sample_checkpoint().save_atomic(&path).expect("save");
        let part = fs::read(part_path(&path)).expect("part");
        let mut flipped = part.clone();
        *flipped.last_mut().expect("non-empty") ^= 1;
        for (what, bytes) in [("flipped", flipped), ("truncated", part[..part.len() - 3].to_vec())]
        {
            fs::write(part_path(&path), bytes).expect("corrupt the part");
            let err = Checkpoint::load(&path).expect_err(what);
            assert!(
                matches!(err, CheckpointError::Format(ref m) if m.contains("task part")),
                "{err}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A single-file checkpoint with its task inline — what `to_bytes`
    /// writes, and what the format held before the part existed — loads
    /// as it did, whatever part lies beside it.
    #[test]
    fn a_single_frame_checkpoint_carries_its_task_inline() {
        let dir = scratch_dir("inline");
        let path = dir.join("inline.ckpt");
        let blob = include_bytes!("../../../tests/fixtures/ckpt_v3_in_flight.bin");
        fs::write(&path, blob).expect("write the fixture");
        let expect = Checkpoint::from_bytes(blob).expect("fixture decodes");
        assert_eq!(Checkpoint::load(&path).expect("load"), expect);
        fs::write(part_path(&path), b"not a part").expect("write junk");
        assert_eq!(Checkpoint::load(&path).expect("an inline task wins"), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[ignore = "arms process-global failpoints; run serially via the chaos job"]
    fn leftover_tmp_file_is_ignored_and_failed_write_keeps_old_checkpoint() {
        let _s = enld_chaos::scenario();
        let dir = scratch_dir("tmp");
        let path = dir.join("atomic.ckpt");
        let old = sample_checkpoint();
        old.save_atomic(&path).expect("save old");
        // Simulate a crash that left garbage in the tmp sibling.
        let tmp = dir.join("atomic.ckpt.tmp");
        fs::write(&tmp, b"torn half-written junk").expect("write tmp");
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
        assert!(!tmp.exists(), "tmp removed after failure");
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
