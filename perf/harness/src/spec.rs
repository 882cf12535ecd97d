//! What the benchmark is: its workloads and its metrics. `BENCHMARK.json`
//! at the repository root states the same lists for the driver; a unit
//! test keeps the two identical.

use enld_datagen::presets::DatasetPreset;

use crate::json::Json;
use crate::procfs;

/// Noise rate η of every lake (§V-A2's default).
pub const NOISE_RATE: f32 = 0.2;

/// Arrivals every run detects whatever the clock says, and the fixed set
/// the exact counts (`core.*_total`, shares, overhead ratios) are taken
/// over, so those repeat exactly at a seed.
pub const MIN_ARRIVALS: usize = 3;

/// Arrivals the Topofilter comparison covers (it is ≈4× slower per
/// arrival than ENLD).
pub const BASELINE_ARRIVALS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop: one detector, arrivals through `Enld::detect` in order.
    Stream,
    /// `Stream` with checkpoints, a JSONL ledger and the HNSW index on.
    Durable,
    /// Open loop through `enld_serve::WorkerPool` on a jittered periodic schedule.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub preset: fn() -> DatasetPreset,
    /// `enld_par` threads: `min(nproc, 4)` when set, else 1.
    pub multi_thread: bool,
    /// Offered load of the open loop, jobs per second. Committed, never
    /// recomputed at run time: chosen once so the seed commit runs its
    /// worker at ≈0.55–0.6 utilisation on the 2-vCPU reference box.
    pub serve_rate_hz: f64,
    /// `f1_mean` below this marks the run incorrect: the value at seed 7
    /// minus 0.1 (other seeds sit up to 0.05 below it).
    pub f1_floor: f64,
    /// Also runs the Topofilter / Default comparison when traced.
    pub baselines: bool,
}

fn cifar100() -> DatasetPreset {
    DatasetPreset::cifar100_sim()
}

fn emnist_2x() -> DatasetPreset {
    DatasetPreset::emnist_sim().scaled(2.0)
}

fn emnist() -> DatasetPreset {
    DatasetPreset::emnist_sim()
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stream_cifar100_t1",
        why: "Paper protocol: cifar100-sim, t=17, 1 thread, closed loop; small fine-tune batches, \
              so nn training kernels dominate and knn/ann/server/par do almost nothing",
        kind: Kind::Stream,
        preset: cifar100,
        multi_thread: false,
        serve_rate_hz: 0.0,
        f1_floor: 0.8,
        baselines: true,
    },
    Workload {
        name: "stream_emnist2x_tn",
        why: "emnist-sim x2, t=5, min(nproc,4) threads, closed loop; large inference batches over \
              I' with par engaged, so a threading change that costs small batches shows the \
              other way here",
        kind: Kind::Stream,
        preset: emnist_2x,
        multi_thread: true,
        serve_rate_hz: 0.0,
        f1_floor: 0.9,
        baselines: false,
    },
    Workload {
        name: "serve_emnist_open",
        why: "Open loop: emnist-sim arrivals through WorkerPool (nproc-1 FIFO workers) on a seeded \
              jittered periodic schedule at a fixed rate; the only workload where queueing and dispatch \
              matter",
        kind: Kind::Serve,
        preset: emnist,
        multi_thread: false,
        serve_rate_hz: 2.0,
        f1_floor: 0.85,
        baselines: false,
    },
    Workload {
        name: "durable_cifar100_t1",
        why: "stream_cifar100_t1 with checkpoints, JSONL ledger and the HNSW index on: writes \
              beside reads; a core-compute gain shows on both cifar workloads, a durability gain \
              only here",
        kind: Kind::Durable,
        preset: cifar100,
        multi_thread: false,
        serve_rate_hz: 0.0,
        f1_floor: 0.8,
        baselines: false,
    },
];

impl Workload {
    /// `enld_par` threads of a run of this workload.
    pub fn threads(&self) -> usize {
        if self.multi_thread {
            procfs::nproc().min(4)
        } else {
            1
        }
    }
}

/// Pool workers of the serve workload: one core is left to the
/// generator, so the load is sized to the machine.
pub fn serve_workers() -> usize {
    procfs::nproc().saturating_sub(1).max(1)
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees; every workload reports every one.
///
/// The bounds are wide because the instrument is: over ten seeds the
/// quartile spread of the timings is 5–9 % of their median (the seed
/// changes the lake and the general model, and the same seed on the
/// 2-vCPU reference box repeats only to about ±5 %), and a bound has to
/// sit about three spreads out before a crossing means something.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "process_ms_per_sample_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "sojourn_ms_per_sample_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "samples_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "cpu_s_per_ksample", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "f1_mean", unit: "share", better: Better::Higher, bound: 0.15 },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Single-layer metrics of the traced run. A value of exactly 0 means
/// the workload does not exercise that probe (see perf/README.md).
pub const PER_LAYER: [PerLayer; 62] = [
    layer("datagen.generate_ksamples_per_s", "1/s", Higher),
    layer("lake.build_s", "s", Lower),
    layer("nn.fit_finetune_ksamples_per_s", "1/s", Higher),
    layer("nn.fit_init_ksamples_per_s", "1/s", Higher),
    layer("nn.infer_d_krows_per_s", "1/s", Higher),
    layer("nn.infer_inv_krows_per_s", "1/s", Higher),
    layer("nn.gemm_ft_gflops", "GFLOP/s", Higher),
    layer("nn.gemm_inf_gflops", "GFLOP/s", Higher),
    layer("nn.gemm_at_gflops", "GFLOP/s", Higher),
    layer("nn.gemm_bt_gflops", "GFLOP/s", Higher),
    layer("nn.quant_infer_krows_per_s", "1/s", Higher),
    layer("nn.quant_pack_ms", "ms", Lower),
    layer("nn.clone_ms", "ms", Lower),
    layer("knn.build_kpoints_per_s", "1/s", Higher),
    layer("knn.query_kq_per_s", "1/s", Higher),
    layer("ann.build_kpoints_per_s", "1/s", Higher),
    layer("ann.query_kq_per_s", "1/s", Higher),
    layer("ann.insert_kpoints_per_s", "1/s", Higher),
    layer("ann.blob_bytes", "bytes", Lower),
    layer("ann.recall_at_k", "share", Higher),
    layer("core.init_s", "s", Lower),
    layer("core.estimate_p_ms", "ms", Lower),
    layer("core.ambiguous_share", "share", Lower),
    layer("core.contrast_rows_mean", "count", Lower),
    layer("core.train_rows_total", "count", Lower),
    layer("core.noisy_total", "count", Lower),
    layer("core.clean_total", "count", Higher),
    layer("core.share_train", "share", Lower),
    layer("core.share_scan_d", "share", Lower),
    layer("core.share_scan_inv", "share", Lower),
    layer("core.share_neighbour", "share", Lower),
    layer("core.share_unattributed", "share", Lower),
    layer("core.ckpt_bytes", "bytes", Lower),
    layer("core.ckpt_encode_mb_per_s", "MB/s", Higher),
    layer("core.ckpt_save_ms", "ms", Lower),
    layer("core.ledger_bytes_per_arrival", "bytes", Lower),
    layer("core.durable_overhead_share", "share", Lower),
    layer("core.update_model_s", "s", Lower),
    layer("par.map_overhead_us", "us", Lower),
    layer("par.gemm_speedup_tn", "ratio", Higher),
    layer("par.detect_speedup_tn", "ratio", Higher),
    layer("server.sojourn_s_tail", "s", Lower),
    layer("server.tail_pct", "%", Higher),
    layer("server.wait_s_p50", "s", Lower),
    layer("server.wait_s_tail", "s", Lower),
    layer("server.service_s_p50", "s", Lower),
    layer("server.utilisation", "share", Lower),
    layer("server.queue_depth_max", "count", Lower),
    layer("server.submit_us_p50", "us", Lower),
    layer("server.noop_sojourn_us_p50", "us", Lower),
    layer("baselines.topofilter_s_per_arrival", "s", Lower),
    layer("baselines.topofilter_f1", "share", Higher),
    layer("baselines.default_f1", "share", Higher),
    layer("baselines.enld_speedup_vs_topofilter", "ratio", Higher),
    layer("telemetry.span_off_ns", "ns", Lower),
    layer("telemetry.span_mem_sink_ns", "ns", Lower),
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("telemetry.info_sink_overhead_share", "share", Lower),
    layer("chaos.failpoint_unarmed_ns", "ns", Lower),
    layer("harness.trace_overhead_share", "share", Lower),
    layer("harness.gen_late_ms_p50", "ms", Lower),
    layer("harness.gen_late_ms_max", "ms", Lower),
];

/// `BENCHMARK.json` as these tables define it (`--print-spec`).
pub fn benchmark_json(run_seconds: f64) -> Json {
    let one_line = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    Json::obj([
        ("command", Json::Arr(vec![Json::str("bash"), Json::str("perf/run.sh")])),
        ("paths", Json::Arr(vec![Json::str("perf")])),
        ("run_seconds", Json::Num(run_seconds)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::str(w.name)),
                            ("why", Json::str(one_line(w.why))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; these tables are what
    /// the binary prints. The committed file must be the generated one.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let committed =
            Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        assert_eq!(committed, benchmark_json(crate::RUN_SECONDS));
        let keys: Vec<&str> = committed.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        for w in committed.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {w:?}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= setup.bound && setup.bound <= 0.25));
    }

    #[test]
    fn names_and_units_fit_the_driver_limits() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name), "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(ok_name(m.name) && ok_unit(m.unit) && seen.insert(m.name), "{}", m.name);
        }
    }
}
