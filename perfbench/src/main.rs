//! The repository benchmark: four seeded serving workloads against the shipped code.
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
//! python3 perfbench/compare.py BASE.jsonl NEW.jsonl
//! ```
//!
//! Workloads (all sparse-random graphs with m = 4n, n = 2048, shipped service defaults of
//! 2 workers and 2 shards, one client process with at most 2 client threads):
//!
//! * `wire_lockstep` — the real `msrpctl serve` booted from a snapshot, one connection
//!   sending closed-loop, one-outstanding `Q` lines (σ = 4);
//! * `batch_sigma512` — in-process `answer_batch` of 256-query batches over an oracle
//!   booted from a snapshot (σ = 512);
//! * `churn_sigma16` — in-process `QueryService<EpochOracle>` with an open-loop writer
//!   (edge fail/repair toggles at 20/s, each an incremental rebuild plus `publish`) beside
//!   a closed-loop reader of 16-query batches (σ = 16);
//! * `weighted_sigma64` — the weighted service booted from a weighted snapshot, 64-query
//!   batches (weights 1..=1000, σ = 64).
//!
//! With `--trace 0` the run measures end to end and prints every end-to-end metric; with
//! `--trace 1` it runs the same workload and seed once untraced and once traced (half the
//! time each) and prints the per-layer breakdown. Every answer is checked against the
//! benchmark's own in-process oracle, a fixed sample against avoiding-search ground truth.
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}`.

mod churn;
mod common;
mod inproc;
mod wire;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use common::Outcome;

/// End-to-end metrics: what a user of the serving stack sees. Every workload reports all.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("build_s", "s"),
    ("boot_s", "s"),
    ("request_p50_us", "us"),
    ("peak_rss_mb", "MB"),
    ("snapshot_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("client.request_p50_ns", "ns"),
    ("client.request_p99_ns", "ns"),
    ("client.send_p50_ns", "ns"),
    ("client.send_p99_ns", "ns"),
    ("serve.wire.read_p50_ns", "ns"),
    ("serve.wire.read_p99_ns", "ns"),
    ("serve.wire.write_p50_ns", "ns"),
    ("serve.wire.write_p99_ns", "ns"),
    ("client.recv_p50_ns", "ns"),
    ("client.recv_p99_ns", "ns"),
    ("serve.protocol.parse_p50_ns", "ns"),
    ("serve.protocol.parse_p99_ns", "ns"),
    ("serve.protocol.validate_p50_ns", "ns"),
    ("serve.protocol.validate_p99_ns", "ns"),
    ("serve.protocol.format_p50_ns", "ns"),
    ("serve.protocol.format_p99_ns", "ns"),
    ("serve.service.enqueue_p50_ns", "ns"),
    ("serve.service.enqueue_p99_ns", "ns"),
    ("serve.service.queue_wait_p50_ns", "ns"),
    ("serve.service.queue_wait_p99_ns", "ns"),
    ("serve.service.compute_p50_ns", "ns"),
    ("serve.service.compute_p99_ns", "ns"),
    ("serve.service.reply_p50_ns", "ns"),
    ("serve.service.reply_p99_ns", "ns"),
    ("serve.service.wakeup_p50_ns", "ns"),
    ("serve.service.wakeup_p99_ns", "ns"),
    ("oracle.lookup_p50_ns", "ns"),
    ("oracle.lookup_p99_ns", "ns"),
    ("oracle.weighted.lookup_p50_ns", "ns"),
    ("oracle.weighted.lookup_p99_ns", "ns"),
    ("oracle.on_path_share", "ratio"),
    ("oracle.bk.tree_ms", "ms"),
    ("oracle.bk.cover_ms", "ms"),
    ("oracle.bk.rows_ms", "ms"),
    ("oracle.bk.cuts_ms", "ms"),
    ("oracle.bk.merge_ms", "ms"),
    ("oracle.weighted.build_ms", "ms"),
    ("snap.encode_ms", "ms"),
    ("snap.decode_ms", "ms"),
    ("msrpctl.spawn_ms", "ms"),
    ("msrpctl.first_reply_ms", "ms"),
    ("oracle.incremental.reuse_ms", "ms"),
    ("oracle.incremental.patch_ms", "ms"),
    ("oracle.incremental.rebuild_ms", "ms"),
    ("oracle.incremental.sources_reused", "count"),
    ("oracle.incremental.sources_patched", "count"),
    ("oracle.incremental.sources_rebuilt", "count"),
    ("oracle.incremental.cuts_recomputed_ratio", "ratio"),
    ("serve.epoch.publish_p50_ns", "ns"),
    ("serve.epoch.publish_p99_ns", "ns"),
    ("serve.epoch.staleness_p50_ms", "ms"),
    ("serve.epoch.staleness_p90_ms", "ms"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("serve.journal.dropped", "count"),
];

const WORKLOADS: [&str; 4] =
    ["wire_lockstep", "batch_sigma512", "churn_sigma16", "weighted_sigma64"];

/// Command-line settings shared by every workload.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `msrpctl` binary `wire_lockstep` boots.
    pub msrpctl: PathBuf,
    /// Directory for per-run scratch files (state dirs); created and removed by the run.
    pub tmp: PathBuf,
    /// Also append `{"workload", "seed", "trace", "result"}` to this JSON-lines file.
    pub record: Option<PathBuf>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut msrpctl = None;
        let mut tmp = None;
        let mut record = None;
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag} {value}: invalid value");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                    seconds.ok_or_else(bad)?;
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--msrpctl" => msrpctl = Some(PathBuf::from(value)),
                "--tmp" => tmp = Some(PathBuf::from(value)),
                "--record" => record = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?} (one of {WORKLOADS:?})"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            msrpctl: msrpctl.ok_or("--msrpctl is required")?,
            tmp: tmp.ok_or("--tmp is required")?,
            record,
        })
    }
}

/// Renders the result object; every metric of the selected catalogue appears exactly once.
fn render(args: &Args, outcome: &Outcome) -> Result<String, String> {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) => v,
            // A layer the workload never enters spent no time and did no work.
            None if args.trace => 0.0,
            None => return Err(format!("workload did not report end-to-end metric {name}")),
        };
        let value = if value.is_finite() { value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        write!(metrics, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.valid,
        outcome.attempted.max(1),
        outcome.failed,
    ))
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.tmp)
        .map_err(|e| format!("create {}: {e}", args.tmp.display()))?;
    let outcome = match args.workload.as_str() {
        "wire_lockstep" => wire::run(args)?,
        "batch_sigma512" => inproc::run::<inproc::Hop>(args)?,
        "churn_sigma16" => churn::run(args)?,
        "weighted_sigma64" => inproc::run::<inproc::Weighted>(args)?,
        other => unreachable!("workload {other} was validated by Args::parse"),
    };
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in catalogue {
        let value = outcome.metrics.get(name).unwrap_or(0.0);
        println!("{:<44} {value:>16.4} {unit}", format!("{}.{name}", args.workload));
    }
    let line = render(args, &outcome)?;
    if let Some(path) = &args.record {
        let entry = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {line}}}\n",
            args.workload, args.seed, args.trace as u8
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(entry.as_bytes()))
            .map_err(|e| format!("append to {}: {e}", path.display()))?;
    }
    Ok(line)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
