//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path qvrbench/Cargo.toml -- \
//!     --workload <qvr_party|stream_rooms|churn_cells> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats fixed batches of the named workload, generated from `--seed`,
//! until `--seconds` of host time have passed (at least three batches, so
//! every run also checks that a repeat of the seed reproduces the same
//! simulated results). The last line of standard output is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics from
//! the traced run (`--trace 1`). See `README.md` for the rationale.

mod host;
mod inputs;
mod layers;
mod run;
mod trace;

use host::median;
use run::{Batch, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Where the traced run writes its Chrome trace (inside the checkout).
const TRACE_DIR: &str = "qvrbench/out";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: correctness, operation counts, and `(name, value,
/// unit)` metrics.
fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:e}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Batches every run makes at least: two to check that a repeat of the
/// seed reproduces the simulated results, three so that the median drops
/// the cold first batch.
const MIN_BATCHES: usize = 3;

/// Runs batches until `seconds` have passed and at least [`MIN_BATCHES`]
/// ran. A traced run alternates untraced and traced batches: the untraced
/// ones are the reference its tracing overhead is measured against.
fn batches(args: &Args, origin: Instant) -> Vec<Batch> {
    let start = Instant::now();
    let mut out: Vec<Batch> = Vec::new();
    while out.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < args.seconds {
        let trace = args.trace && out.len() % 2 == 1;
        let mut b = run::run_batch(args.workload, args.seed, trace, origin);
        eprintln!(
            "batch {}{}: {:.0} frames/s, {:.0} frames/cpu-s, setup {:.4} s, {} of {} sessions failed, digest {:016x}",
            out.len(),
            if trace { " (traced)" } else { "" },
            b.frames_per_s(),
            b.frames_per_cpu_s(),
            b.setup_s,
            b.failed(),
            b.attempted(),
            b.digest
        );
        // The first traced batch stays whole: the replays read it.
        if !(trace && out.len() == 1) {
            b.slim();
        }
        out.push(b);
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qvrbench: {e}");
            std::process::exit(2);
        }
    };
    host::pin_mmap_threshold();
    host::quiet_panics();
    let origin = Instant::now();
    let all = batches(&args, origin);
    // Panics from here on are the benchmark's own bugs: report them.
    drop(std::panic::take_hook());

    // Every batch repeats the seed's operations, so the run accounts for
    // each operation once: it fails if it failed in any batch. Determinism:
    // every batch must reproduce the first one's simulated results bit for
    // bit, and a batch that does not fails every operation.
    let digest = all[0].digest;
    let mut class: Vec<Option<String>> = vec![None; all[0].ops.len()];
    for b in &all {
        for (i, slot) in class.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = if b.digest == digest {
                    b.failure_of(i)
                } else {
                    Some("check:digest_mismatch".into())
                };
            }
        }
    }
    let attempted = all[0].attempted();
    let mut failed: usize = 0;
    let mut failures: BTreeMap<String, usize> = BTreeMap::new();
    for (op, c) in all[0].ops.iter().zip(&class) {
        if let Some(c) = c {
            failed += op.sessions;
            *failures.entry(c.clone()).or_default() += op.sessions;
        }
    }
    let correct = all
        .iter()
        .all(|b| b.digest == digest && b.failures().keys().all(|c| !c.starts_with("check:")));

    let model = all[0].model;
    println!(
        "workload {} seed {}: {} batches, model.digest {:016x}, failures {:?}",
        args.workload.name(),
        args.seed,
        all.len(),
        digest,
        failures
    );
    println!("model: {}", model.render());

    let metrics: Vec<(&'static str, f64, &'static str)> = if args.trace {
        let (traced, untraced): (Vec<&Batch>, Vec<&Batch>) =
            all.iter().partition(|b| b.tracer.enabled());
        let fps = |bs: &[&Batch]| median(&bs.iter().map(|b| b.frames_per_s()).collect::<Vec<_>>());
        let path = Path::new(TRACE_DIR).join(format!("{}.trace.json", args.workload.name()));
        match traced[0].tracer.write_chrome(&path) {
            Ok(()) => println!(
                "trace: {} spans -> {}",
                traced[0].tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
        layers::per_layer(&traced, &model, fps(&untraced), fps(&traced))
    } else {
        let col = |f: fn(&Batch) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
        vec![
            ("frames_per_s", col(Batch::frames_per_s), "1/s"),
            ("frames_per_cpu_s", col(Batch::frames_per_cpu_s), "1/s"),
            ("setup_s", col(|b| b.setup_s), "s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MiB"),
        ]
    };
    println!("{}", json_line(correct, attempted, failed, &metrics));
}
