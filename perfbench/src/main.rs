//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <ide_daemon|batch_compile|vm_compute> --seed <n>
//!           --seconds <s> --trace <0|1> [--implicitd <path>]
//!           [--work-dir <dir>] [--rev <rev>] [--corrupt-expected]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced.
//! `--trace 1` makes the same untraced pass and then a separate traced
//! pass over the same seeded inputs, and reports the per-layer metrics,
//! an unaccounted row and the tracing overhead instead. Every output is
//! checked against an independent reference outside the timed regions;
//! `--corrupt-expected` corrupts one reference value, which must make
//! the run fail. `perfbench/run.py` builds everything and passes the
//! daemon path, work directory and revision.

mod awake;
mod closed;
mod ide;
mod layers;
mod programs;
mod report;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// The end-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// The per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 52] = [
    ("service.decode_us", "us"),
    ("service.encode_us", "us"),
    ("service.ping_us", "us"),
    ("service.hop_us", "us"),
    ("service.requests", "count"),
    ("service.errors", "count"),
    ("service.rejected", "count"),
    ("parse.us_per_req", "us"),
    ("parse.mb_per_s", "MB/s"),
    ("parse.roundtrip_skipped", "count"),
    ("parse.roundtrip_generated", "count"),
    ("resolve.us_per_query", "us"),
    ("resolve.explain_us", "us"),
    ("resolve.steps", "count"),
    ("resolve.cache_hits", "count"),
    ("resolve.cache_misses", "count"),
    ("resolve.cache_hit_ratio", "ratio"),
    ("elab.us_per_program", "us"),
    ("preservation.us_per_program", "us"),
    ("compile.us_per_program", "us"),
    ("compile.instrs_scanned", "count"),
    ("compile.fused", "count"),
    ("vm.us_per_program", "us"),
    ("vm.fuel", "count"),
    ("vm.tail_calls", "count"),
    ("vm.match_ic_hit_ratio", "ratio"),
    ("opsem.us_per_program", "us"),
    ("opsem.memo_hit_ratio", "ratio"),
    ("session.prelude_build_ms", "ms"),
    ("session.bookkeeping_us", "us"),
    ("session.trims", "count"),
    ("artifact.decode_ms", "ms"),
    ("artifact.encode_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("artifact.load_outcome", "code"),
    ("artifact.fallbacks", "count"),
    ("driver.worker_busy_frac", "ratio"),
    ("driver.imbalance", "ratio"),
    ("daemon.spawn_to_listen_ms", "ms"),
    ("daemon.open_ms_frames", "ms"),
    ("daemon.open_ms_compile", "ms"),
    ("loadgen.lag_p99_ms_low", "ms"),
    ("loadgen.lag_max_ms_low", "ms"),
    ("loadgen.lag_p99_ms_high", "ms"),
    ("loadgen.lag_max_ms_high", "ms"),
    ("loadgen.max_rps", "1/s"),
    ("e2e.us_per_op", "us"),
    ("unaccounted.us_per_op", "us"),
    ("unaccounted.share_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("meta.nproc", "count"),
    ("meta.seed", "count"),
];

/// Stack for the thread that runs the workload.
const STACK: usize = 256 << 20;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    implicitd: Option<PathBuf>,
    work_dir: PathBuf,
    rev: String,
    corrupt_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        implicitd: None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        rev: "unknown".to_owned(),
        corrupt_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt-expected" {
            args.corrupt_expected = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = num(&value)?,
            "--trace" => args.trace = num(&value)? != 0.0,
            "--implicitd" => args.implicitd = Some(value.into()),
            "--work-dir" => args.work_dir = value.into(),
            "--rev" => args.rev = value,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Records each layer's share of the end-to-end time and names the
/// dominant one.
pub fn note_shares(report: &mut Report, shares: &[(&str, f64)], e2e: f64) {
    let mut v = shares.to_vec();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    let row: Vec<String> = v
        .iter()
        .map(|(n, t)| format!("{n} {:.1}%", 100.0 * t / e2e))
        .collect();
    report.note(format!(
        "layer shares of end-to-end time: {}",
        row.join(", ")
    ));
    report.note(format!("dominant layer: {}", v[0].0));
}

/// Puts the report's metrics in declaration order; a layer the workload
/// does not reach is reported as not applicable.
fn canonicalize(report: &mut Report, names: &[(&'static str, &'static str)]) {
    let mut have = std::mem::take(&mut report.metrics);
    for (name, unit) in names {
        match have.iter().position(|m| m.name == *name) {
            Some(i) => report.metrics.push(have.swap_remove(i)),
            None => report.not_applicable(name, unit),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} rev={} nproc={nproc} profile={profile}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.rev
    );
    let run = match args.workload.as_str() {
        "ide_daemon" => ide::run,
        "batch_compile" => closed::run_batch,
        "vm_compute" => closed::run_vm,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    // The pipeline recurses per nesting level, and the single-shot
    // tree-walker recurses once per loop iteration, so the run gets a
    // deep stack.
    let result = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(STACK)
            .spawn_scoped(s, || run(&args))
            .expect("spawn the benchmark thread")
            .join()
    });
    let mut report = match result.unwrap_or_else(|_| Err("benchmark thread panicked".to_owned())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        report.put("meta.nproc", nproc as f64, "count", 1);
        report.put("meta.seed", args.seed as f64, "count", 1);
        canonicalize(&mut report, &PER_LAYER);
    } else {
        canonicalize(&mut report, &END_TO_END);
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
