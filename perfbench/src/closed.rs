//! The two closed-loop, in-process workloads.
//!
//! * `batch_compile` — thousands of distinct seeded programs against a
//!   shared chain-48 prelude: `genprog` data programs under the
//!   `data_prelude()` declarations (nested implicit scopes, polymorphic
//!   and higher-kinded rules, `data`/`match`) plus chain queries at
//!   seeded depths. Front-end dominated; every program pushes and rolls
//!   back its own scopes, so the derivation cache mostly misses.
//! * `vm_compute` — a few dozen long-running programs: the B14 `fix`
//!   countdown at seeded iteration counts and the §1 `Perfect` and §5
//!   `show` programs at larger sizes. VM dominated and nearly
//!   resolution-free.
//!
//! Each load level runs `run_batch_scoped` with one warm VM `Session`
//! per worker: two workers (`high`, the bounded level), then one
//! (`low`). Programs are passed as `Expr` values, so no text is parsed
//! on the timed path.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use genprog::{data_prelude, rng};
use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_core::syntax::Declarations;
use implicit_core::trace::{MetricsRegistry, Phase};
use implicit_pipeline::service::{Client, Daemon, DaemonConfig, Json};
use implicit_pipeline::{run_batch_scoped, Prelude};
use rand::Rng;

use crate::layers::{self, ms, us, MirrorElab, PhaseTimer, Roundtrip};
use crate::programs::{chain_spec, perfect_decls, program_seed, ProgSpec};
use crate::report::{
    interquartile_mean, mean, median, peak_rss_mb, quantile, windowed_quantile, Report,
};
use crate::Args;

/// A closed-loop workload: a seeded program pool, the declarations and
/// chain prelude its sessions are built over, and its sample sizes.
struct Workload {
    pool: Vec<ProgSpec>,
    decls: fn() -> Declarations,
    prelude_depth: usize,
    /// Programs in the single-shot sample.
    oneshot: usize,
    /// Programs in the traced pass.
    traced: usize,
}

/// Programs per job handed to a worker.
const ROUND: usize = 16;
/// Share of the run the two-worker level, whose figures are bounded,
/// gets; the one-worker level gets the rest.
const HIGH_SHARE: f64 = 0.75;
/// Set-ups per group. A group runs before, halfway through and after
/// the two-worker level and after the one-worker level, so the set-ups
/// meet the host at several speeds (see NOTES.md); `setup_s` is the
/// interquartile mean of all of them.
const SETUP_GROUP: usize = 8;

fn batch_compile(seed: u64) -> Workload {
    // Every fourth program is a chain query; the rest are generated.
    let mut r = rng(seed ^ 0x00BA_7C40);
    let pool = (0..2000)
        .map(|i| {
            if i % 4 == 3 {
                chain_spec(&mut r, 48)
            } else {
                ProgSpec::Data {
                    seed: program_seed(seed, i),
                }
            }
        })
        .collect();
    Workload {
        pool,
        decls: data_prelude,
        prelude_depth: 48,
        oneshot: 400,
        traced: 1500,
    }
}

fn vm_compute(seed: u64) -> Workload {
    // A fixed composition and order (four countdowns, one `Perfect`, one
    // `show`, repeated) with seeded sizes in narrow ranges, so every seed
    // asks for about the same amount of VM work and every sample has the
    // same mix.
    let mut r = rng(seed ^ 0x0C0_3B7E);
    let pool = (0..48)
        .map(|i| match i % 6 {
            0..=3 => ProgSpec::Countdown {
                k: r.gen_range(1..=12),
                iters: r.gen_range(36_000..44_000),
                j: r.gen_range(0..1000),
            },
            4 => ProgSpec::Perfect { depth: 7 },
            _ => ProgSpec::Show {
                len: r.gen_range(400..=500),
            },
        })
        .collect();
    Workload {
        pool,
        decls: perfect_decls,
        prelude_depth: 12,
        oneshot: 36,
        traced: 96,
    }
}

/// What one worker measured at one load level.
struct WorkerOut {
    latencies_ms: Vec<f64>,
    busy: Duration,
    start: Instant,
    end: Instant,
    failed: u64,
    mismatches: u64,
    metrics: MetricsRegistry,
}

/// One load level: `workers` warm sessions run the pool round-robin for
/// `secs` seconds after a common start barrier.
fn level(w: &Workload, expected: &[String], workers: usize, secs: f64) -> Vec<WorkerOut> {
    let rounds: Vec<usize> = (0..1_000_000 / ROUND).collect();
    let barrier = Barrier::new(workers);
    run_batch_scoped(rounds, workers, |_, source| {
        let decls = (w.decls)();
        let prelude = Prelude::chain(w.prelude_depth);
        let programs: Vec<_> = w.pool.iter().map(|s| s.materialize()).collect();
        let mut session = layers::vm_session(&decls, &prelude);
        for p in programs.iter().take(ROUND) {
            let _ = session.run_compiled(&p.expr);
        }
        barrier.wait();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        let mut out = WorkerOut {
            latencies_ms: Vec::new(),
            busy: Duration::ZERO,
            start,
            end: start,
            failed: 0,
            mismatches: 0,
            metrics: MetricsRegistry::new(),
        };
        'jobs: for (_, round) in source {
            for i in round * ROUND..(round + 1) * ROUND {
                let idx = i % programs.len();
                let t = Instant::now();
                let r = session.run_compiled(&programs[idx].expr);
                let took = t.elapsed();
                out.busy += took;
                out.latencies_ms.push(ms(took));
                match r {
                    Ok(o) if o.value.to_string() == expected[idx] => {}
                    Ok(_) => out.mismatches += 1,
                    Err(_) => out.failed += 1,
                }
                if Instant::now() >= deadline {
                    break 'jobs;
                }
            }
        }
        out.end = Instant::now();
        out.metrics = session.metrics();
        out
    })
}

/// The windowed p99 over every worker's samples.
fn tail(outs: &[WorkerOut]) -> f64 {
    let sources: Vec<&[f64]> = outs.iter().map(|o| o.latencies_ms.as_slice()).collect();
    windowed_quantile(&sources, 0.99)
}

fn merged(outs: &[WorkerOut]) -> Vec<f64> {
    outs.iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect()
}

pub fn run_batch(args: &Args) -> Result<Report, String> {
    run(args, batch_compile(args.seed))
}

pub fn run_vm(args: &Args) -> Result<Report, String> {
    run(args, vm_compute(args.seed))
}

fn run(args: &Args, w: Workload) -> Result<Report, String> {
    let mut report = Report::default();
    let decls = (w.decls)();
    let mut expected: Vec<String> = w.pool.iter().map(|s| s.expected(&decls)).collect();
    if args.corrupt_expected {
        expected[0].push_str("-corrupted");
    }
    let prelude = Prelude::chain(w.prelude_depth);

    // Set-up: `Session::new` → first value (the same small chain query
    // for every seed), in groups; the first group's last session stays
    // warm for the traced pass.
    let first = ProgSpec::Chain { k: 1, j: 1 };
    let (first_expr, first_want) = (first.materialize().expr, first.expected(&decls));
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut set_up_group = |report: &mut Report| {
        let mut last = None;
        for _ in 0..SETUP_GROUP {
            let t = Instant::now();
            let mut s = layers::vm_session(&decls, &prelude);
            builds.push(ms(t.elapsed()));
            let value = s.run_compiled(&first_expr);
            setups.push(t.elapsed().as_secs_f64());
            if value.ok().map(|o| o.value.to_string()) != Some(first_want.clone()) {
                report.mismatches += 1;
            }
            last = Some(s);
        }
        last.expect("a group holds at least one set-up")
    };
    let mut session = set_up_group(&mut report);

    // Peak footprint of a warm session that has run every program once,
    // on this thread alone. The load levels add per-thread allocator
    // arenas whose number follows thread timing, not the program.
    for p in w.pool.iter().map(|s| s.materialize()) {
        let _ = session.run_compiled(&p.expr);
    }
    let rss = peak_rss_mb("self");

    let secs = args.seconds;
    let mut high = Vec::new();
    let mut wall = Duration::ZERO;
    for i in 0..2 {
        if i > 0 {
            set_up_group(&mut report);
        }
        let half = level(&w, &expected, 2, secs * HIGH_SHARE / 2.0);
        wall += half.iter().map(|o| o.end).max().expect("workers ran")
            - half.iter().map(|o| o.start).min().expect("workers ran");
        high.extend(half);
    }
    set_up_group(&mut report);
    let low = level(&w, &expected, 1, secs * (1.0 - HIGH_SHARE));
    set_up_group(&mut report);
    for o in low.iter().chain(&high) {
        report.attempted += o.latencies_ms.len() as u64;
        report.failed += o.failed;
        report.mismatches += o.mismatches;
    }
    let (low_lat, high_lat) = (merged(&low), merged(&high));
    let setup_s = interquartile_mean(&setups);
    let throughput = high_lat.len() as f64 / wall.as_secs_f64();

    // Single shot: the prelude re-elaborated with every program.
    let policy = ResolutionPolicy::paper();
    let mut oneshot = Vec::new();
    for (spec, want) in w.pool.iter().zip(&expected).take(w.oneshot) {
        let p = spec.materialize();
        let wrapped = prelude.wrap(p.expr, p.ty);
        let t = Instant::now();
        let r = implicit_elab::run_with(&decls, &wrapped, &policy);
        oneshot.push(ms(t.elapsed()));
        if r.ok().map(|o| o.value.to_string()).as_ref() != Some(want) {
            report.mismatches += 1;
        }
    }

    report.print_only("setup_s", setup_s, "s", setups.len());
    report.print_only("peak_rss_mb", rss, "MB", 1);
    report.print_only(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
        "1",
        report.attempted as usize,
    );
    report.print_only("throughput_per_s", throughput, "1/s", high_lat.len());
    report.print_only("p50_ms", quantile(&high_lat, 0.5), "ms", high_lat.len());
    report.print_only("p99_ms", tail(&high), "ms", high_lat.len());
    report.print_only(
        "p50_ms_1_worker",
        quantile(&low_lat, 0.5),
        "ms",
        low_lat.len(),
    );
    report.print_only("p99_ms_1_worker", tail(&low), "ms", low_lat.len());
    report.print_only("oneshot_p50_ms", median(&oneshot), "ms", oneshot.len());

    if args.trace {
        traced(
            &mut report,
            &w,
            &mut session,
            &decls,
            &prelude,
            &high,
            &builds,
        );
    } else {
        report.put("setup_s", setup_s, "s", setups.len());
        report.put("peak_rss_mb", rss, "MB", 1);
        report.put("throughput_per_s", throughput, "1/s", high_lat.len());
        report.put("p50_ms", quantile(&high_lat, 0.5), "ms", high_lat.len());
        report.put("p90_ms", quantile(&high_lat, 0.9), "ms", high_lat.len());
    }
    Ok(report)
}

fn traced(
    report: &mut Report,
    w: &Workload,
    session: &mut implicit_pipeline::Session<'_>,
    decls: &Declarations,
    prelude: &Prelude,
    high: &[WorkerOut],
    builds: &[f64],
) {
    let specs = &w.pool[..w.traced.min(w.pool.len())];
    let programs: Vec<_> = specs.iter().map(|s| s.materialize()).collect();
    let policy = ResolutionPolicy::paper();
    for p in &programs {
        let _ = session.run_compiled(&p.expr);
    }

    // Untraced and traced runs of every sample program, interleaved.
    let mut mirror = MirrorElab::new(decls, &policy, session.env());
    let (timer, sink) = PhaseTimer::shared();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut elab, mut pres, mut compile, mut vm) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut bookkeeping = Vec::new();
    for p in &programs {
        let t = Instant::now();
        let _ = session.run_compiled(&p.expr);
        untraced.push(us(t.elapsed()));
        elab.push(us(mirror.time(&p.expr).0));
        timer.borrow_mut().reset();
        session.set_trace(Some(sink.clone()));
        let t = Instant::now();
        let _ = session.run_compiled(&p.expr);
        let call = t.elapsed();
        traced.push(us(call));
        session.set_trace(None);
        let tm = timer.borrow();
        pres.push(us(tm.get(Phase::Preservation)));
        compile.push(us(tm.get(Phase::Compile)));
        vm.push(us(tm.get(Phase::Vm)));
        bookkeeping.push(layers::bookkeeping(call, &tm));
    }

    // Resolution by direct calls on the warm environment: the chain
    // query each chain-shaped program makes.
    let (mut res, mut explain, mut steps) = (Vec::new(), Vec::new(), 0u64);
    for spec in specs {
        let (ProgSpec::Chain { k, .. } | ProgSpec::Countdown { k, .. }) = *spec else {
            continue;
        };
        let q = Prelude::chain_head(k).promote();
        let t = Instant::now();
        let r = resolve(session.env(), &q, &policy);
        res.push(us(t.elapsed()));
        if let Ok(r) = r {
            let t = Instant::now();
            let _ = r.explain();
            explain.push(us(t.elapsed()));
            steps += r.steps() as u64;
        }
    }

    // Text front end and protocol framing for the same programs.
    let (mut parse, mut decode, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let (mut text_bytes, mut skipped) = (0usize, 0usize);
    let mut buf = Vec::new();
    for p in &programs {
        let (text, rt) = layers::roundtrip(&p.expr);
        if rt != Roundtrip::Same {
            skipped += 1;
            continue;
        }
        let t = Instant::now();
        let _ = implicit_core::parse::parse_expr(&text);
        parse.push(us(t.elapsed()));
        text_bytes += text.len();
        let frame = layers::frame_bytes(&Json::obj(vec![
            ("op", Json::Str("eval".into())),
            ("tenant", Json::Str("t".into())),
            ("program", Json::Str(text)),
        ]));
        decode.push(us(layers::decode(&frame).0));
        let reply = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("value", Json::Str(String::new())),
            ("type", Json::Str(p.ty.to_string())),
        ]);
        encode.push(us(layers::encode(&reply, &mut buf)));
    }
    let pings = ping_in_process();
    let (enc, dec, bytes) = layers::artifact_timings(session, decls, prelude);

    let mut m = MetricsRegistry::new();
    for o in high {
        m.merge(&o.metrics);
    }
    let busy: Vec<f64> = high.iter().map(|o| o.busy.as_secs_f64()).collect();
    let spans: Vec<f64> = high
        .iter()
        .map(|o| (o.end - o.start).as_secs_f64())
        .collect();
    let busy_frac = mean(
        &busy
            .iter()
            .zip(&spans)
            .map(|(b, s)| b / s.max(1e-9))
            .collect::<Vec<_>>(),
    );
    let imbalance = busy.iter().copied().fold(0.0, f64::max) / mean(&busy).max(1e-9) - 1.0;

    let n = programs.len();
    report.put("service.decode_us", mean(&decode), "us", decode.len());
    report.put("service.encode_us", mean(&encode), "us", encode.len());
    report.put("service.ping_us", median(&pings), "us", pings.len());
    report.put("parse.us_per_req", mean(&parse), "us", parse.len());
    report.put(
        "parse.mb_per_s",
        text_bytes as f64 / parse.iter().sum::<f64>().max(1e-9),
        "MB/s",
        parse.len(),
    );
    report.put("parse.roundtrip_skipped", skipped as f64, "count", n);
    report.put("parse.roundtrip_generated", n as f64, "count", 1);
    let ratio = |h: u64, m: u64| {
        if h + m > 0 {
            h as f64 / (h + m) as f64
        } else {
            0.0
        }
    };
    report.put("resolve.us_per_query", mean(&res), "us", res.len());
    report.put("resolve.explain_us", mean(&explain), "us", explain.len());
    report.put("resolve.steps", steps as f64, "count", res.len());
    report.put("resolve.cache_hits", m.cache_hits as f64, "count", 1);
    report.put("resolve.cache_misses", m.cache_misses as f64, "count", 1);
    report.put(
        "resolve.cache_hit_ratio",
        ratio(m.cache_hits, m.cache_misses),
        "ratio",
        1,
    );
    report.put("elab.us_per_program", mean(&elab), "us", n);
    report.put("preservation.us_per_program", mean(&pres), "us", n);
    report.put("compile.us_per_program", mean(&compile), "us", n);
    report.put(
        "compile.instrs_scanned",
        m.instrs_scanned as f64,
        "count",
        1,
    );
    report.put("compile.fused", m.instrs_fused as f64, "count", 1);
    report.put("vm.us_per_program", mean(&vm), "us", n);
    report.put("vm.fuel", m.vm_fuel as f64, "count", 1);
    report.put("vm.tail_calls", m.vm_tail_calls as f64, "count", 1);
    report.put(
        "vm.match_ic_hit_ratio",
        ratio(m.vm_match_ic_hits, m.vm_match_ic_misses),
        "ratio",
        1,
    );
    report.put(
        "session.prelude_build_ms",
        median(builds),
        "ms",
        builds.len(),
    );
    report.put("session.bookkeeping_us", mean(&bookkeeping), "us", n);
    report.put(
        "session.trims",
        m.trims as f64,
        "count",
        m.programs as usize,
    );
    report.put("artifact.decode_ms", ms(dec), "ms", 1);
    report.put("artifact.encode_ms", ms(enc), "ms", 1);
    report.put("artifact.bytes", bytes as f64, "bytes", 1);
    report.put("driver.worker_busy_frac", busy_frac, "ratio", high.len());
    report.put("driver.imbalance", imbalance, "ratio", high.len());

    let e2e = mean(&untraced);
    let layer_sum = mean(&elab) + mean(&pres) + mean(&compile) + mean(&vm) + mean(&bookkeeping);
    report.put("e2e.us_per_op", e2e, "us", n);
    report.put("unaccounted.us_per_op", e2e - layer_sum, "us", n);
    report.put(
        "unaccounted.share_pct",
        100.0 * (e2e - layer_sum) / e2e,
        "%",
        n,
    );
    report.put(
        "trace.overhead_pct",
        100.0 * (traced.iter().sum::<f64>() / untraced.iter().sum::<f64>() - 1.0),
        "%",
        n,
    );
    let shares = [
        ("elab", mean(&elab)),
        ("preservation", mean(&pres)),
        ("compile", mean(&compile)),
        ("vm", mean(&vm)),
        ("session", mean(&bookkeeping)),
    ];
    crate::note_shares(report, &shares, e2e);
}

/// `Client::ping` round trips against an in-process daemon.
fn ping_in_process() -> Vec<f64> {
    let Ok(mut d) = Daemon::start(DaemonConfig::default()) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    if let Ok(mut c) = Client::connect(d.addr()) {
        for _ in 0..200 {
            let t = Instant::now();
            if c.ping().is_err() {
                break;
            }
            out.push(us(t.elapsed()));
        }
    }
    d.shutdown();
    out
}
