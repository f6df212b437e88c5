//! The B13 speedup table, measured directly (not via Criterion) so a
//! single release run prints the exact markdown recorded in
//! `EXPERIMENTS.md` §6:
//!
//! ```text
//! cargo test -p implicit-bench --release --test batch_table -- --ignored --nocapture
//! ```
//!
//! Also writes the `b13` section of the repo-root `BENCH_vm.json`
//! artifact (series, workers, cpus, ms, speedup, checksum) for CI
//! upload. Multi-worker series are skipped outright on single-CPU
//! runners: with one core they would measure scheduler contention,
//! not scaling, and a misleading row is worse than a missing one.
//!
//! The last row is the prelude-independence bar: the same mixed pool
//! of generated data programs and shallow chain queries, run warm on a
//! chain-64 and on a chain-8 session, must cost at most 1.5× as much
//! per program on the larger prelude.

use std::time::Instant;

use genprog::{data_prelude, gen_data_program, rng, GenConfig};
use implicit_bench::report::{detected_parallelism, write_section, BenchRow};
use implicit_bench::{
    batch_checksum, batch_metrics, batch_program, run_batch_cold, run_batch_warm,
};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::syntax::Expr;
use implicit_pipeline::{Backend, Prelude, Session};

const DEPTH: usize = 48;
const PROGRAMS: usize = 256;
const REPS: u32 = 3;

/// Prelude depths the independence row compares, the programs in its
/// pool, and the interleaved pairs it takes the median of.
const SMALL_PRELUDE: usize = 8;
const LARGE_PRELUDE: usize = 64;
const MIXED_POOL: usize = 256;
const PAIRS: usize = 7;
/// Largest accepted ratio of per-program time on the large prelude to
/// that on the small one.
const INDEPENDENCE_BAR: f64 = 1.5;

/// Times `f` (seconds per batch, best of [`REPS`] after one warmup),
/// asserting the checksum on every run.
fn time(f: impl Fn() -> i64, expect: i64) -> f64 {
    assert_eq!(f(), expect);
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        assert_eq!(f(), expect);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

#[test]
#[ignore = "B13 measurement; run in release with --ignored --nocapture"]
fn batch_speedup_table() {
    let cpus = detected_parallelism();
    let expect = batch_checksum(DEPTH, PROGRAMS);
    let cold = time(|| run_batch_cold(DEPTH, PROGRAMS, 1), expect);
    println!();
    println!("B13: {PROGRAMS} programs, chain depth {DEPTH}, best of {REPS} ({cpus} CPUs)");
    println!();
    println!("| series | workers | time/batch | speedup vs cold |");
    println!("|---|---|---|---|");
    println!("| cold one-shot | 1 | {:.1} ms | 1.00x |", cold * 1e3);
    let mut rows = vec![BenchRow {
        series: "cold one-shot".to_string(),
        workers: 1,
        cpus,
        ms: cold * 1e3,
        speedup: 1.0,
        checksum: expect.unsigned_abs(),
    }];
    let mut warm_at = Vec::new();
    for m in [1usize, 2, 4, 8] {
        if m > 1 && cpus == 1 {
            println!("| warm session | {m} | skipped (single-CPU runner) | — |");
            continue;
        }
        let t = time(|| run_batch_warm(DEPTH, PROGRAMS, m), expect);
        warm_at.push((m, t));
        println!(
            "| warm session | {m} | {:.1} ms | {:.2}x |",
            t * 1e3,
            cold / t
        );
        rows.push(BenchRow {
            series: "warm session".to_string(),
            workers: m,
            cpus,
            ms: t * 1e3,
            speedup: cold / t,
            checksum: expect.unsigned_abs(),
        });
    }
    println!();
    let (per_program, ratio) = prelude_independence();
    println!(
        "prelude independence: {:.1} µs/program on chain-{LARGE_PRELUDE}, {ratio:.2}x the \
         chain-{SMALL_PRELUDE} time (median of {PAIRS} interleaved pairs)",
        per_program * 1e6
    );
    rows.push(BenchRow::single(
        &format!("mixed pool, chain-{LARGE_PRELUDE} vs chain-{SMALL_PRELUDE}"),
        per_program * 1e3,
        1.0 / ratio,
        MIXED_POOL as u64,
    ));
    println!();
    let path = write_section("b13", &rows);
    println!("wrote {}", path.display());
    println!();
    // Per-series resolution metrics for the warm single-worker run
    // (the unified `MetricsRegistry` snapshot; see DESIGN.md S28).
    let m = batch_metrics(DEPTH, None, PROGRAMS, Backend::Tree);
    println!("warm session metrics (1 worker):");
    println!();
    print!("{}", m.render_table());
    println!();
    assert_eq!(m.programs, PROGRAMS as u64);
    assert!(
        m.cache_hits > m.cache_misses,
        "warm batch should answer most queries from the derivation cache \
         ({} hits / {} misses)",
        m.cache_hits,
        m.cache_misses
    );
    let warm1 = warm_at[0].1;
    assert!(
        cold / warm1 >= 2.0,
        "warm single-thread speedup {:.2}x is below the 2x acceptance bar",
        cold / warm1
    );
    // Scaling bar only where scaling is physically possible.
    if let Some(&(_, warm4)) = warm_at.iter().find(|&&(m, _)| m == 4) {
        assert!(
            cold / warm4 >= 3.0,
            "warm 4-thread speedup {:.2}x is below the 3x acceptance bar",
            cold / warm4
        );
    } else {
        println!("4-worker acceptance bar skipped: single-CPU runner");
    }
    assert!(
        ratio <= INDEPENDENCE_BAR,
        "a warm program costs {ratio:.2}x as much on chain-{LARGE_PRELUDE} as on \
         chain-{SMALL_PRELUDE}; the bar is {INDEPENDENCE_BAR}x"
    );
}

/// A seeded pool like the benchmark's `batch_compile` one: every fourth
/// program a chain query at depth ≤ [`SMALL_PRELUDE`] (so both
/// preludes answer it), the rest generated data programs.
fn mixed_pool() -> Vec<Expr> {
    (0..MIXED_POOL)
        .map(|i| {
            if i % 4 == 3 {
                batch_program(1 + i % SMALL_PRELUDE, i as i64)
            } else {
                gen_data_program(&mut rng(0xB13 + i as u64), &GenConfig::default()).expr
            }
        })
        .collect()
}

/// Seconds per program for one warm pass of `pool` on `session`.
fn per_program(session: &mut Session<'_>, pool: &[Expr]) -> f64 {
    let t0 = Instant::now();
    for e in pool {
        session
            .run_compiled(e)
            .expect("pool programs run on both preludes");
    }
    t0.elapsed().as_secs_f64() / pool.len() as f64
}

/// Warm per-program time of the mixed pool on the large prelude, and
/// the median over [`PAIRS`] interleaved passes of its ratio to the
/// small prelude's time (the host's speed drifts between passes, not
/// within a pair).
fn prelude_independence() -> (f64, f64) {
    let decls = data_prelude();
    let pool = mixed_pool();
    let policy = ResolutionPolicy::paper();
    let session = |depth| Session::new(&decls, policy.clone(), &Prelude::chain(depth)).unwrap();
    let (mut small, mut large) = (session(SMALL_PRELUDE), session(LARGE_PRELUDE));
    per_program(&mut small, &pool);
    per_program(&mut large, &pool);
    let mut large_times = Vec::with_capacity(PAIRS);
    let mut ratios = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let s = per_program(&mut small, &pool);
        let l = per_program(&mut large, &pool);
        large_times.push(l);
        ratios.push(l / s);
    }
    (median(large_times), median(ratios))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}
