//! The B14 speedup table, measured directly (not via Criterion) so a
//! single release run prints the exact markdown recorded in
//! `EXPERIMENTS.md` §11:
//!
//! ```text
//! cargo test -p implicit-bench --release --test vm_table -- --ignored --nocapture
//! ```
//!
//! Also writes the `b14` section of the repo-root `BENCH_vm.json`
//! artifact (series, ms, speedup, checksum) for CI upload.

use std::time::Instant;

use implicit_bench::report::{detected_parallelism, write_section, BenchRow};
use implicit_bench::{batch_checksum, batch_metrics, run_vm_batch_cold, run_vm_batch_warm};
use implicit_pipeline::Backend;

const DEPTH: usize = 16;
const ITERS: i64 = 20_000;
const PROGRAMS: usize = 96;
const REPS: u32 = 3;
/// Interleaved tree/VM pairs behind the asserted speedup (odd, so the
/// median is one pair's ratio).
const PAIRS: usize = 7;

/// Seconds for one run of `f`, asserting its checksum.
fn once(f: &dyn Fn() -> i64, expect: i64) -> f64 {
    let t0 = Instant::now();
    assert_eq!(f(), expect);
    t0.elapsed().as_secs_f64()
}

/// Times `f` (seconds per batch, best of [`REPS`] after one warmup),
/// asserting the checksum on every run.
fn time(f: impl Fn() -> i64, expect: i64) -> f64 {
    assert_eq!(f(), expect);
    (0..REPS)
        .map(|_| once(&f, expect))
        .fold(f64::INFINITY, f64::min)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times `tree` and `vm` in [`PAIRS`] back-to-back pairs after one
/// warmup each, alternating which of the two runs first. Returns the
/// median seconds of each and the median of the per-pair `tree / vm`
/// ratios. A host that changes speed between pairs slows both halves
/// of a pair alike, so the ratio holds where best-of-N of each, taken
/// at different moments, does not.
fn paired(tree: impl Fn() -> i64, vm: impl Fn() -> i64, expect: i64) -> (f64, f64, f64) {
    once(&tree, expect);
    once(&vm, expect);
    let (mut ts, mut vs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..PAIRS {
        let (t, v) = if i % 2 == 0 {
            let t = once(&tree, expect);
            (t, once(&vm, expect))
        } else {
            let v = once(&vm, expect);
            (once(&tree, expect), v)
        };
        ts.push(t);
        vs.push(v);
        ratios.push(t / v);
    }
    (median(ts), median(vs), median(ratios))
}

#[test]
#[ignore = "B14 measurement; run in release with --ignored --nocapture"]
fn vm_speedup_table() {
    // The metrics legs run the tree walker on this thread; its
    // recursion over the 20k-iteration loop needs more than the
    // default test-thread stack.
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(table_body)
        .unwrap()
        .join()
        .unwrap();
}

fn table_body() {
    let cpus = detected_parallelism();
    let expect = batch_checksum(DEPTH, PROGRAMS);
    let (tree1, vm1, vm_speedup) = paired(
        || run_vm_batch_warm(DEPTH, ITERS, PROGRAMS, 1, Backend::Tree),
        || run_vm_batch_warm(DEPTH, ITERS, PROGRAMS, 1, Backend::Vm),
        expect,
    );
    println!();
    println!(
        "B14: {PROGRAMS} programs, {ITERS}-iteration fix loop, chain depth {DEPTH} \
         ({cpus} CPUs). Warm 1-worker rows: medians of {PAIRS} interleaved tree/VM \
         pairs, and the VM's speedup is the median per-pair ratio; other rows: \
         best of {REPS}."
    );
    println!();
    println!("| series | workers | time/batch | speedup vs warm tree |");
    println!("|---|---|---|---|");
    println!("| tree-walk, warm | 1 | {:.1} ms | 1.00x |", tree1 * 1e3);
    // Multi-worker series only where scaling is physically possible:
    // on a 1-CPU runner a "4 workers" time is contention, and the row
    // is dropped from both the table and the artifact.
    let tree4 = (cpus > 1).then(|| {
        let t = time(
            || run_vm_batch_warm(DEPTH, ITERS, PROGRAMS, 4, Backend::Tree),
            expect,
        );
        println!(
            "| tree-walk, warm | 4 | {:.1} ms | {:.2}x |",
            t * 1e3,
            tree1 / t
        );
        t
    });
    if tree4.is_none() {
        println!("| tree-walk, warm | 4 | skipped (single-CPU runner) | — |");
    }
    let vm_cold = time(
        || run_vm_batch_cold(DEPTH, ITERS, PROGRAMS, 1, Backend::Vm),
        expect,
    );
    println!(
        "| register vm, cold (prelude recompiled per program) | 1 | {:.1} ms | {:.2}x |",
        vm_cold * 1e3,
        tree1 / vm_cold
    );
    println!(
        "| register vm, warm-compiled | 1 | {:.1} ms | {vm_speedup:.2}x |",
        vm1 * 1e3,
    );
    let vm4 = (cpus > 1).then(|| {
        let t = time(
            || run_vm_batch_warm(DEPTH, ITERS, PROGRAMS, 4, Backend::Vm),
            expect,
        );
        println!(
            "| register vm, warm-compiled | 4 | {:.1} ms | {:.2}x |",
            t * 1e3,
            tree1 / t
        );
        t
    });
    if vm4.is_none() {
        println!("| register vm, warm-compiled | 4 | skipped (single-CPU runner) | — |");
    }
    println!();
    // (label, workers, seconds, speedup vs warm tree)
    let mut series: Vec<(&str, usize, f64, f64)> = vec![
        ("tree-walk, warm", 1, tree1, 1.0),
        ("register vm, cold", 1, vm_cold, tree1 / vm_cold),
        ("register vm, warm", 1, vm1, vm_speedup),
    ];
    if let Some(t) = tree4 {
        series.insert(1, ("tree-walk, warm", 4, t, tree1 / t));
    }
    if let Some(t) = vm4 {
        series.push(("register vm, warm", 4, t, tree1 / t));
    }
    let rows: Vec<BenchRow> = series
        .iter()
        .map(|&(label, workers, t, speedup)| BenchRow {
            series: format!(
                "{label}, {workers} worker{}",
                if workers == 1 { "" } else { "s" }
            ),
            workers,
            cpus,
            ms: t * 1e3,
            speedup,
            checksum: expect.unsigned_abs(),
        })
        .collect();
    let path = write_section("b14", &rows);
    println!("wrote {}", path.display());
    println!();
    // Per-series evaluator metrics: the same warm batch once per
    // backend, through the unified `MetricsRegistry` snapshot. The
    // VM's charged fuel stays under the tree-walker's (tail calls
    // reuse frames, the unfold cache kills fix re-unfolding) — the
    // discrete shape behind the speedup column above.
    let tree_m = batch_metrics(DEPTH, Some(ITERS), PROGRAMS, Backend::Tree);
    let vm_m = batch_metrics(DEPTH, Some(ITERS), PROGRAMS, Backend::Vm);
    println!("warm tree metrics (1 worker):");
    println!();
    print!("{}", tree_m.render_table());
    println!();
    println!("warm register-vm metrics (1 worker):");
    println!();
    print!("{}", vm_m.render_table());
    println!();
    assert_eq!(tree_m.tree_runs, PROGRAMS as u64);
    assert_eq!(vm_m.vm_runs, PROGRAMS as u64);
    assert!(
        vm_m.vm_fuel <= tree_m.tree_fuel,
        "vm charged {} fuel, tree {} — the VM must not do more steps",
        vm_m.vm_fuel,
        tree_m.tree_fuel
    );
    assert!(vm_m.vm_tail_calls > 0, "the fix loop runs via TailCall");
    assert!(
        vm_m.instrs_fused > 0,
        "superinstruction fusion never fired on the B14 loop"
    );
    assert!(
        vm_m.ic_hits > 0,
        "the dictionary inline cache never hit across {PROGRAMS} repeated ground queries"
    );
    assert!(
        vm_speedup >= 9.0,
        "warm register VM speedup {vm_speedup:.2}x over the tree-walker (median of {PAIRS} \
         interleaved pairs) is below the 9x acceptance bar"
    );
}
