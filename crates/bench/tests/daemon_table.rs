//! The B17 daemon-service table, measured directly (not via
//! Criterion) so a single release run prints the exact markdown
//! recorded in `EXPERIMENTS.md` §13 (the exact-hit open leg: §15):
//!
//! ```text
//! cargo test -p implicit-bench --release --test daemon_table -- --ignored --nocapture
//! ```
//!
//! One in-process `implicitd` serves a chain-prelude tenant; the legs
//! measure what residency is worth end-to-end (framing, socket, and
//! admission queue included in every number):
//!
//! - **cold-per-request** — every request opens a fresh tenant
//!   (prelude recompiled from source), evaluates, and closes: the
//!   no-daemon baseline a CLI invocation pays;
//! - **warm resident, 1 client** — one tenant compiled once, then
//!   sequential requests against the warm session;
//! - **warm resident, soak concurrency** — the same tenant under
//!   concurrent clients, client-side per-request latencies recorded
//!   for p50/p99.
//!
//! - **exact-hit open** — a second daemon with an artifact store and
//!   a chain-48 prelude: the `open` round trip of a tenant whose
//!   artifact is already in the store, paired with the same ladder run
//!   in process (`parse_program` + `Prelude::from_wrapped` +
//!   `load_or_build` on the same store).
//!
//! Acceptance bars pin the daemon's reason to exist: warm resident
//! throughput must be ≥ 3x cold-per-request (the tenant genuinely
//! amortizes the prelude), at soak concurrency p99 must stay ≤ 5x
//! p50 (the admission queue bounds latency spread rather than letting
//! stragglers pile up), and an exact-hit open must cost at most 2x
//! the in-process ladder (median of interleaved pair ratios): the
//! service adds framing and a thread, not work that grows with the
//! prelude.
//!
//! Also writes the `b17` section of the repo-root `BENCH_vm.json`
//! artifact for CI upload.

use std::time::Instant;

use implicit_bench::report::{detected_parallelism, write_section, BenchRow};
use implicit_core::parse::parse_program;
use implicit_core::syntax::Declarations;
use implicit_pipeline::artifact::{load_or_build, ArtifactStore, LoadOutcome};
use implicit_pipeline::service::{prelude_source, Client, Daemon, DaemonConfig};
use implicit_pipeline::{Backend, Prelude};

const DEPTH: usize = 12;
const COLD_REQUESTS: usize = 24;
const WARM_REQUESTS: usize = 600;
const SOAK_CLIENTS: usize = 4;
const QUERY: &str = "?(Int * Int)";
/// Chain depth of the exact-hit open leg (the `ide_daemon` benchmark
/// workload's compile tenant).
const OPEN_DEPTH: usize = 48;
/// Interleaved daemon/in-process pairs behind the exact-hit open bar
/// (odd, so the median is one pair's ratio).
const OPEN_PAIRS: usize = 7;

/// Per-request work for the warm legs: evaluate the chain query and
/// fold the reply into a checksum so the measurement cannot be
/// optimized into not reading responses.
fn checked_eval(client: &mut Client, tenant: &str) -> u64 {
    let (value, ty) = client.eval(tenant, QUERY).expect("warm eval");
    (value.len() + ty.len()) as u64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The exact-hit open leg: median seconds of the daemon `open` round
/// trip, median seconds of the in-process ladder, and the median of
/// the per-pair `daemon / in-process` ratios. The store is warmed by
/// one untimed open/close; each pair alternates which half runs
/// first, and the daemon's `close` (which flushes the artifact) stays
/// outside the timed region.
fn exact_hit_open() -> (f64, f64, f64) {
    let dir = std::env::temp_dir().join(format!("implicit-b17-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = DaemonConfig {
        cache_dir: Some(dir.clone()),
        ..DaemonConfig::default()
    };
    let (policy, fusion, dict_ic) = (config.policy.clone(), config.fusion, config.dict_ic);
    let d = Daemon::start(config).expect("daemon starts");
    let mut c = Client::connect(d.addr()).unwrap();
    let prelude = prelude_source(&Prelude::chain(OPEN_DEPTH));
    let store = ArtifactStore::new(&dir).unwrap();
    let isa = Backend::Vm.isa().unwrap_or_default();

    let daemon_open = |c: &mut Client, tenant: &str| {
        let t0 = Instant::now();
        let load = c.open_prelude(tenant, &prelude, Backend::Vm).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        c.close(tenant).unwrap();
        (load, secs)
    };
    let in_process = || {
        let t0 = Instant::now();
        let (decls, wrapped) = parse_program(&prelude).unwrap();
        let decls = if decls.is_empty() {
            Declarations::new()
        } else {
            decls
        };
        let p = Prelude::from_wrapped(&wrapped).unwrap();
        let (session, outcome) =
            load_or_build(&store, &decls, &policy, &p, fusion, dict_ic, isa).unwrap();
        let secs = t0.elapsed().as_secs_f64();
        drop(session);
        assert!(
            matches!(outcome, LoadOutcome::Exact),
            "in-process exact hit"
        );
        secs
    };

    assert_eq!(daemon_open(&mut c, "warmup").0, "cold");
    let (mut ds, mut ps, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..OPEN_PAIRS {
        let tenant = format!("open-{i}");
        let ((load, d_s), p_s) = if i % 2 == 0 {
            let d = daemon_open(&mut c, &tenant);
            (d, in_process())
        } else {
            let p = in_process();
            (daemon_open(&mut c, &tenant), p)
        };
        assert_eq!(load, "exact", "daemon open {i} is an exact hit");
        ds.push(d_s);
        ps.push(p_s);
        ratios.push(d_s / p_s);
    }
    drop(c);
    drop(d);
    let _ = std::fs::remove_dir_all(&dir);
    (median(ds), median(ps), median(ratios))
}

#[test]
#[ignore = "B17 measurement; run in release with --ignored --nocapture"]
fn daemon_table() {
    let cpus = detected_parallelism();
    let d = Daemon::start(DaemonConfig {
        max_tenants: SOAK_CLIENTS + 2,
        ..DaemonConfig::default()
    })
    .expect("daemon starts");
    let addr = d.addr();
    let prelude = prelude_source(&Prelude::chain(DEPTH));

    // --- Cold-per-request: open + eval + close, every time. -------
    let mut c = Client::connect(addr).unwrap();
    let mut cold_checksum = 0u64;
    let t0 = Instant::now();
    for i in 0..COLD_REQUESTS {
        let tenant = format!("cold-{i}");
        c.open_prelude(&tenant, &prelude, Backend::Vm).unwrap();
        cold_checksum += checked_eval(&mut c, &tenant);
        c.close(&tenant).unwrap();
    }
    let cold_s = t0.elapsed().as_secs_f64();
    let cold_rps = COLD_REQUESTS as f64 / cold_s;

    // --- Warm resident, 1 client. ---------------------------------
    c.open_prelude("warm", &prelude, Backend::Vm).unwrap();
    let mut warm_checksum = checked_eval(&mut c, "warm"); // warmup
    let t0 = Instant::now();
    for _ in 0..WARM_REQUESTS {
        warm_checksum += checked_eval(&mut c, "warm");
    }
    let warm_s = t0.elapsed().as_secs_f64();
    let warm_rps = WARM_REQUESTS as f64 / warm_s;

    // --- Warm resident under soak concurrency. --------------------
    let t0 = Instant::now();
    let mut latencies_us: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SOAK_CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("soak client");
                    let mut lat = Vec::with_capacity(WARM_REQUESTS / SOAK_CLIENTS);
                    let mut sum = 0u64;
                    for _ in 0..WARM_REQUESTS / SOAK_CLIENTS {
                        let t = Instant::now();
                        sum += checked_eval(&mut client, "warm");
                        lat.push(t.elapsed().as_micros() as u64);
                    }
                    (lat, sum)
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            let (lat, sum) = h.join().unwrap();
            all.extend(lat);
            warm_checksum += sum;
        }
        all
    });
    let soak_s = t0.elapsed().as_secs_f64();
    let soak_total = latencies_us.len();
    let soak_rps = soak_total as f64 / soak_s;
    latencies_us.sort_unstable();
    let p50 = latencies_us[soak_total / 2];
    let p99 = latencies_us[(soak_total * 99 / 100).min(soak_total - 1)];

    let (open_s, ladder_s, open_ratio) = exact_hit_open();

    // Every leg computed the same per-request answer.
    let per_request = cold_checksum / COLD_REQUESTS as u64;
    assert_eq!(
        warm_checksum % per_request,
        0,
        "legs disagreed on the reply"
    );

    println!();
    println!(
        "B17: chain depth {DEPTH}, query `{QUERY}`, {COLD_REQUESTS} cold / \
         {WARM_REQUESTS} warm requests, soak {SOAK_CLIENTS} clients ({cpus} CPUs)"
    );
    println!();
    println!("| series | clients | req/s | p50 | p99 |");
    println!("|---|---|---|---|---|");
    println!(
        "| cold-per-request | 1 | {cold_rps:.0} | {:.1} ms | — |",
        cold_s / COLD_REQUESTS as f64 * 1e3
    );
    println!(
        "| warm resident | 1 | {warm_rps:.0} | {:.3} ms | — |",
        warm_s / WARM_REQUESTS as f64 * 1e3
    );
    println!(
        "| warm resident | {SOAK_CLIENTS} | {soak_rps:.0} | {:.3} ms | {:.3} ms |",
        p50 as f64 / 1e3,
        p99 as f64 / 1e3
    );
    println!();
    println!(
        "Exact-hit open, chain depth {OPEN_DEPTH}: daemon `open` round trip {:.2} ms, \
         in-process ladder {:.2} ms (medians); median of {OPEN_PAIRS} pair ratios {open_ratio:.2}x",
        open_s * 1e3,
        ladder_s * 1e3
    );
    println!();

    let rows = vec![
        BenchRow::single(
            "daemon cold-per-request",
            cold_s / COLD_REQUESTS as f64 * 1e3,
            1.0,
            cold_checksum,
        ),
        BenchRow::single(
            "daemon warm resident",
            warm_s / WARM_REQUESTS as f64 * 1e3,
            warm_rps / cold_rps,
            per_request,
        ),
        BenchRow {
            series: String::from("daemon warm soak p99"),
            workers: SOAK_CLIENTS,
            cpus,
            ms: p99 as f64 / 1e3,
            speedup: soak_rps / cold_rps,
            checksum: p50, // p50 rides along in the checksum slot
        },
        // Speedup is against the in-process ladder (the median pair
        // ratio, inverted); the prelude's byte length rides along in
        // the checksum slot.
        BenchRow::single(
            "daemon exact-hit open",
            open_s * 1e3,
            1.0 / open_ratio,
            prelude_source(&Prelude::chain(OPEN_DEPTH)).len() as u64,
        ),
    ];
    let path = write_section("b17", &rows);
    println!("wrote {}", path.display());
    println!();

    // Acceptance bars.
    assert!(
        warm_rps >= 3.0 * cold_rps,
        "warm resident is only {:.2}x cold-per-request throughput — below the 3x bar \
         (warm {warm_rps:.0} req/s vs cold {cold_rps:.0} req/s)",
        warm_rps / cold_rps
    );
    assert!(
        p99 <= 5 * p50.max(1),
        "p99 {p99} µs is more than 5x p50 {p50} µs at {SOAK_CLIENTS}-client soak — \
         the admission queue is not bounding latency spread"
    );
    assert!(
        open_ratio <= 2.0,
        "an exact-hit daemon open costs {open_ratio:.2}x the in-process load ladder \
         (median of {OPEN_PAIRS} pairs) — above the 2x bar"
    );

    drop(d);
}
