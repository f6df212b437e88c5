//! `ide_daemon`: traffic against a real `implicitd` child process
//! holding two resident tenants.
//!
//! * `wild` — a resolve-only tenant opened with the frames of
//!   `wild_workload(seed, field_study())` (a 160-rule import scope under
//!   three local scopes, 75 % hot / 25 % cold queries).
//! * `chain` — a VM compile tenant over `Prelude::chain(48)`, loaded as
//!   an exact artifact hit from a store warmed by an untimed pass.
//!
//! The op mix is 40 % `resolve`, 30 % `typecheck`, 20 % `eval`, 10 %
//! `opsem`; programs are chain queries `snd(?T_k) + j` (k ≤ 48) and
//! generated programs sent as text. Two connections, each on its own
//! thread and carrying one request at a time, first send on a fixed
//! schedule at two rates (latency timed from each request's *scheduled*
//! send time, so a slow reply also delays the requests behind it), then
//! back to back: the saturated closed loop whose latency and capacity
//! are the bounded figures.

use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use genprog::{rng, wild_workload, WildConfig};
use implicit_core::env::ImplicitEnv;
use implicit_core::parse::{parse_expr, parse_rule_type};
use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_core::subtyping::{subtype_resolve_translated, translate_env};
use implicit_core::syntax::Declarations;
use implicit_core::trace::Phase;
use implicit_pipeline::service::{prelude_source, read_frame, Client, Json};
use implicit_pipeline::{Backend, Prelude};
use rand::Rng;

use crate::awake::KeepAwake;
use crate::layers::{self, ms, us, MirrorElab, PhaseTimer, Roundtrip};
use crate::programs::{chain_spec, program_seed, ProgSpec};
use crate::report::{
    interquartile_mean, mean, median, peak_rss_mb, quantile, windowed_quantile, Report,
};
use crate::Args;

/// Depth of the compile tenant's chain prelude.
const CHAIN_DEPTH: usize = 48;
/// Generated programs drawn per seed before the round-trip gate.
const GENERATED: usize = 2000;
/// Distinct requests in the seeded sequence (cycled).
const SEQUENCE: usize = 4096;
/// The two fixed offered rates, requests per second over both
/// connections: about a tenth and about two thirds of the capacity
/// measured on a 2-CPU host (see NOTES.md).
pub const RATE_LOW: f64 = 250.0;
pub const RATE_HIGH: f64 = 1000.0;
/// `max_rps` is the highest offered rate whose p99 latency stays within
/// this limit with no growing backlog.
pub const P99_LIMIT_MS: f64 = 100.0;
/// A segment whose sends ran later than this behind schedule over its
/// last fifth had a growing backlog.
pub const BACKLOG_LIMIT_MS: f64 = 20.0;
/// A rate whose generator ran later than this at p99 is not reported:
/// the run is invalid.
pub const LAG_LIMIT_MS: f64 = 25.0;
/// Longest single sleep of a waiting load thread.
const NAP: Duration = Duration::from_micros(200);
/// Share of the run each open-loop rate gets; the closed loop, whose
/// capacity and latency are the bounded figures, gets the rest.
const OPEN_SHARE: f64 = 0.125;
/// Set-ups per group. A group runs before the load, between the
/// open and the closed loop, halfway through the closed loop and after
/// it, so the set-ups meet the host at several speeds (see NOTES.md);
/// `setup_s` is the interquartile mean of all of them.
const SETUP_GROUP: usize = 2;
/// Requests in the single-shot sample.
const ONESHOT: usize = 120;
/// Requests in the traced replay.
const TRACED: usize = 1200;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Resolve,
    Typecheck,
    Eval,
    Opsem,
}

/// One request of the seeded sequence, with what its reply must say.
struct Request {
    op: Op,
    /// Query or program text.
    text: String,
    /// The program, for the single-shot and traced passes.
    spec: Option<ProgSpec>,
    frame: Vec<u8>,
    /// `steps` (resolve), `type` (typecheck), `value` (eval, opsem).
    expect: String,
    /// The λ⇒ type an `eval` reply must carry.
    expect_ty: String,
}

struct Inputs {
    frames: Vec<Vec<String>>,
    /// The compile tenant's prelude, as the `open` request carries it.
    prelude: String,
    requests: Vec<Request>,
    generated: usize,
    unparseable: usize,
    different: usize,
}

fn request_frame(op: Op, text: &str) -> Vec<u8> {
    let (name, tenant, field) = match op {
        Op::Resolve => ("resolve", "wild", "query"),
        Op::Typecheck => ("typecheck", "chain", "program"),
        Op::Eval => ("eval", "chain", "program"),
        Op::Opsem => ("opsem", "chain", "program"),
    };
    layers::frame_bytes(&Json::obj(vec![
        ("op", Json::Str(name.into())),
        ("tenant", Json::Str(tenant.into())),
        (field, Json::Str(text.into())),
    ]))
}

fn inputs(seed: u64) -> Inputs {
    let config = WildConfig {
        queries: 256,
        ..WildConfig::field_study()
    };
    let w = wild_workload(seed, &config);
    let mut frames: Vec<Vec<String>> = w
        .env
        .frames_innermost_first()
        .map(|(_, rules)| rules.iter().map(|r| r.to_string()).collect())
        .collect();
    frames.reverse();

    // Reference step counts: the intersection-subtyping resolver over
    // the environment the daemon rebuilds from the printed frames.
    let mut env = ImplicitEnv::new();
    for f in &frames {
        env.push(
            f.iter()
                .map(|r| parse_rule_type(r).expect("printed rules re-parse"))
                .collect(),
        );
    }
    let sigma = translate_env(&env);
    let deep = ResolutionPolicy::paper().with_max_depth(4096);
    let queries: Vec<(String, String)> = w
        .queries
        .iter()
        .map(|q| {
            let text = q.to_string();
            let parsed = parse_rule_type(&text).expect("printed queries re-parse");
            let steps = subtype_resolve_translated(&sigma, &parsed, &deep)
                .map(|s| s.steps().to_string())
                .unwrap_or_else(|e| format!("<unresolved: {e:?}>"));
            (text, steps)
        })
        .collect();

    // Generated programs go over the wire as text, so only those whose
    // printed form re-parses to the same term are sent.
    let no_decls = Declarations::new();
    let mut programs: Vec<(ProgSpec, String, String, String)> = Vec::new();
    let (mut unparseable, mut different) = (0, 0);
    for i in 0..GENERATED {
        let spec = ProgSpec::Plain {
            seed: program_seed(seed, i),
        };
        let p = spec.materialize();
        match layers::roundtrip(&p.expr) {
            (text, Roundtrip::Same) => {
                programs.push((spec, text, p.ty.to_string(), spec.expected(&no_decls)))
            }
            (_, Roundtrip::Unparseable) => unparseable += 1,
            (_, Roundtrip::Different) => different += 1,
        }
    }

    let mut r = rng(seed ^ 0x1DE_DAE3);
    let mut next_query = 0usize;
    let mut requests = Vec::with_capacity(SEQUENCE);
    for _ in 0..SEQUENCE {
        let op = match r.gen_range(0..100u32) {
            0..=39 => Op::Resolve,
            40..=69 => Op::Typecheck,
            70..=89 => Op::Eval,
            _ => Op::Opsem,
        };
        let (spec, text, ty, value) = if op == Op::Resolve {
            let (text, steps) = &queries[next_query % queries.len()];
            next_query += 1;
            (None, text.clone(), String::new(), steps.clone())
        } else if op == Op::Opsem || programs.is_empty() || r.gen_bool(0.5) {
            // Generated programs stay off the opsem route: a warm
            // session's opsem leg can exhaust memory on some of them
            // (see NOTES.md), which would take the daemon down.
            let spec = chain_spec(&mut r, CHAIN_DEPTH);
            let (text, rt) = layers::roundtrip(&spec.materialize().expr);
            assert_eq!(rt, Roundtrip::Same, "chain programs round-trip");
            (Some(spec), text, "Int".to_owned(), spec.expected(&no_decls))
        } else {
            let (spec, text, ty, value) = &programs[r.gen_range(0..programs.len())];
            (Some(*spec), text.clone(), ty.clone(), value.clone())
        };
        let expect = if op == Op::Typecheck {
            ty.clone()
        } else {
            value
        };
        requests.push(Request {
            op,
            frame: request_frame(op, &text),
            text,
            spec,
            expect,
            expect_ty: ty,
        });
    }
    Inputs {
        frames,
        prelude: prelude_source(&Prelude::chain(CHAIN_DEPTH)),
        requests,
        generated: GENERATED,
        unparseable,
        different,
    }
}

/// Whether a reply says what the reference says.
fn reply_matches(req: &Request, reply: &Json) -> bool {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        return false;
    }
    match req.op {
        Op::Resolve => reply.int_field("steps").map(|s| s.to_string()) == Some(req.expect.clone()),
        Op::Typecheck => reply.str_field("type") == Some(req.expect.as_str()),
        Op::Eval => {
            reply.str_field("value") == Some(req.expect.as_str())
                && reply.str_field("type") == Some(req.expect_ty.as_str())
        }
        Op::Opsem => reply.str_field("value") == Some(req.expect.as_str()),
    }
}

fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    b.hash(&mut h);
    h.finish()
}

/// A running `implicitd` child. Dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn spawn(bin: &Path, store: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("implicitd: listening on ")
            .map(str::to_owned);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("implicitd did not report its address: {line:?}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Protocol shutdown, then reap the process; a daemon that has not
    /// exited ten seconds later is killed (by `Drop`).
    fn stop(mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        for _ in 0..1000 {
            if !matches!(self.child.try_wait(), Ok(None)) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

struct Setup {
    total: Duration,
    spawn_to_listen: Duration,
    open_frames: Duration,
    open_compile: Duration,
    load: String,
}

/// Spawn → listening line → both tenants open → first reply.
fn set_up(bin: &Path, store: &Path, inp: &Inputs) -> Result<(Setup, Daemon), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, store)?;
    let listening = t0.elapsed();
    let mut c = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    let t = Instant::now();
    c.open_frames("wild", &inp.frames)?;
    let open_frames = t.elapsed();
    let t = Instant::now();
    let load = c.open_prelude("chain", &inp.prelude, Backend::Vm)?;
    let open_compile = t.elapsed();
    c.stream()
        .write_all(&inp.requests[0].frame)
        .map_err(|e| e.to_string())?;
    read_frame(c.stream()).map_err(|e| e.to_string())?;
    let total = t0.elapsed();
    Ok((
        Setup {
            total,
            spawn_to_listen: listening,
            open_frames,
            open_compile,
            load,
        },
        daemon,
    ))
}

/// Runs a group of set-ups, each on a daemon that is stopped after it.
fn set_up_group(
    bin: &Path,
    store: &Path,
    inp: &Inputs,
    setups: &mut Vec<Setup>,
) -> Result<(), String> {
    for _ in 0..SETUP_GROUP {
        let (s, d) = set_up(bin, store, inp)?;
        setups.push(s);
        d.stop();
    }
    Ok(())
}

/// What one load segment measured.
#[derive(Default)]
struct Segment {
    /// Request latencies per connection, in send order.
    per_conn: Vec<Vec<f64>>,
    lags_ms: Vec<f64>,
    /// Median lateness of sends (against schedule) over the last fifth
    /// of the segment: a growing backlog shows here.
    backlog_ms: f64,
    /// Start to the last reply.
    span_s: f64,
    failed: u64,
    mismatches: u64,
}

impl Segment {
    fn count(&self) -> usize {
        self.per_conn.iter().map(Vec::len).sum()
    }

    /// Replies completed per second of the segment.
    fn achieved_rps(&self) -> f64 {
        self.count() as f64 / self.span_s.max(1e-9)
    }

    fn p(&self, q: f64) -> f64 {
        quantile(&self.per_conn.concat(), q)
    }

    /// The windowed tail quantile (see [`windowed_quantile`]).
    fn tail(&self, q: f64) -> f64 {
        let sources: Vec<&[f64]> = self.per_conn.iter().map(Vec::as_slice).collect();
        windowed_quantile(&sources, q)
    }

    fn meets_limit(&self) -> bool {
        self.failed == 0 && self.p(0.99) <= P99_LIMIT_MS && self.backlog_ms <= BACKLOG_LIMIT_MS
    }

    /// Adds a segment that ran after this one.
    fn append(&mut self, later: Segment) {
        let span = self.span_s + later.span_s;
        self.absorb(later);
        self.span_s = span;
    }

    /// Pools another segment's samples and failures; the span is the
    /// longer of the two.
    fn absorb(&mut self, other: Segment) {
        self.per_conn.extend(other.per_conn);
        self.lags_ms.extend(other.lags_ms);
        self.backlog_ms = self.backlog_ms.max(other.backlog_ms);
        self.span_s = self.span_s.max(other.span_s);
        self.failed += other.failed;
        self.mismatches += other.mismatches;
    }
}

/// Golden reply hashes, one per request of the sequence, recorded when
/// the warm-up pass validated the reply in full.
struct Checker<'a> {
    requests: &'a [Request],
    golden: Vec<u64>,
}

impl Checker<'_> {
    /// Outside the timed region: a reply equal to the validated one
    /// passes on its hash; anything else is parsed and checked in full.
    fn ok(&self, idx: usize, reply: &[u8]) -> bool {
        if hash_bytes(reply) == self.golden[idx] {
            return true;
        }
        std::str::from_utf8(reply)
            .map_err(|e| e.to_string())
            .and_then(implicit_pipeline::service::parse_json)
            .map(|j| reply_matches(&self.requests[idx], &j))
            .unwrap_or(false)
    }
}

/// Opens one load connection.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).ok();
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    Ok(s)
}

/// Runs one segment for `secs` on the given load connections, each on
/// its own thread and carrying one request at a time. With a `rate`,
/// request `n` is due at `start + n / rate` on connection `n % k` (open
/// loop) and its latency counts from that due time; without one, each
/// connection sends its next request as soon as the reply arrives
/// (closed loop).
fn drive(
    conns: &mut [TcpStream],
    check: &Checker<'_>,
    first: usize,
    rate: Option<f64>,
    secs: f64,
) -> Segment {
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(secs);
    let k = conns.len();
    let conn = |c: usize, s: &mut TcpStream| -> Segment {
        let mut seg = Segment::default();
        let mut latencies = Vec::new();
        let mut prev_reply = start;
        let mut delays: Vec<f64> = Vec::new();
        let mut n = c;
        loop {
            let due = match rate {
                Some(r) => start + Duration::from_secs_f64(n as f64 / r),
                None => prev_reply,
            };
            if due >= end {
                break;
            }
            // Short naps rather than one long sleep: a core that stays
            // idle for long wakes up late, and the generator would miss
            // its schedule by milliseconds.
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(NAP));
            }
            let sent = Instant::now();
            let idx = (first + n) % check.requests.len();
            let reply = s
                .write_all(&check.requests[idx].frame)
                .map_err(|e| e.to_string())
                .and_then(|_| read_frame(s).map_err(|e| e.to_string()));
            let got = Instant::now();
            match reply {
                Ok(bytes) => {
                    latencies.push(ms(got - due));
                    seg.lags_ms
                        .push(ms(sent.saturating_duration_since(due.max(prev_reply))));
                    delays.push(ms(sent.saturating_duration_since(due)));
                    if !check.ok(idx, &bytes) {
                        seg.mismatches += 1;
                    }
                }
                Err(_) => {
                    seg.failed += 1;
                    break;
                }
            }
            prev_reply = got;
            n += k;
        }
        seg.backlog_ms = median(&delays[delays.len() - delays.len() / 5..]);
        seg.span_s = (prev_reply - start).as_secs_f64();
        seg.per_conn.push(latencies);
        seg
    };
    let (c0, rest) = conns.split_first_mut().expect("at least one connection");
    std::thread::scope(|s| {
        let others: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || conn(i + 1, c)))
            .collect();
        let mut seg = conn(0, c0);
        for h in others {
            seg.absorb(h.join().expect("load thread panicked"));
        }
        seg
    })
}

/// Steps the offered rate up from `RATE_HIGH` by 20 % until a segment
/// misses the limit, then bisects twice between the last rate
/// that met it and the first that did not.
fn max_rps(conns: &mut [TcpStream], check: &Checker<'_>, mut first: usize, secs: f64) -> Search {
    let step_secs = secs / 10.0;
    let mut all = Segment::default();
    let mut trail = Vec::new();
    let mut run = |rate: f64, first: &mut usize| -> bool {
        let seg = drive(conns, check, *first, Some(rate), step_secs);
        *first += seg.count();
        let ok = seg.meets_limit();
        trail.push(format!(
            "{rate:.0}/s p99 {:.2} ms backlog {:.2} ms {}",
            seg.p(0.99),
            seg.backlog_ms,
            if ok { "pass" } else { "fail" }
        ));
        all.absorb(seg);
        ok
    };
    let (mut pass, mut fail) = (RATE_LOW, None);
    let mut rate = RATE_HIGH;
    let mut steps = 0;
    while fail.is_none() && steps < 8 {
        steps += 1;
        if run(rate, &mut first) {
            pass = rate;
            rate *= 1.2;
        } else {
            fail = Some(rate);
        }
    }
    if let Some(mut hi) = fail {
        for _ in 0..2 {
            steps += 1;
            let mid = (pass + hi) / 2.0;
            if run(mid, &mut first) {
                pass = mid;
            } else {
                hi = mid;
            }
        }
    }
    Search {
        max_rps: pass,
        steps,
        trail,
        all,
    }
}

/// The outcome of the `max_rps` search.
struct Search {
    max_rps: f64,
    steps: usize,
    /// One line per segment, for the run notes.
    trail: Vec<String>,
    /// Every segment's samples and failures, pooled.
    all: Segment,
}

fn metric(doc: &Json, key: &str) -> f64 {
    doc.get("merged")
        .and_then(|m| m.int_field(key))
        .unwrap_or(0) as f64
}

fn daemon_counter(doc: &Json, key: &str) -> f64 {
    doc.get("daemon")
        .and_then(|m| m.int_field(key))
        .unwrap_or(0) as f64
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let bin = args
        .implicitd
        .as_deref()
        .ok_or("ide_daemon needs --implicitd <path>")?;
    let store = args.work_dir.join("store");
    std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
    let mut report = Report::default();
    let mut inp = inputs(args.seed);
    if args.corrupt_expected {
        if let Some(r) = inp.requests.iter_mut().find(|r| r.op == Op::Eval) {
            r.expect.push_str("-corrupted");
        }
    }
    report.note(format!(
        "round trip: {} of {} generated programs skipped ({} do not re-parse, {} re-parse to a different term)",
        inp.unparseable + inp.different,
        inp.generated,
        inp.unparseable,
        inp.different
    ));

    // From here until the daemon stops, no CPU is left to halt (see
    // `awake`).
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let awake = KeepAwake::start(cpus);
    report.note(match awake {
        Some(_) => {
            format!("{cpus} idle-priority spinners keep the CPUs awake while the daemon runs")
        }
        None => "idle-priority spinners unavailable: the CPUs may halt between hops".to_owned(),
    });

    // Untimed pass: the compile tenant builds cold and saves its
    // artifact when the daemon shuts down.
    let (_, warm) = set_up(bin, &store, &inp)?;
    warm.stop();

    let mut setups = Vec::new();
    set_up_group(bin, &store, &inp, &mut setups)?;
    let (s, daemon) = set_up(bin, &store, &inp)?;
    setups.push(s);

    // Warm-up: every distinct request once, closed loop, validated in
    // full; the validated reply bytes become the golden hashes.
    let mut golden = Vec::with_capacity(inp.requests.len());
    let mut c = Client::connect(&daemon.addr).map_err(|e| e.to_string())?;
    for req in &inp.requests {
        c.stream()
            .write_all(&req.frame)
            .map_err(|e| e.to_string())?;
        let bytes = read_frame(c.stream()).map_err(|e| e.to_string())?;
        let doc = std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(implicit_pipeline::service::parse_json)?;
        if !reply_matches(req, &doc) {
            report.mismatches += 1;
            if report.mismatches <= 3 {
                report.note(format!(
                    "mismatch: {:?} `{}` expected `{}` got {}",
                    req.op,
                    req.text,
                    req.expect,
                    doc.render()
                ));
            }
        }
        golden.push(hash_bytes(&bytes));
    }
    // Peak footprint of the warm daemon: set-up plus one pass over every
    // distinct request. The load phases add per-thread allocator arenas
    // whose number follows thread timing, not the program.
    let rss = peak_rss_mb(&daemon.pid());
    let check = Checker {
        requests: &inp.requests,
        golden,
    };

    // Two load connections for every phase: the daemon runs one thread
    // per connection, and reusing them keeps its thread (and allocator
    // arena) count the same in every run.
    let mut conns = [connect(&daemon.addr)?, connect(&daemon.addr)?];
    let secs = args.seconds;
    let low = drive(&mut conns, &check, 0, Some(RATE_LOW), secs * OPEN_SHARE);
    let high = drive(
        &mut conns,
        &check,
        low.count(),
        Some(RATE_HIGH),
        secs * OPEN_SHARE,
    );
    // Closed loop, one request in flight per connection: the service at
    // saturation, where its latency and capacity are measured. It runs
    // in two halves, each after a group of set-ups.
    let mut next = low.count() + high.count();
    let mut capacity = Segment::default();
    for _ in 0..2 {
        set_up_group(bin, &store, &inp, &mut setups)?;
        let half = drive(&mut conns, &check, next, None, secs * (0.5 - OPEN_SHARE));
        next += half.count();
        capacity.append(half);
    }
    set_up_group(bin, &store, &inp, &mut setups)?;
    let loads: Vec<&str> = setups.iter().map(|s| s.load.as_str()).collect();
    if loads.iter().any(|l| *l != "exact") {
        report.mismatches += 1;
        report.note(format!(
            "compile tenant loads were {loads:?}, expected exact hits"
        ));
    }
    let setup_s = interquartile_mean(
        &setups
            .iter()
            .map(|s| s.total.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    for (name, seg) in [("low", &low), ("high", &high)] {
        let lag99 = quantile(&seg.lags_ms, 0.99);
        if lag99 > LAG_LIMIT_MS {
            return Err(format!(
                "invalid run: generator lag p99 {lag99:.3} ms at rate {name} exceeds {LAG_LIMIT_MS} ms"
            ));
        }
    }
    // The step-up search is noisy on a shared host (capacity moves with
    // the neighbours' load), so only the traced run makes it and reports
    // `max_rps` as a layer figure.
    let search = args.trace.then(|| max_rps(&mut conns, &check, next, 9.0));
    for seg in [
        Some(&low),
        Some(&high),
        Some(&capacity),
        search.as_ref().map(|s| &s.all),
    ]
    .into_iter()
    .flatten()
    {
        report.attempted += seg.count() as u64 + seg.failed;
        report.failed += seg.failed;
        report.mismatches += seg.mismatches;
    }

    let metrics_doc = c.metrics()?;
    if metric(&metrics_doc, "artifact_fallbacks") > 0.0 {
        report.mismatches += 1;
        report.note("the daemon counted artifact fallbacks; expected none");
    }

    report.note(format!(
        "open loop at low {RATE_LOW} and high {RATE_HIGH} req/s; closed-loop capacity {:.0} req/s on 2 connections",
        capacity.achieved_rps()
    ));
    report.note(format!(
        "generator lag p50/p99/max: low {:.3}/{:.3}/{:.3} ms, high {:.3}/{:.3}/{:.3} ms (limit p99 {LAG_LIMIT_MS} ms)",
        quantile(&low.lags_ms, 0.5),
        quantile(&low.lags_ms, 0.99),
        quantile(&low.lags_ms, 1.0),
        quantile(&high.lags_ms, 0.5),
        quantile(&high.lags_ms, 0.99),
        quantile(&high.lags_ms, 1.0)
    ));
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.print_only("setup_s", setup_s, "s", setups.len());
    report.print_only("peak_rss_mb", rss, "MB", 1);
    report.print_only("failed_frac", failed_frac, "1", report.attempted as usize);
    report.print_only("p50_ms_low", low.p(0.5), "ms", low.count());
    report.print_only("p99_ms_low", low.tail(0.99), "ms", low.count());
    report.print_only("p50_ms_high", high.p(0.5), "ms", high.count());
    report.print_only("p99_ms_high", high.tail(0.99), "ms", high.count());
    if let Some(search) = &search {
        report.print_only("max_rps", search.max_rps, "1/s", search.steps);
        report.note(format!(
            "max_rps search (limit p99 <= {P99_LIMIT_MS} ms, backlog <= {BACKLOG_LIMIT_MS} ms): {}",
            search.trail.join("; ")
        ));
        traced(
            &mut report,
            &inp,
            &mut c,
            &metrics_doc,
            &setups,
            &low,
            &high,
            search,
        )?;
    }
    drop(c);
    daemon.stop();
    drop(awake);

    let oneshot = oneshot_ms(&inp, &mut report);
    report.print_only("oneshot_p50_ms", median(&oneshot), "ms", oneshot.len());
    if !args.trace {
        report.put("setup_s", setup_s, "s", setups.len());
        report.put("peak_rss_mb", rss, "MB", 1);
        report.put(
            "throughput_per_s",
            capacity.achieved_rps(),
            "1/s",
            capacity.count(),
        );
        report.put("p50_ms", capacity.p(0.5), "ms", capacity.count());
        report.put("p90_ms", capacity.p(0.9), "ms", capacity.count());
    }
    Ok(report)
}

/// The single-shot path for the same programs: no warm state, the
/// chain prelude re-elaborated with every program (`prelude.wrap` +
/// `implicit_elab::run_with`).
fn oneshot_ms(inp: &Inputs, report: &mut Report) -> Vec<f64> {
    let prelude = Prelude::chain(CHAIN_DEPTH);
    let decls = Declarations::new();
    let policy = ResolutionPolicy::paper();
    let mut out = Vec::new();
    for req in inp
        .requests
        .iter()
        .filter(|r| r.op == Op::Eval)
        .take(ONESHOT)
    {
        let p = req
            .spec
            .expect("eval requests carry programs")
            .materialize();
        let wrapped = prelude.wrap(p.expr, p.ty);
        let t = Instant::now();
        let r = implicit_elab::run_with(&decls, &wrapped, &policy);
        out.push(ms(t.elapsed()));
        match r {
            Ok(o) if o.value.to_string() == req.expect => {}
            _ => report.mismatches += 1,
        }
    }
    out
}

/// Per-layer timings for one replayed request.
#[derive(Default, Clone, Copy)]
struct Layers {
    decode: f64,
    parse: f64,
    resolve: f64,
    explain: f64,
    elab: f64,
    preservation: f64,
    compile: f64,
    vm: f64,
    opsem: f64,
    session: f64,
    encode: f64,
}

impl Layers {
    fn sum(&self) -> f64 {
        self.decode
            + self.parse
            + self.resolve
            + self.explain
            + self.elab
            + self.preservation
            + self.compile
            + self.vm
            + self.opsem
            + self.session
            + self.encode
    }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    report: &mut Report,
    inp: &Inputs,
    c: &mut Client,
    metrics_doc: &Json,
    setups: &[Setup],
    low: &Segment,
    high: &Segment,
    search: &Search,
) -> Result<(), String> {
    let sample = &inp.requests[..TRACED.min(inp.requests.len())];

    // Live: ping, then the sample closed loop, one request at a time.
    let mut pings = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        c.ping()?;
        pings.push(us(t.elapsed()));
    }
    let mut live = Vec::with_capacity(sample.len());
    for req in sample {
        let t = Instant::now();
        c.stream()
            .write_all(&req.frame)
            .map_err(|e| e.to_string())?;
        read_frame(c.stream()).map_err(|e| e.to_string())?;
        live.push(us(t.elapsed()));
    }

    // In-process replica of both tenants.
    let mut env = ImplicitEnv::new();
    for f in &inp.frames {
        env.push(
            f.iter()
                .map(|r| parse_rule_type(r).expect("re-parses"))
                .collect(),
        );
    }
    let policy = ResolutionPolicy::paper();
    let decls = Declarations::new();
    let prelude = Prelude::chain(CHAIN_DEPTH);
    let t = Instant::now();
    let mut session = layers::vm_session(&decls, &prelude);
    let prelude_build = t.elapsed();
    let mut mirror = MirrorElab::new(&decls, &policy, session.env());
    let (timer, sink) = PhaseTimer::shared();
    let mut buf = Vec::new();

    // Executes one decoded request the way a tenant does, returning the
    // reply document.
    let mut execute = |req: &Json, lay: Option<&mut Layers>| -> Json {
        let op = req.str_field("op").unwrap_or_default();
        let mut dummy = Layers::default();
        let traced = lay.is_some();
        let lay = lay.unwrap_or(&mut dummy);
        let t = Instant::now();
        if op == "resolve" {
            let q = parse_rule_type(req.str_field("query").unwrap_or_default());
            lay.parse = us(t.elapsed());
            let q = q.expect("benchmark queries parse");
            let t = Instant::now();
            let res = resolve(&env, &q, &policy).expect("benchmark queries resolve");
            lay.resolve = us(t.elapsed());
            let t = Instant::now();
            let derivation = res.explain();
            lay.explain = us(t.elapsed());
            return Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("steps", Json::Int(res.steps() as i64)),
                ("derivation", Json::Str(derivation)),
            ]);
        }
        let e = parse_expr(req.str_field("program").unwrap_or_default());
        lay.parse = us(t.elapsed());
        let e = e.expect("benchmark programs parse");
        if traced && op != "opsem" {
            lay.elab = us(mirror.time(&e).0);
            timer.borrow_mut().reset();
            session.set_trace(Some(sink.clone()));
        }
        let t = Instant::now();
        let (reply, call) = match op {
            "eval" => {
                let out = session.run_compiled(&e).expect("benchmark programs run");
                let call = t.elapsed();
                let reply = Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("value", Json::Str(out.value.to_string())),
                    ("type", Json::Str(out.source_type.to_string())),
                ]);
                (reply, call)
            }
            "typecheck" => {
                let ty = session.typecheck(&e).expect("benchmark programs typecheck");
                let call = t.elapsed();
                (
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("type", Json::Str(ty.to_string())),
                    ]),
                    call,
                )
            }
            _ => {
                let v = session
                    .run_opsem_with_fuel(&e, implicit_opsem::DEFAULT_FUEL)
                    .expect("benchmark programs run");
                let call = t.elapsed();
                lay.opsem = us(call);
                (
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("value", Json::Str(v.to_string())),
                    ]),
                    call,
                )
            }
        };
        if traced && op != "opsem" {
            session.set_trace(None);
            let tm = timer.borrow();
            lay.session = layers::bookkeeping(call, &tm);
            lay.preservation = us(tm.get(Phase::Preservation));
            lay.compile = us(tm.get(Phase::Compile));
            lay.vm = us(tm.get(Phase::Vm));
        }
        reply
    };

    // Warm the replica the way the daemon was warmed.
    for req in sample {
        let (_, doc) = layers::decode(&req.frame);
        execute(&doc, None);
    }
    // Untraced replay: one clock around decode + execute + encode.
    let mut untraced = Vec::with_capacity(sample.len());
    for req in sample {
        let t = Instant::now();
        let (_, doc) = layers::decode(&req.frame);
        let reply = execute(&doc, None);
        layers::encode(&reply, &mut buf);
        untraced.push(us(t.elapsed()));
    }
    // Traced replay: a clock around every layer call.
    let mut rows: Vec<(Op, Layers)> = Vec::with_capacity(sample.len());
    let mut traced_total = Vec::with_capacity(sample.len());
    for req in sample {
        let mut lay = Layers::default();
        let t = Instant::now();
        let (d, doc) = layers::decode(&req.frame);
        lay.decode = us(d);
        let reply = execute(&doc, Some(&mut lay));
        lay.encode = us(layers::encode(&reply, &mut buf));
        // The direct elaboration call is a measurement of its own, not
        // part of the replayed request.
        traced_total.push(us(t.elapsed()) - lay.elab);
        rows.push((req.op, lay));
    }
    let (enc, dec, bytes) = layers::artifact_timings(&mut session, &decls, &prelude);

    let avg = |ops: &[Op], f: fn(&Layers) -> f64| -> (f64, usize) {
        let v: Vec<f64> = rows
            .iter()
            .filter(|(o, _)| ops.contains(o))
            .map(|(_, l)| f(l))
            .collect();
        (mean(&v), v.len())
    };
    let all = [Op::Resolve, Op::Typecheck, Op::Eval, Op::Opsem];
    let programs = [Op::Typecheck, Op::Eval];
    let layer_sum: Vec<f64> = rows.iter().map(|(_, l)| l.sum()).collect();
    let hop = mean(&live) - mean(&layer_sum);
    let n = rows.len();

    let (decode, _) = avg(&all, |l| l.decode);
    let (encode, _) = avg(&all, |l| l.encode);
    report.put("service.decode_us", decode, "us", n);
    report.put("service.encode_us", encode, "us", n);
    report.put("service.ping_us", median(&pings), "us", pings.len());
    report.put("service.hop_us", hop, "us", n);
    report.put(
        "service.requests",
        daemon_counter(metrics_doc, "requests"),
        "count",
        1,
    );
    report.put(
        "service.errors",
        daemon_counter(metrics_doc, "errors"),
        "count",
        1,
    );
    report.put(
        "service.rejected",
        daemon_counter(metrics_doc, "rejected_overload")
            + daemon_counter(metrics_doc, "expired_deadline"),
        "count",
        1,
    );

    let (parse, _) = avg(&all, |l| l.parse);
    let text_bytes: usize = sample.iter().map(|r| r.text.len()).sum();
    let parse_total: f64 = rows.iter().map(|(_, l)| l.parse).sum();
    report.put("parse.us_per_req", parse, "us", n);
    report.put(
        "parse.mb_per_s",
        text_bytes as f64 / parse_total.max(1e-9),
        "MB/s",
        n,
    );
    report.put(
        "parse.roundtrip_skipped",
        (inp.unparseable + inp.different) as f64,
        "count",
        inp.generated,
    );
    report.put(
        "parse.roundtrip_generated",
        inp.generated as f64,
        "count",
        1,
    );

    let (res_us, res_n) = avg(&[Op::Resolve], |l| l.resolve);
    let (explain, _) = avg(&[Op::Resolve], |l| l.explain);
    let steps: i64 = sample
        .iter()
        .filter(|r| r.op == Op::Resolve)
        .map(|r| r.expect.parse::<i64>().unwrap_or(0))
        .sum();
    let (hits, misses) = (
        metric(metrics_doc, "cache_hits"),
        metric(metrics_doc, "cache_misses"),
    );
    report.put("resolve.us_per_query", res_us, "us", res_n);
    report.put("resolve.explain_us", explain, "us", res_n);
    report.put("resolve.steps", steps as f64, "count", res_n);
    report.put("resolve.cache_hits", hits, "count", 1);
    report.put("resolve.cache_misses", misses, "count", 1);
    report.put("resolve.cache_hit_ratio", ratio(hits, misses), "ratio", 1);

    let (elab, elab_n) = avg(&programs, |l| l.elab);
    let (pres, _) = avg(&programs, |l| l.preservation);
    let (compile, eval_n) = avg(&[Op::Eval], |l| l.compile);
    let (vm, _) = avg(&[Op::Eval], |l| l.vm);
    let (opsem, opsem_n) = avg(&[Op::Opsem], |l| l.opsem);
    report.put("elab.us_per_program", elab, "us", elab_n);
    report.put("preservation.us_per_program", pres, "us", elab_n);
    report.put("compile.us_per_program", compile, "us", eval_n);
    report.put(
        "compile.instrs_scanned",
        metric(metrics_doc, "instrs_scanned"),
        "count",
        1,
    );
    report.put(
        "compile.fused",
        metric(metrics_doc, "instrs_fused"),
        "count",
        1,
    );
    report.put("vm.us_per_program", vm, "us", eval_n);
    report.put("vm.fuel", metric(metrics_doc, "vm_fuel"), "count", 1);
    report.put(
        "vm.tail_calls",
        metric(metrics_doc, "vm_tail_calls"),
        "count",
        1,
    );
    report.put(
        "vm.match_ic_hit_ratio",
        ratio(
            metric(metrics_doc, "vm_match_ic_hits"),
            metric(metrics_doc, "vm_match_ic_misses"),
        ),
        "ratio",
        1,
    );
    report.put("opsem.us_per_program", opsem, "us", opsem_n);
    report.put(
        "opsem.memo_hit_ratio",
        ratio(
            metric(metrics_doc, "memo_hits"),
            metric(metrics_doc, "memo_misses"),
        ),
        "ratio",
        1,
    );
    report.put("session.prelude_build_ms", ms(prelude_build), "ms", 1);
    report.put(
        "session.bookkeeping_us",
        avg(&programs, |l| l.session).0,
        "us",
        elab_n,
    );
    report.put(
        "session.trims",
        metric(metrics_doc, "trims"),
        "count",
        metric(metrics_doc, "programs") as usize,
    );

    let load_code = match setups.last().map(|s| s.load.as_str()) {
        Some("exact") => 1.0,
        Some("incremental") => 2.0,
        _ => 3.0,
    };
    report.put("artifact.decode_ms", ms(dec), "ms", 1);
    report.put("artifact.encode_ms", ms(enc), "ms", 1);
    report.put("artifact.bytes", bytes as f64, "bytes", 1);
    report.put("artifact.load_outcome", load_code, "code", setups.len());
    report.put(
        "artifact.fallbacks",
        metric(metrics_doc, "artifact_fallbacks"),
        "count",
        1,
    );

    report.not_applicable("driver.worker_busy_frac", "ratio");
    report.not_applicable("driver.imbalance", "ratio");

    let med =
        |f: fn(&Setup) -> Duration| median(&setups.iter().map(|s| ms(f(s))).collect::<Vec<_>>());
    report.put(
        "daemon.spawn_to_listen_ms",
        med(|s| s.spawn_to_listen),
        "ms",
        setups.len(),
    );
    report.put(
        "daemon.open_ms_frames",
        med(|s| s.open_frames),
        "ms",
        setups.len(),
    );
    report.put(
        "daemon.open_ms_compile",
        med(|s| s.open_compile),
        "ms",
        setups.len(),
    );

    report.put(
        "loadgen.lag_p99_ms_low",
        quantile(&low.lags_ms, 0.99),
        "ms",
        low.lags_ms.len(),
    );
    report.put(
        "loadgen.lag_max_ms_low",
        quantile(&low.lags_ms, 1.0),
        "ms",
        low.lags_ms.len(),
    );
    report.put(
        "loadgen.lag_p99_ms_high",
        quantile(&high.lags_ms, 0.99),
        "ms",
        high.lags_ms.len(),
    );
    report.put(
        "loadgen.lag_max_ms_high",
        quantile(&high.lags_ms, 1.0),
        "ms",
        high.lags_ms.len(),
    );
    report.put("loadgen.max_rps", search.max_rps, "1/s", search.steps);

    let e2e = mean(&live);
    report.put("e2e.us_per_op", e2e, "us", live.len());
    report.put("unaccounted.us_per_op", hop, "us", n);
    report.put("unaccounted.share_pct", 100.0 * hop / e2e, "%", n);
    let overhead = 100.0 * (traced_total.iter().sum::<f64>() / untraced.iter().sum::<f64>() - 1.0);
    report.put("trace.overhead_pct", overhead, "%", n);

    let shares = [
        ("service", decode + encode + hop),
        ("parse", parse),
        ("resolve", avg(&all, |l| l.resolve + l.explain).0),
        ("elab", avg(&all, |l| l.elab).0),
        ("preservation", avg(&all, |l| l.preservation).0),
        ("compile", avg(&all, |l| l.compile).0),
        ("vm", avg(&all, |l| l.vm).0),
        ("opsem", avg(&all, |l| l.opsem).0),
        ("session", avg(&all, |l| l.session).0),
    ];
    crate::note_shares(report, &shares, e2e);
    Ok(())
}
