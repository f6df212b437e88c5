//! Structured tracing and unified metrics for the whole pipeline.
//!
//! Every stage of the system — resolution ([`crate::resolve`]), the
//! typechecker, elaboration, both evaluators, and the batch driver —
//! reports what it does as [`TraceEvent`]s through a [`TraceSink`].
//! The design goals, in order:
//!
//! 1. **Zero cost when disabled.** The hot resolution path is generic
//!    over the sink ([`crate::resolve::resolve_with`]); the default
//!    [`NullSink`] has an `#[inline(always)] fn enabled() -> false`,
//!    so every `if sink.enabled() { … }` guard — and the event
//!    construction behind it, including its `String` payloads — is
//!    statically dead code in the monomorphized default path used by
//!    [`crate::resolve::resolve`]. Enabled tracing goes through
//!    `&mut dyn TraceSink` (or the [`SharedSink`] handle) and pays
//!    for what it observes.
//! 2. **Deterministic streams.** Events carry *no* wall-clock data
//!    and no interner ids — payloads are pretty-printed types and
//!    structural counters — so two runs of the same program produce
//!    byte-identical event streams. Timestamps are added sink-side
//!    (see [`ChromeSink`]) where nondeterminism is expected.
//! 3. **Cache transparency.** A derivation-cache hit *replays* the
//!    cached derivation through the same emission helpers a fresh
//!    search uses, so a cache-warm stream differs from a cache-off
//!    stream only in [`TraceEvent::CacheHit`]/[`TraceEvent::CacheMiss`]
//!    markers — a property pinned by `crates/pipeline/tests/`
//!    `trace_determinism.rs`.
//!
//! [`MetricsRegistry`] is the unified counter snapshot: it subsumes
//! the per-derivation [`crate::resolve::ResolutionStats`], the
//! environment's cache counters, the opsem runtime-memo counters, the
//! pipeline `SessionStats`, the VM's fuel/tail-call/fix-unfold
//! counters, and the batch driver's job/steal counts. It can be
//! filled directly or by feeding it events ([`MetricsSink`]).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

/// A pipeline stage delimited by [`TraceEvent::PhaseStart`] /
/// [`TraceEvent::PhaseEnd`] spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Surface-syntax parsing.
    Parse,
    /// Type checking (λ⇒ judgment `Γ;Δ ⊢ e : ρ`).
    Typecheck,
    /// Elaboration to System F.
    Elaborate,
    /// The §4 preservation check on the elaborated term.
    Preservation,
    /// Bytecode compilation of the elaborated term.
    Compile,
    /// Tree-walking System F evaluation.
    Eval,
    /// Bytecode-VM execution.
    Vm,
    /// Direct operational-semantics evaluation.
    Opsem,
    /// One-off prelude construction in a warm session.
    Prelude,
}

impl Phase {
    /// Stable lower-case name, used as the Chrome-trace span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Typecheck => "typecheck",
            Phase::Elaborate => "elaborate",
            Phase::Preservation => "preservation",
            Phase::Compile => "compile",
            Phase::Eval => "eval",
            Phase::Vm => "vm",
            Phase::Opsem => "opsem",
            Phase::Prelude => "prelude",
        }
    }
}

/// One structured observation from some pipeline stage.
///
/// Payloads are deliberately self-contained (pretty-printed types,
/// plain counters): no interner ids, no wall-clock values, nothing
/// that could differ between two runs of the same program.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// A pipeline phase began.
    PhaseStart {
        /// The phase.
        phase: Phase,
    },
    /// A pipeline phase finished.
    PhaseEnd {
        /// The phase.
        phase: Phase,
    },
    /// Resolution entered a (sub-)query (`Δ ⊢r ρ`).
    QueryEnter {
        /// The query, pretty-printed.
        query: String,
        /// Recursion depth (0 = the original query).
        depth: usize,
        /// Termination measure: the size `|τ|` of the query head,
        /// the quantity Appendix A requires to strictly decrease.
        measure: usize,
    },
    /// The derivation cache held a derivation for this query.
    CacheHit {
        /// The query, pretty-printed.
        query: String,
    },
    /// The derivation cache had no entry for this query.
    CacheMiss {
        /// The query, pretty-printed.
        query: String,
    },
    /// Lookup match-tested an environment rule and committed to it.
    CandidateAdmitted {
        /// Frame index, innermost-first.
        frame: usize,
        /// Rule position within the frame.
        index: usize,
        /// The stored rule, pretty-printed.
        rule: String,
    },
    /// Lookup match-tested an environment rule the head index
    /// admitted, but did not commit to it (no match, or lost the
    /// most-specific comparison).
    CandidateRejected {
        /// Frame index, innermost-first.
        frame: usize,
        /// Rule position within the frame.
        index: usize,
        /// The stored rule, pretty-printed.
        rule: String,
    },
    /// Lookup used an assumption frame of the §3.2
    /// environment-extension variant.
    AssumptionUsed {
        /// Recursion level whose queried context was assumed.
        level: usize,
        /// Premise position within that context.
        index: usize,
        /// The assumed rule, pretty-printed.
        rule: String,
    },
    /// A premise stayed abstract by partial resolution.
    PremiseAssumed {
        /// Position in the queried context π.
        index: usize,
        /// The premise, pretty-printed.
        rho: String,
    },
    /// A (sub-)query resolved successfully.
    QueryResolved {
        /// The query, pretty-printed.
        query: String,
        /// `TyRes` steps in its derivation.
        steps: usize,
    },
    /// A (sub-)query failed to resolve.
    QueryFailed {
        /// The query, pretty-printed.
        query: String,
        /// The failure, rendered.
        error: String,
    },
    /// The opsem runtime memo held a value for a resolution.
    MemoHit {
        /// The resolved rule type, pretty-printed.
        query: String,
    },
    /// The opsem runtime memo had no value for a resolution.
    MemoMiss {
        /// The resolved rule type, pretty-printed.
        query: String,
    },
    /// The session's dictionary inline cache answered an
    /// implicit-query site with an already-promoted evidence global
    /// (the dynamic analogue of a derivation-cache hit).
    IcHit {
        /// The query, pretty-printed.
        query: String,
    },
    /// The dictionary inline cache had no reusable entry for this
    /// query site (cold site, non-ground query, or an entry
    /// invalidated by shadowing/rollback).
    IcMiss {
        /// The query, pretty-printed.
        query: String,
    },
    /// One bytecode compile finished its superinstruction pass.
    Fusion {
        /// Instructions scanned by the peephole pass.
        scanned: u64,
        /// Adjacent pairs fused into superinstructions.
        fused: u64,
    },
    /// One tree-walking System F evaluation finished.
    TreeEval {
        /// Fuel charged (evaluation steps).
        fuel: u64,
    },
    /// One bytecode-VM execution finished.
    VmRun {
        /// Fuel charged (frame pushes + tail calls).
        fuel: u64,
        /// Tail calls that reused the running frame.
        tail_calls: u64,
        /// `fix` unfolds answered by the per-closure unfold cache.
        fix_unfolds: u64,
        /// Match dispatches answered by the match-site inline cache.
        match_ic_hits: u64,
        /// Match dispatches that fell back to the linear arm scan.
        match_ic_misses: u64,
    },
    /// A batch-driver worker picked up a job.
    JobStart {
        /// Worker index.
        worker: usize,
        /// Job index within the batch.
        job: usize,
        /// Whether the job was stolen from a sibling's deque.
        stolen: bool,
    },
    /// A batch-driver worker finished a job.
    JobFinish {
        /// Worker index.
        worker: usize,
        /// Job index within the batch.
        job: usize,
        /// Whether the job succeeded.
        ok: bool,
    },
}

impl TraceEvent {
    /// Stable lower-snake event name (the Chrome-trace `name`).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::PhaseStart { phase } | TraceEvent::PhaseEnd { phase } => phase.name(),
            TraceEvent::QueryEnter { .. } => "query_enter",
            TraceEvent::CacheHit { .. } => "cache_hit",
            TraceEvent::CacheMiss { .. } => "cache_miss",
            TraceEvent::CandidateAdmitted { .. } => "candidate_admitted",
            TraceEvent::CandidateRejected { .. } => "candidate_rejected",
            TraceEvent::AssumptionUsed { .. } => "assumption_used",
            TraceEvent::PremiseAssumed { .. } => "premise_assumed",
            TraceEvent::QueryResolved { .. } => "query_resolved",
            TraceEvent::QueryFailed { .. } => "query_failed",
            TraceEvent::MemoHit { .. } => "memo_hit",
            TraceEvent::MemoMiss { .. } => "memo_miss",
            TraceEvent::IcHit { .. } => "ic_hit",
            TraceEvent::IcMiss { .. } => "ic_miss",
            TraceEvent::Fusion { .. } => "fusion",
            TraceEvent::TreeEval { .. } => "tree_eval",
            TraceEvent::VmRun { .. } => "vm_run",
            TraceEvent::JobStart { .. } => "job_start",
            TraceEvent::JobFinish { .. } => "job_finish",
        }
    }

    /// Stable event category (the Chrome-trace `cat`).
    pub fn category(&self) -> &'static str {
        match self {
            TraceEvent::PhaseStart { .. } | TraceEvent::PhaseEnd { .. } => "phase",
            TraceEvent::QueryEnter { .. }
            | TraceEvent::CacheHit { .. }
            | TraceEvent::CacheMiss { .. }
            | TraceEvent::CandidateAdmitted { .. }
            | TraceEvent::CandidateRejected { .. }
            | TraceEvent::AssumptionUsed { .. }
            | TraceEvent::PremiseAssumed { .. }
            | TraceEvent::QueryResolved { .. }
            | TraceEvent::QueryFailed { .. } => "resolution",
            TraceEvent::MemoHit { .. } | TraceEvent::MemoMiss { .. } => "memo",
            TraceEvent::IcHit { .. } | TraceEvent::IcMiss { .. } => "ic",
            TraceEvent::Fusion { .. } => "compile",
            TraceEvent::TreeEval { .. } | TraceEvent::VmRun { .. } => "eval",
            TraceEvent::JobStart { .. } | TraceEvent::JobFinish { .. } => "driver",
        }
    }

    /// `true` for the cache markers a warm stream adds over a
    /// cache-off stream (`cache_hit` / `cache_miss`, and the
    /// dictionary-IC `ic_hit` / `ic_miss` pair, which likewise only
    /// report cache state without changing observable semantics).
    pub fn is_cache_marker(&self) -> bool {
        matches!(
            self,
            TraceEvent::CacheHit { .. }
                | TraceEvent::CacheMiss { .. }
                | TraceEvent::IcHit { .. }
                | TraceEvent::IcMiss { .. }
        )
    }

    /// The event's payload as (key, value) argument pairs, used for
    /// the Chrome-trace `args` object.
    fn args(&self) -> Vec<(&'static str, ArgValue)> {
        use ArgValue::{Flag, Num, Text};
        match self {
            TraceEvent::PhaseStart { .. } | TraceEvent::PhaseEnd { .. } => vec![],
            TraceEvent::QueryEnter {
                query,
                depth,
                measure,
            } => vec![
                ("query", Text(query.clone())),
                ("depth", Num(*depth as u64)),
                ("measure", Num(*measure as u64)),
            ],
            TraceEvent::CacheHit { query } | TraceEvent::CacheMiss { query } => {
                vec![("query", Text(query.clone()))]
            }
            TraceEvent::CandidateAdmitted { frame, index, rule }
            | TraceEvent::CandidateRejected { frame, index, rule } => vec![
                ("frame", Num(*frame as u64)),
                ("index", Num(*index as u64)),
                ("rule", Text(rule.clone())),
            ],
            TraceEvent::AssumptionUsed { level, index, rule } => vec![
                ("level", Num(*level as u64)),
                ("index", Num(*index as u64)),
                ("rule", Text(rule.clone())),
            ],
            TraceEvent::PremiseAssumed { index, rho } => {
                vec![("index", Num(*index as u64)), ("rho", Text(rho.clone()))]
            }
            TraceEvent::QueryResolved { query, steps } => vec![
                ("query", Text(query.clone())),
                ("steps", Num(*steps as u64)),
            ],
            TraceEvent::QueryFailed { query, error } => vec![
                ("query", Text(query.clone())),
                ("error", Text(error.clone())),
            ],
            TraceEvent::MemoHit { query }
            | TraceEvent::MemoMiss { query }
            | TraceEvent::IcHit { query }
            | TraceEvent::IcMiss { query } => {
                vec![("query", Text(query.clone()))]
            }
            TraceEvent::Fusion { scanned, fused } => {
                vec![("scanned", Num(*scanned)), ("fused", Num(*fused))]
            }
            TraceEvent::TreeEval { fuel } => vec![("fuel", Num(*fuel))],
            TraceEvent::VmRun {
                fuel,
                tail_calls,
                fix_unfolds,
                match_ic_hits,
                match_ic_misses,
            } => vec![
                ("fuel", Num(*fuel)),
                ("tail_calls", Num(*tail_calls)),
                ("fix_unfolds", Num(*fix_unfolds)),
                ("match_ic_hits", Num(*match_ic_hits)),
                ("match_ic_misses", Num(*match_ic_misses)),
            ],
            TraceEvent::JobStart {
                worker,
                job,
                stolen,
            } => vec![
                ("worker", Num(*worker as u64)),
                ("job", Num(*job as u64)),
                ("stolen", Flag(*stolen)),
            ],
            TraceEvent::JobFinish { worker, job, ok } => vec![
                ("worker", Num(*worker as u64)),
                ("job", Num(*job as u64)),
                ("ok", Flag(*ok)),
            ],
        }
    }
}

/// A Chrome-trace argument value.
enum ArgValue {
    Text(String),
    Num(u64),
    Flag(bool),
}

/// Receiver of [`TraceEvent`]s.
///
/// Instrumented code guards every emission with
/// `if sink.enabled() { sink.event(…) }`, so a sink whose `enabled`
/// is statically `false` ([`NullSink`]) costs nothing — including the
/// payload construction, which happens inside the guard.
pub trait TraceSink {
    /// Whether this sink wants events at all. Implementations should
    /// make this trivially inlinable.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event. Only called when [`enabled`](Self::enabled)
    /// is `true`.
    fn event(&mut self, ev: TraceEvent);
}

/// The default sink: statically disabled, compiles to nothing.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn event(&mut self, _ev: TraceEvent) {}
}

/// A sink that appends every event to a vector — the test workhorse.
#[derive(Clone, Default, Debug)]
pub struct CollectSink {
    /// Events in arrival order.
    pub events: Vec<TraceEvent>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// The collected events with cache markers removed — the shape
    /// the cache-off/cache-warm equivalence property compares.
    pub fn without_cache_markers(&self) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| !e.is_cache_marker())
            .cloned()
            .collect()
    }
}

impl TraceSink for CollectSink {
    fn event(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Forwards each event to both halves.
#[derive(Clone, Default, Debug)]
pub struct TeeSink<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for TeeSink<A, B> {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn event(&mut self, ev: TraceEvent) {
        match (self.0.enabled(), self.1.enabled()) {
            (true, true) => {
                self.0.event(ev.clone());
                self.1.event(ev);
            }
            (true, false) => self.0.event(ev),
            (false, true) => self.1.event(ev),
            (false, false) => {}
        }
    }
}

/// A cheap clonable handle on a shared sink, for components that hold
/// a sink across calls (the typechecker, the elaborator, a warm
/// `Session`) rather than threading `&mut` through deep recursion.
#[derive(Clone)]
pub struct SharedSink {
    inner: Rc<RefCell<dyn TraceSink>>,
}

impl SharedSink {
    /// Wraps a sink in a fresh shared handle.
    pub fn new(sink: impl TraceSink + 'static) -> SharedSink {
        SharedSink {
            inner: Rc::new(RefCell::new(sink)),
        }
    }

    /// Wraps an existing shared cell, letting the caller keep its own
    /// typed handle to read results back out.
    pub fn from_rc<T: TraceSink + 'static>(rc: Rc<RefCell<T>>) -> SharedSink {
        SharedSink { inner: rc }
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink").finish_non_exhaustive()
    }
}

impl TraceSink for SharedSink {
    fn enabled(&self) -> bool {
        self.inner.borrow().enabled()
    }

    fn event(&mut self, ev: TraceEvent) {
        self.inner.borrow_mut().event(ev);
    }
}

/// Fans events out to any number of shared sinks.
#[derive(Clone, Default, Debug)]
pub struct FanSink {
    /// The receiving sinks.
    pub sinks: Vec<SharedSink>,
}

impl TraceSink for FanSink {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn event(&mut self, ev: TraceEvent) {
        for s in &mut self.sinks {
            if s.enabled() {
                s.event(ev.clone());
            }
        }
    }
}

/// A timestamped event row: `(tid, microseconds, event)`.
pub type ChromeRow = (u64, u64, TraceEvent);

/// A sink that timestamps events against a shared clock, for export
/// in Chrome trace-event format. Wall-clock data lives only here —
/// the events themselves stay deterministic.
#[derive(Debug)]
pub struct ChromeSink {
    start: Instant,
    tid: u64,
    /// `(microseconds since clock start, event)` in arrival order.
    pub rows: Vec<(u64, TraceEvent)>,
}

impl ChromeSink {
    /// A sink with its own clock, on Chrome thread id 1.
    pub fn new() -> ChromeSink {
        ChromeSink::with_clock(Instant::now(), 1)
    }

    /// A sink stamping against `start` and tagging rows with `tid` —
    /// batch workers share one clock and use their worker index.
    pub fn with_clock(start: Instant, tid: u64) -> ChromeSink {
        ChromeSink {
            start,
            tid,
            rows: Vec::new(),
        }
    }

    /// The rows as `(tid, ts, event)` triples for
    /// [`chrome_trace_json`].
    pub fn into_rows(self) -> Vec<ChromeRow> {
        let tid = self.tid;
        self.rows
            .into_iter()
            .map(|(ts, ev)| (tid, ts, ev))
            .collect()
    }
}

impl Default for ChromeSink {
    fn default() -> ChromeSink {
        ChromeSink::new()
    }
}

impl TraceSink for ChromeSink {
    fn event(&mut self, ev: TraceEvent) {
        let ts = self.start.elapsed().as_micros() as u64;
        self.rows.push((ts, ev));
    }
}

/// Renders timestamped rows as a Chrome trace-event JSON document
/// (the `{"traceEvents": […]}` object format understood by
/// `about:tracing` and Perfetto).
///
/// Phase events become `B`/`E` duration spans; everything else
/// becomes a thread-scoped instant (`"ph":"i"`, `"s":"t"`) with the
/// payload under `args`.
pub fn chrome_trace_json(rows: &[ChromeRow]) -> String {
    let mut out = String::with_capacity(rows.len() * 96 + 64);
    out.push_str("{\"traceEvents\":[");
    for (i, (tid, ts, ev)) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match ev {
            TraceEvent::PhaseStart { .. } => "B",
            TraceEvent::PhaseEnd { .. } => "E",
            _ => "i",
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}",
            ev.name(),
            ev.category()
        );
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        let args = ev.args();
        if !args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":");
                match v {
                    ArgValue::Text(s) => crate::json::write_string(&mut out, s),
                    ArgValue::Num(n) => {
                        let _ = write!(out, "{n}");
                    }
                    ArgValue::Flag(b) => {
                        let _ = write!(out, "{b}");
                    }
                }
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// The unified counter snapshot: one place for every number the
/// pipeline used to scatter across `ResolutionStats`, the derivation
/// cache's counters, the opsem memo, `SessionStats`, and the VM.
///
/// Fill it by feeding events through a [`MetricsSink`], by the
/// `add_*` absorbers, or both; [`merge`](Self::merge) combines
/// snapshots (e.g. across batch workers).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct MetricsRegistry {
    /// Resolution (sub-)queries entered.
    pub queries: u64,
    /// Queries that resolved.
    pub queries_resolved: u64,
    /// Queries that failed.
    pub queries_failed: u64,
    /// Deepest query recursion observed.
    pub max_query_depth: usize,
    /// Candidate rules match-tested and committed to.
    pub candidates_admitted: u64,
    /// Candidate rules match-tested and passed over.
    pub candidates_rejected: u64,
    /// Premises discharged by partial resolution.
    pub premises_assumed: u64,
    /// Derivation-cache hits.
    pub cache_hits: u64,
    /// Derivation-cache misses.
    pub cache_misses: u64,
    /// Derivation-cache evictions.
    pub cache_evictions: u64,
    /// Opsem runtime-memo hits.
    pub memo_hits: u64,
    /// Opsem runtime-memo misses.
    pub memo_misses: u64,
    /// Dictionary inline-cache hits at implicit-query sites.
    pub ic_hits: u64,
    /// Dictionary inline-cache misses at implicit-query sites.
    pub ic_misses: u64,
    /// Instructions scanned by the superinstruction pass.
    pub instrs_scanned: u64,
    /// Adjacent instruction pairs fused into superinstructions.
    pub instrs_fused: u64,
    /// Tree-walking evaluations completed.
    pub tree_runs: u64,
    /// Fuel charged across tree-walking evaluations.
    pub tree_fuel: u64,
    /// Bytecode-VM executions completed.
    pub vm_runs: u64,
    /// Fuel charged across VM executions.
    pub vm_fuel: u64,
    /// VM tail calls that reused the running frame.
    pub vm_tail_calls: u64,
    /// VM `fix` unfolds answered by the unfold cache.
    pub vm_fix_unfolds: u64,
    /// VM match dispatches answered by the match-site inline cache.
    pub vm_match_ic_hits: u64,
    /// VM match dispatches that fell back to the linear arm scan.
    pub vm_match_ic_misses: u64,
    /// Programs a session ran.
    pub programs: u64,
    /// Programs additionally run under the operational semantics.
    pub opsem_programs: u64,
    /// Programs run on the bytecode VM.
    pub compiled_programs: u64,
    /// Session arena trims.
    pub trims: u64,
    /// Batch jobs completed.
    pub jobs: u64,
    /// Batch jobs obtained by stealing.
    pub steals: u64,
    /// Session artifacts that failed to load (truncated, corrupted,
    /// or key/version mismatch) and fell back to a cold build.
    pub artifact_fallbacks: u64,
}

impl MetricsRegistry {
    /// An all-zero snapshot.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Folds one event into the counters.
    pub fn record(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::PhaseStart { .. } | TraceEvent::PhaseEnd { .. } => {}
            TraceEvent::QueryEnter { depth, .. } => {
                self.queries += 1;
                self.max_query_depth = self.max_query_depth.max(*depth);
            }
            TraceEvent::CacheHit { .. } => self.cache_hits += 1,
            TraceEvent::CacheMiss { .. } => self.cache_misses += 1,
            TraceEvent::CandidateAdmitted { .. } | TraceEvent::AssumptionUsed { .. } => {
                self.candidates_admitted += 1;
            }
            TraceEvent::CandidateRejected { .. } => self.candidates_rejected += 1,
            TraceEvent::PremiseAssumed { .. } => self.premises_assumed += 1,
            TraceEvent::QueryResolved { .. } => self.queries_resolved += 1,
            TraceEvent::QueryFailed { .. } => self.queries_failed += 1,
            TraceEvent::MemoHit { .. } => self.memo_hits += 1,
            TraceEvent::MemoMiss { .. } => self.memo_misses += 1,
            TraceEvent::IcHit { .. } => self.ic_hits += 1,
            TraceEvent::IcMiss { .. } => self.ic_misses += 1,
            TraceEvent::Fusion { scanned, fused } => {
                self.instrs_scanned += scanned;
                self.instrs_fused += fused;
            }
            TraceEvent::TreeEval { fuel } => {
                self.tree_runs += 1;
                self.tree_fuel += fuel;
            }
            TraceEvent::VmRun {
                fuel,
                tail_calls,
                fix_unfolds,
                match_ic_hits,
                match_ic_misses,
            } => {
                self.vm_runs += 1;
                self.vm_fuel += fuel;
                self.vm_tail_calls += tail_calls;
                self.vm_fix_unfolds += fix_unfolds;
                self.vm_match_ic_hits += match_ic_hits;
                self.vm_match_ic_misses += match_ic_misses;
            }
            TraceEvent::JobStart { stolen, .. } => {
                if *stolen {
                    self.steals += 1;
                }
            }
            TraceEvent::JobFinish { .. } => self.jobs += 1,
        }
    }

    /// Adds every counter of `other` into `self` (depths take the
    /// max).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.queries += other.queries;
        self.queries_resolved += other.queries_resolved;
        self.queries_failed += other.queries_failed;
        self.max_query_depth = self.max_query_depth.max(other.max_query_depth);
        self.candidates_admitted += other.candidates_admitted;
        self.candidates_rejected += other.candidates_rejected;
        self.premises_assumed += other.premises_assumed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.ic_hits += other.ic_hits;
        self.ic_misses += other.ic_misses;
        self.instrs_scanned += other.instrs_scanned;
        self.instrs_fused += other.instrs_fused;
        self.tree_runs += other.tree_runs;
        self.tree_fuel += other.tree_fuel;
        self.vm_runs += other.vm_runs;
        self.vm_fuel += other.vm_fuel;
        self.vm_tail_calls += other.vm_tail_calls;
        self.vm_fix_unfolds += other.vm_fix_unfolds;
        self.vm_match_ic_hits += other.vm_match_ic_hits;
        self.vm_match_ic_misses += other.vm_match_ic_misses;
        self.programs += other.programs;
        self.opsem_programs += other.opsem_programs;
        self.compiled_programs += other.compiled_programs;
        self.trims += other.trims;
        self.jobs += other.jobs;
        self.steals += other.steals;
        self.artifact_fallbacks += other.artifact_fallbacks;
    }

    /// Absorbs a per-derivation [`crate::resolve::ResolutionStats`]
    /// (its cumulative `cache_*` mirror fields are *not* taken — use
    /// [`set_cache_counters`](Self::set_cache_counters) with the
    /// environment's own counters instead, to avoid double counting).
    pub fn add_resolution_stats(&mut self, stats: &crate::resolve::ResolutionStats) {
        self.queries += stats.steps as u64;
        self.queries_resolved += stats.steps as u64;
        self.candidates_admitted += stats.steps as u64;
        self.candidates_rejected += (stats.rules_tried - stats.steps) as u64;
        self.premises_assumed += stats.assumed as u64;
    }

    /// Overwrites the cache counters from an environment snapshot.
    pub fn set_cache_counters(&mut self, counters: crate::env::CacheCounters) {
        self.cache_hits = counters.hits;
        self.cache_misses = counters.misses;
        self.cache_evictions = counters.evictions;
    }

    /// Every counter as `(name, value)` pairs in declaration order
    /// (`max_query_depth` widened to `u64`) — the machine-readable
    /// mirror of [`render_table`](Self::render_table), used by JSON
    /// reports.
    pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("queries", self.queries),
            ("queries_resolved", self.queries_resolved),
            ("queries_failed", self.queries_failed),
            ("max_query_depth", self.max_query_depth as u64),
            ("candidates_admitted", self.candidates_admitted),
            ("candidates_rejected", self.candidates_rejected),
            ("premises_assumed", self.premises_assumed),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("memo_hits", self.memo_hits),
            ("memo_misses", self.memo_misses),
            ("ic_hits", self.ic_hits),
            ("ic_misses", self.ic_misses),
            ("instrs_scanned", self.instrs_scanned),
            ("instrs_fused", self.instrs_fused),
            ("tree_runs", self.tree_runs),
            ("tree_fuel", self.tree_fuel),
            ("vm_runs", self.vm_runs),
            ("vm_fuel", self.vm_fuel),
            ("vm_tail_calls", self.vm_tail_calls),
            ("vm_fix_unfolds", self.vm_fix_unfolds),
            ("vm_match_ic_hits", self.vm_match_ic_hits),
            ("vm_match_ic_misses", self.vm_match_ic_misses),
            ("programs", self.programs),
            ("opsem_programs", self.opsem_programs),
            ("compiled_programs", self.compiled_programs),
            ("trims", self.trims),
            ("jobs", self.jobs),
            ("steals", self.steals),
            ("artifact_fallbacks", self.artifact_fallbacks),
        ]
    }

    /// Renders the snapshot as the aligned human table behind
    /// `implicitc --metrics`. Zero sections are skipped.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let mut row = |k: &str, v: String| {
            let _ = writeln!(out, "  {k:<24} {v:>12}");
        };
        if self.queries > 0 || self.queries_failed > 0 {
            row("queries", self.queries.to_string());
            row("  resolved", self.queries_resolved.to_string());
            row("  failed", self.queries_failed.to_string());
            row("  max depth", self.max_query_depth.to_string());
            row("candidates admitted", self.candidates_admitted.to_string());
            row("candidates rejected", self.candidates_rejected.to_string());
            row("premises assumed", self.premises_assumed.to_string());
        }
        if self.cache_hits + self.cache_misses > 0 {
            row("cache hits", self.cache_hits.to_string());
            row("cache misses", self.cache_misses.to_string());
            row("cache evictions", self.cache_evictions.to_string());
            let rate =
                100.0 * self.cache_hits as f64 / (self.cache_hits + self.cache_misses) as f64;
            row("cache hit rate", format!("{rate:.1}%"));
        }
        if self.memo_hits + self.memo_misses > 0 {
            row("memo hits", self.memo_hits.to_string());
            row("memo misses", self.memo_misses.to_string());
        }
        if self.ic_hits + self.ic_misses > 0 {
            row("ic hits", self.ic_hits.to_string());
            row("ic misses", self.ic_misses.to_string());
            let rate = 100.0 * self.ic_hits as f64 / (self.ic_hits + self.ic_misses) as f64;
            row("ic hit rate", format!("{rate:.1}%"));
        }
        if self.instrs_scanned > 0 {
            row("instrs scanned", self.instrs_scanned.to_string());
            row("instrs fused", self.instrs_fused.to_string());
        }
        if self.tree_runs > 0 {
            row("tree runs", self.tree_runs.to_string());
            row("tree fuel", self.tree_fuel.to_string());
        }
        if self.vm_runs > 0 {
            row("vm runs", self.vm_runs.to_string());
            row("vm fuel", self.vm_fuel.to_string());
            row("vm tail calls", self.vm_tail_calls.to_string());
            row("vm fix unfolds", self.vm_fix_unfolds.to_string());
            row("vm match ic hits", self.vm_match_ic_hits.to_string());
            row("vm match ic misses", self.vm_match_ic_misses.to_string());
        }
        if self.programs > 0 {
            row("programs", self.programs.to_string());
            row("  opsem", self.opsem_programs.to_string());
            row("  compiled", self.compiled_programs.to_string());
            row("trims", self.trims.to_string());
        }
        if self.jobs > 0 {
            row("jobs", self.jobs.to_string());
            row("steals", self.steals.to_string());
        }
        if self.artifact_fallbacks > 0 {
            row("artifact fallbacks", self.artifact_fallbacks.to_string());
        }
        if out.is_empty() {
            out.push_str("  (no activity recorded)\n");
        }
        out
    }
}

/// A sink that folds every event into a [`MetricsRegistry`].
#[derive(Clone, Copy, Default, Debug)]
pub struct MetricsSink {
    /// The accumulated counters.
    pub metrics: MetricsRegistry,
}

impl MetricsSink {
    /// A sink with zeroed counters.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }
}

impl TraceSink for MetricsSink {
    fn event(&mut self, ev: TraceEvent) {
        self.metrics.record(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
    }

    #[test]
    fn collect_sink_orders_events() {
        let mut s = CollectSink::new();
        s.event(TraceEvent::PhaseStart {
            phase: Phase::Parse,
        });
        s.event(TraceEvent::PhaseEnd {
            phase: Phase::Parse,
        });
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].name(), "parse");
    }

    #[test]
    fn cache_marker_filter() {
        let mut s = CollectSink::new();
        s.event(TraceEvent::CacheMiss {
            query: "Int".into(),
        });
        s.event(TraceEvent::QueryResolved {
            query: "Int".into(),
            steps: 1,
        });
        assert_eq!(s.without_cache_markers().len(), 1);
    }

    #[test]
    fn tee_and_fan_deliver_to_all() {
        let a = Rc::new(RefCell::new(CollectSink::new()));
        let b = Rc::new(RefCell::new(MetricsSink::new()));
        let mut fan = FanSink {
            sinks: vec![
                SharedSink::from_rc(a.clone()),
                SharedSink::from_rc(b.clone()),
            ],
        };
        fan.event(TraceEvent::QueryResolved {
            query: "Int".into(),
            steps: 3,
        });
        assert_eq!(a.borrow().events.len(), 1);
        assert_eq!(b.borrow().metrics.queries_resolved, 1);

        let mut tee = TeeSink(CollectSink::new(), MetricsSink::new());
        tee.event(TraceEvent::MemoHit {
            query: "Bool".into(),
        });
        assert_eq!(tee.0.events.len(), 1);
        assert_eq!(tee.1.metrics.memo_hits, 1);
    }

    #[test]
    fn metrics_record_and_merge() {
        let mut m = MetricsRegistry::new();
        m.record(&TraceEvent::QueryEnter {
            query: "Int".into(),
            depth: 3,
            measure: 1,
        });
        m.record(&TraceEvent::VmRun {
            fuel: 10,
            tail_calls: 4,
            fix_unfolds: 2,
            match_ic_hits: 3,
            match_ic_misses: 1,
        });
        m.record(&TraceEvent::IcHit {
            query: "Int".into(),
        });
        m.record(&TraceEvent::Fusion {
            scanned: 30,
            fused: 6,
        });
        m.record(&TraceEvent::JobStart {
            worker: 0,
            job: 7,
            stolen: true,
        });
        m.record(&TraceEvent::JobFinish {
            worker: 0,
            job: 7,
            ok: true,
        });
        let mut total = MetricsRegistry::new();
        total.merge(&m);
        total.merge(&m);
        assert_eq!(total.queries, 2);
        assert_eq!(total.max_query_depth, 3);
        assert_eq!(total.vm_fuel, 20);
        assert_eq!(total.vm_match_ic_hits, 6);
        assert_eq!(total.ic_hits, 2);
        assert_eq!(total.instrs_fused, 12);
        assert_eq!(total.steals, 2);
        assert_eq!(total.jobs, 2);
        let table = total.render_table();
        assert!(table.contains("queries"), "got: {table}");
        assert!(table.contains("vm fuel"), "got: {table}");
    }

    #[test]
    fn chrome_json_shape() {
        let rows = vec![
            (
                1,
                0,
                TraceEvent::PhaseStart {
                    phase: Phase::Typecheck,
                },
            ),
            (
                1,
                5,
                TraceEvent::QueryResolved {
                    query: "Int \"x\"".into(),
                    steps: 1,
                },
            ),
            (
                1,
                9,
                TraceEvent::PhaseEnd {
                    phase: Phase::Typecheck,
                },
            ),
        ];
        let json = chrome_trace_json(&rows);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""), "got: {json}");
        assert!(json.contains("\"ph\":\"E\""), "got: {json}");
        assert!(json.contains("\"ph\":\"i\""), "got: {json}");
        assert!(json.contains("\\\"x\\\""), "escaping: {json}");
        assert!(json.contains("\"ts\":5"), "got: {json}");
    }
}
