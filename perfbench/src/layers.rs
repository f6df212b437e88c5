//! Timed calls into each layer's public functions, made from the
//! benchmark's own code (nothing inside the program is instrumented).
//!
//! Where one public call spans several layers
//! ([`Session::run_compiled`]), the split comes from the session's
//! existing phase events through [`PhaseTimer`]. Elaboration is never
//! taken from such a pass: an installed sink makes the elaborator
//! build every resolution event, so elaborate (with the resolution
//! inside it) is timed by a direct call instead ([`MirrorElab`]).

use std::cell::RefCell;
use std::io::Cursor;
use std::rc::Rc;
use std::time::{Duration, Instant};

use implicit_core::env::{EnvSnapshot, ImplicitEnv};
use implicit_core::parse::parse_expr;
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::symbol::{fresh, Symbol};
use implicit_core::syntax::{Declarations, Expr};
use implicit_core::trace::{Phase, SharedSink, TraceEvent, TraceSink};
use implicit_elab::Elaborator;
use implicit_pipeline::service::{parse_json, read_frame, write_frame, Json};
use implicit_pipeline::{Backend, Prelude, Session};

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The phases a session reports that the benchmark splits out.
const PHASES: [Phase; 5] = [
    Phase::Elaborate,
    Phase::Preservation,
    Phase::Compile,
    Phase::Vm,
    Phase::Opsem,
];

/// A trace sink that only accumulates wall time per session phase.
#[derive(Default)]
pub struct PhaseTimer {
    open: [Option<Instant>; PHASES.len()],
    total: [Duration; PHASES.len()],
}

impl PhaseTimer {
    /// A shared timer and the sink handle to install with
    /// [`Session::set_trace`].
    pub fn shared() -> (Rc<RefCell<PhaseTimer>>, SharedSink) {
        let rc = Rc::new(RefCell::new(PhaseTimer::default()));
        let sink = SharedSink::from_rc(rc.clone());
        (rc, sink)
    }

    /// Time spent in `phase` since the last [`PhaseTimer::reset`].
    pub fn get(&self, phase: Phase) -> Duration {
        PHASES
            .iter()
            .position(|p| *p == phase)
            .map(|i| self.total[i])
            .unwrap_or_default()
    }

    pub fn reset(&mut self) {
        *self = PhaseTimer::default();
    }
}

impl TraceSink for PhaseTimer {
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::PhaseStart { phase } => {
                if let Some(i) = PHASES.iter().position(|p| *p == phase) {
                    self.open[i] = Some(Instant::now());
                }
            }
            TraceEvent::PhaseEnd { phase } => {
                if let Some(i) = PHASES.iter().position(|p| *p == phase) {
                    if let Some(t) = self.open[i].take() {
                        self.total[i] += t.elapsed();
                    }
                }
            }
            _ => {}
        }
    }
}

/// Time inside one session call that no phase span covers: the
/// session's own bookkeeping (environment restore, code rollback,
/// dictionary promotion, arena trims). `call` is the whole call's time
/// and `timer` holds that call's phases.
pub fn bookkeeping(call: Duration, timer: &PhaseTimer) -> f64 {
    let phases: Duration = PHASES.iter().map(|p| timer.get(*p)).sum();
    us(call.saturating_sub(phases))
}

/// Elaboration timed by a direct call: an elaborator over a clone of a
/// warm session's implicit environment (prelude frames and derivation
/// cache), with fresh evidence variables standing in for the session's
/// own. The elaborated term is discarded; only the time is kept.
pub struct MirrorElab<'d> {
    elab: Elaborator<'d>,
    env: ImplicitEnv,
    base: EnvSnapshot,
    evidence: Vec<Vec<Symbol>>,
}

impl<'d> MirrorElab<'d> {
    pub fn new(decls: &'d Declarations, policy: &ResolutionPolicy, env: &ImplicitEnv) -> Self {
        let mut evidence: Vec<Vec<Symbol>> = env
            .frames_innermost_first()
            .map(|(_, rules)| rules.iter().map(|_| fresh("bev")).collect())
            .collect();
        evidence.reverse();
        let env = env.clone();
        MirrorElab {
            elab: Elaborator::with_policy(decls, policy.clone()),
            base: env.snapshot(),
            env,
            evidence,
        }
    }

    /// Elaborates `e`; returns the time taken and whether it succeeded.
    pub fn time(&mut self, e: &Expr) -> (Duration, bool) {
        let t = Instant::now();
        let r = self
            .elab
            .elaborate_with_env(&mut self.env, &self.evidence, &[], e);
        let took = t.elapsed();
        self.env.restore(&self.base);
        (took, r.is_ok())
    }
}

/// A request or reply rendered as one length-prefixed protocol frame.
pub fn frame_bytes(doc: &Json) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, doc.render().as_bytes()).expect("writing to a Vec cannot fail");
    buf
}

/// Frame decode as a connection thread does it: `read_frame`, UTF-8
/// check, `parse_json`.
pub fn decode(frame: &[u8]) -> (Duration, Json) {
    let t = Instant::now();
    let payload = read_frame(&mut Cursor::new(frame)).expect("benchmark frames are well-formed");
    let doc = std::str::from_utf8(&payload)
        .map_err(|e| e.to_string())
        .and_then(parse_json)
        .expect("benchmark frames hold JSON");
    (t.elapsed(), doc)
}

/// Reply encode as a connection thread does it: `Json::render` plus
/// `write_frame` (into memory, so no socket time is counted).
pub fn encode(reply: &Json, buf: &mut Vec<u8>) -> Duration {
    let t = Instant::now();
    buf.clear();
    write_frame(buf, reply.render().as_bytes()).expect("writing to a Vec cannot fail");
    t.elapsed()
}

/// How a program's printed text survives the print/parse round trip.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Roundtrip {
    Same,
    Unparseable,
    Different,
}

pub fn roundtrip(e: &Expr) -> (String, Roundtrip) {
    let text = e.to_string();
    let rt = match parse_expr(&text) {
        Ok(p) if &p == e => Roundtrip::Same,
        Ok(_) => Roundtrip::Different,
        Err(_) => Roundtrip::Unparseable,
    };
    (text, rt)
}

/// Artifact round trip of a warm session: `(encode, decode, bytes)`.
pub fn artifact_timings(
    session: &mut Session<'_>,
    decls: &Declarations,
    prelude: &Prelude,
) -> (Duration, Duration, usize) {
    let t = Instant::now();
    let bytes = session.to_artifact();
    let enc = t.elapsed();
    let t = Instant::now();
    let back = Session::from_artifact(
        decls,
        &ResolutionPolicy::paper(),
        prelude,
        true,
        false,
        Backend::Vm.isa().expect("the VM backend has an ISA"),
        &bytes,
    );
    let dec = t.elapsed();
    assert!(back.is_ok(), "a fresh artifact decodes");
    (enc, dec, bytes.len())
}

/// A warm VM session with the daemon's tenant configuration (fusion
/// on, dictionary inline cache off, register ISA).
pub fn vm_session<'d>(decls: &'d Declarations, prelude: &Prelude) -> Session<'d> {
    Session::new_configured_isa(
        decls,
        ResolutionPolicy::paper(),
        prelude,
        true,
        false,
        Backend::Vm.isa().expect("the VM backend has an ISA"),
    )
    .expect("benchmark preludes are valid")
}
