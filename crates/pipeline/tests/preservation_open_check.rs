//! The per-program preservation check is an *open* check: a session
//! typechecks each elaborated target under its System F environment
//! (the prelude's `let` and evidence binders, then promoted dictionary
//! globals) instead of closing the target over those binders.
//!
//! By the `Lam` rule the two judgments coincide. This test keeps the
//! closed check as an oracle — wrap the target in one `λ` per binder,
//! typecheck the wrapper, peel one arrow per binder — and asserts the
//! open check gives the same target type, or the same `FTypeError`,
//! on generated programs under three resolution policies, for every
//! way a session can be built: fresh, rehydrated from an artifact,
//! rebuilt incrementally from an edited prelude's artifact, and with
//! the dictionary inline cache on after promotions (fresh, and
//! rehydrated from that session's artifact).
//!
//! The oracle reads its binders from the session's serialized
//! artifact (`let` binders, implicit context, evidence variables and
//! promoted dictionaries), not from the environment under test.

use genprog::{data_prelude, gen_program_with, rng, GenConfig};
use implicit_core::resolve::ResolutionPolicy;
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_elab::{translate_decls, translate_rule_type, translate_type, RunError};
use implicit_pipeline::artifact::{decode, rebuild_incremental};
use implicit_pipeline::{Prelude, Session};
use systemf::{FDeclarations, FExpr, FType, FTypeError, Isa};

const SEEDS_PER_POLICY: u64 = 200;
const CHAIN: usize = 6;

fn policies() -> Vec<(&'static str, ResolutionPolicy)> {
    vec![
        ("paper", ResolutionPolicy::paper()),
        (
            "most-specific",
            ResolutionPolicy::paper().with_most_specific(),
        ),
        (
            "env-extension",
            ResolutionPolicy::paper().with_env_extension(),
        ),
    ]
}

/// Two `let`s in front of the chain prelude, so the environment holds
/// both kinds of prelude binder. `base` and the last chain binding's
/// constant are the fields an incremental rebuild edits.
fn prelude_with(base: i64, last: i64) -> Prelude {
    let mut prelude = Prelude::chain(CHAIN);
    let (_, rho) = prelude.implicits[CHAIN].clone();
    let prev = Prelude::chain_head(CHAIN - 1);
    let body = Expr::pair(Expr::query_simple(prev), Expr::Int(last));
    prelude.implicits[CHAIN] = (Expr::rule_abs(rho.clone(), body), rho);
    prelude.lets = vec![
        (Symbol::from("base"), Type::Int, Expr::Int(base)),
        (Symbol::from("flag"), Type::Bool, Expr::Bool(true)),
    ];
    prelude
}

/// The session's binders as its artifact records them, in
/// environment order.
fn oracle_binders(sess: &mut Session<'_>) -> Vec<(Symbol, FType)> {
    let a = decode(&sess.to_artifact()).expect("a fresh artifact decodes");
    a.gamma
        .iter()
        .map(|(x, ty)| (*x, translate_type(ty)))
        .chain(
            a.evidence
                .iter()
                .flatten()
                .copied()
                .zip(a.context.iter().map(translate_rule_type)),
        )
        .chain(a.dict_binders.iter().cloned())
        .collect()
}

/// The closed check: `λx̄:τ̄. target`, typechecked, arrows peeled.
fn closed_check(
    fdecls: &FDeclarations,
    binders: &[(Symbol, FType)],
    target: &FExpr,
) -> Result<FType, FTypeError> {
    let mut closed = target.clone();
    for (x, t) in binders.iter().rev() {
        closed = FExpr::Lam(*x, t.clone(), closed.into());
    }
    let mut ty = systemf::typecheck(fdecls, &closed)?;
    for _ in binders {
        let FType::Arrow(_, r) = ty else {
            panic!("the wrapper's type has one arrow per binder");
        };
        ty = (*r).clone();
    }
    Ok(ty)
}

/// `snd(?T_k) + j`: a ground prelude query the dictionary inline
/// cache promotes.
fn chain_query(k: usize, j: i64) -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Snd(Expr::query_simple(Prelude::chain_head(k)).into()),
        Expr::Int(j),
    )
}

fn programs(decls: &Declarations, policy_ix: u64) -> Vec<Expr> {
    let config = GenConfig::default();
    (0..SEEDS_PER_POLICY)
        .map(|seed| {
            if seed % 4 == 0 {
                chain_query((seed as usize / 4) % (CHAIN + 1), seed as i64)
            } else {
                let mut r = rng(0x0BE7 ^ (policy_ix << 32) ^ seed);
                gen_program_with(&mut r, &config, decls).expr
            }
        })
        .collect()
}

/// Outcome counts of one leg.
#[derive(Default)]
struct Tally {
    typed: u64,
    ill_typed: u64,
    skipped: u64,
}

/// Runs every program on `sess` and compares the open check against
/// the closed oracle, on the elaborated target and on a variant that
/// applies a prelude binder to a string. Returns each program's target
/// type, digits stripped (`None` where elaboration or evaluation
/// failed).
fn check_leg(
    leg: &str,
    sess: &mut Session<'_>,
    fdecls: &FDeclarations,
    progs: &[Expr],
    tally: &mut Tally,
) -> Vec<Option<String>> {
    let mut types = Vec::with_capacity(progs.len());
    for (i, e) in progs.iter().enumerate() {
        let out = match sess.run_compiled(e) {
            Ok(out) => out,
            Err(RunError::PreservationViolated(err)) => {
                panic!("[{leg}/{i}] preservation violated on {e}: {err}")
            }
            Err(_) => {
                tally.skipped += 1;
                types.push(None);
                continue;
            }
        };
        // Binders after the run: promotions at its end only append
        // fresh, unused, ground binders, which change neither check.
        let binders = oracle_binders(sess);
        let oracle = closed_check(fdecls, &binders, &out.target)
            .unwrap_or_else(|err| panic!("[{leg}/{i}] closed check rejects {e}: {err}"));
        assert_eq!(out.target_type, oracle, "[{leg}/{i}] target type of {e}");
        let open = sess.check_preservation(&out.target).unwrap();
        assert_eq!(open, oracle, "[{leg}/{i}] re-check of {e}");
        tally.typed += 1;

        let (x, _) = binders[i % binders.len()];
        let bad = FExpr::Pair(
            out.target.clone().into(),
            FExpr::app(FExpr::Var(x), FExpr::Str("wrong".into())).into(),
        );
        match (
            sess.check_preservation(&bad),
            closed_check(fdecls, &binders, &bad),
        ) {
            (Ok(open), Ok(closed)) => assert_eq!(open, closed, "[{leg}/{i}] `{x}` variant"),
            (Err(RunError::PreservationViolated(open)), Err(closed)) => {
                assert_eq!(open, closed, "[{leg}/{i}] `{x}` variant");
                tally.ill_typed += 1;
            }
            (open, closed) => {
                panic!("[{leg}/{i}] `{x}` variant: open {open:?}, closed {closed:?}")
            }
        }
        // Digits stripped: gensym suffixes differ between sessions.
        let ty = out.target_type.to_string();
        types.push(Some(ty.chars().filter(|c| !c.is_ascii_digit()).collect()));
    }
    types
}

#[test]
fn open_check_agrees_with_the_closed_wrapper_on_every_construction_path() {
    let decls = data_prelude();
    let fdecls = translate_decls(&decls);
    let prelude = prelude_with(40, CHAIN as i64);
    let edited_from = prelude_with(41, 100);
    let mut tally = Tally::default();
    let mut promoted = 0usize;

    for (ix, (pname, policy)) in policies().into_iter().enumerate() {
        let progs = programs(&decls, ix as u64);

        let mut fresh = Session::new(&decls, policy.clone(), &prelude)
            .unwrap_or_else(|e| panic!("[{pname}] prelude failed: {e}"));
        let bytes = Session::new(&decls, policy.clone(), &prelude)
            .unwrap()
            .to_artifact();
        let mut loaded = Session::from_artifact(
            &decls,
            &policy,
            &prelude,
            true,
            false,
            Isa::Register,
            &bytes,
        )
        .unwrap_or_else(|e| panic!("[{pname}] rehydration failed: {e}"));
        let old = Session::new(&decls, policy.clone(), &edited_from)
            .unwrap()
            .to_artifact();
        let (mut rebuilt, stats) = rebuild_incremental(&decls, decode(&old).unwrap(), &prelude)
            .unwrap_or_else(|e| panic!("[{pname}] incremental rebuild failed: {e}"));
        assert!(
            stats.bindings_reused > 0 && stats.bindings_reused < stats.bindings_total,
            "[{pname}] the rebuild reuses some bindings and recomputes others"
        );
        let mut ic = Session::new_configured(&decls, policy.clone(), &prelude, true, true)
            .unwrap_or_else(|e| panic!("[{pname}] prelude failed: {e}"));
        // A first pass promotes dictionaries, so the checked pass runs
        // IC-hit targets whose free variables include promoted globals.
        for e in &progs {
            let _ = ic.run_compiled(e);
        }
        promoted += ic.dict_entries();
        // The promoted dictionaries' binders also survive a restart.
        let mut ic_loaded = Session::from_artifact(
            &decls,
            &policy,
            &prelude,
            true,
            true,
            Isa::Register,
            &ic.to_artifact(),
        )
        .unwrap_or_else(|e| panic!("[{pname}] dict_ic rehydration failed: {e}"));

        let want = check_leg(
            &format!("{pname}/fresh"),
            &mut fresh,
            &fdecls,
            &progs,
            &mut tally,
        );
        for (leg, sess) in [
            ("artifact", &mut loaded),
            ("incremental", &mut rebuilt),
            ("dict_ic", &mut ic),
            ("dict_ic artifact", &mut ic_loaded),
        ] {
            let got = check_leg(&format!("{pname}/{leg}"), sess, &fdecls, &progs, &mut tally);
            assert_eq!(
                got, want,
                "[{pname}/{leg}] target types differ from a fresh session"
            );
        }
    }
    assert!(promoted > 0, "the dictionary legs promoted nothing");
    assert!(
        tally.typed >= 5 * 3 * SEEDS_PER_POLICY / 2,
        "too few programs elaborated ({} typed, {} skipped)",
        tally.typed,
        tally.skipped
    );
    assert!(
        tally.ill_typed >= tally.typed / 2,
        "too few ill-typed variants ({} of {})",
        tally.ill_typed,
        tally.typed
    );
}

#[test]
fn a_prelude_binder_at_the_wrong_type_is_a_preservation_violation() {
    let decls = Declarations::default();
    let prelude = prelude_with(40, CHAIN as i64);
    let bytes = Session::new(&decls, ResolutionPolicy::paper(), &prelude)
        .unwrap()
        .to_artifact();
    let fresh = Session::new(&decls, ResolutionPolicy::paper(), &prelude).unwrap();
    let loaded = Session::from_artifact(
        &decls,
        &ResolutionPolicy::paper(),
        &prelude,
        true,
        false,
        Isa::Register,
        &bytes,
    )
    .unwrap();
    for mut sess in [fresh, loaded] {
        // `base ++ "!"`: the `Int` let used as a string.
        let target = FExpr::BinOp(
            systemf::syntax::BinOp::Concat,
            FExpr::Var(Symbol::from("base")).into(),
            FExpr::Str("!".into()).into(),
        );
        match sess.check_preservation(&target) {
            Err(RunError::PreservationViolated(FTypeError::Mismatch {
                expected, found, ..
            })) => {
                assert_eq!((expected, found), (FType::Str, FType::Int));
            }
            other => panic!("expected a preservation violation, got {other:?}"),
        }
        // The well-typed use still checks.
        let ok = FExpr::BinOp(
            systemf::syntax::BinOp::Add,
            FExpr::Var(Symbol::from("base")).into(),
            FExpr::Int(2).into(),
        );
        assert_eq!(sess.check_preservation(&ok).unwrap(), FType::Int);
    }
}
