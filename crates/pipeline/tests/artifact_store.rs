//! Artifact-store behavior: exact rehydration fidelity (byte-stable
//! re-encode), graceful degradation on corruption (fallback to cold,
//! counted, never a panic or stale code), and incremental-rebuild
//! precision (a one-binding edit invalidates exactly its dependency
//! cone).

use implicit_core::resolve::{resolve, ResolutionPolicy};
use implicit_core::symbol::Symbol;
use implicit_core::syntax::{BinOp, Declarations, Expr, Type};
use implicit_pipeline::artifact::{self, artifact_key, config_key, ArtifactStore, LoadOutcome};
use implicit_pipeline::{Prelude, Session};
use systemf::Isa;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("implicit-artifact-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// `x0 = root; x_k = x_{k-1} + 1` lets, then two implicits: `Int`
/// evidence reading the last let, and `Int × Int` evidence querying
/// `?Int` (so it reads the first implicit's evidence). Every binding
/// reads its predecessor, so the dependency graph is one chain —
/// invalidation cones are exact intervals.
fn lets_chain(n: usize, root: i64, bump: i64) -> Prelude {
    let x = |k: usize| Symbol::intern(&format!("x{k}"));
    let mut lets = vec![(x(0), Type::Int, Expr::Int(root))];
    for k in 1..n {
        lets.push((
            x(k),
            Type::Int,
            Expr::binop(BinOp::Add, Expr::var(x(k - 1)), Expr::Int(1)),
        ));
    }
    let implicits = vec![
        (Expr::var(x(n - 1)), Type::Int.promote()),
        (
            Expr::pair(Expr::query_simple(Type::Int), Expr::Int(bump)),
            Type::prod(Type::Int, Type::Int).promote(),
        ),
    ];
    Prelude { lets, implicits }
}

/// `?(Int × Int)` plus the first let — exercises lets, both implicit
/// frames, the derivation cache, and the runtime memo.
fn probe() -> Expr {
    Expr::binop(
        BinOp::Add,
        Expr::Snd(Expr::query_simple(Type::prod(Type::Int, Type::Int)).into()),
        Expr::var("x0"),
    )
}

#[test]
fn rehydrated_session_reencodes_byte_identically() {
    let decls = Declarations::default();
    let prelude = lets_chain(4, 10, 1);
    let policy = ResolutionPolicy::paper();
    let mut builder = Session::new(&decls, policy.clone(), &prelude).unwrap();
    // Warm the caches so the artifact carries nontrivial cache and
    // memo sections, not just the prelude skeleton.
    builder.run(&probe()).unwrap();
    builder.run_compiled(&probe()).unwrap();
    builder.run_opsem(&probe()).unwrap();
    let bytes = builder.to_artifact();
    drop(builder);

    let mut back = Session::from_artifact(
        &decls,
        &policy,
        &prelude,
        true,
        false,
        Isa::Register,
        &bytes,
    )
    .unwrap();
    let again = back.to_artifact();
    assert_eq!(
        bytes, again,
        "decode → assemble → re-encode must be byte-identical"
    );

    // And the rehydrated session computes the same values as a cold
    // build, with warm-cache behavior (hits on the very first run).
    let mut cold = Session::new(&decls, policy, &prelude).unwrap();
    let w = back.run_compiled(&probe()).unwrap();
    let c = cold.run_compiled(&probe()).unwrap();
    assert_eq!(w.value.to_string(), c.value.to_string());
    let hits = back.cache_counters().hits;
    assert!(
        hits > 0,
        "rehydrated session must hit the imported derivation cache on its first program"
    );
}

#[test]
fn corrupted_artifacts_fall_back_to_cold_and_are_counted() {
    let decls = Declarations::default();
    let prelude = lets_chain(3, 5, 2);
    let policy = ResolutionPolicy::paper();
    let mut builder = Session::new(&decls, policy.clone(), &prelude).unwrap();
    builder.run(&probe()).unwrap();
    let bytes = builder.to_artifact();
    drop(builder);

    // Every single-bit flip must be rejected at decode/validate time
    // (checksum first, structural tags behind it) — sample positions
    // across the whole payload, including the trailing checksum.
    for pos in (0..bytes.len()).step_by((bytes.len() / 64).max(1)) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x10;
        let r = Session::from_artifact(&decls, &policy, &prelude, true, false, Isa::Register, &bad);
        assert!(
            r.is_err(),
            "bit-flip at byte {pos} was accepted — stale/corrupt state could leak"
        );
    }
    // Truncations too.
    for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Session::from_artifact(
                &decls,
                &policy,
                &prelude,
                true,
                false,
                Isa::Register,
                &bytes[..cut],
            )
            .is_err(),
            "truncated artifact ({cut} bytes) was accepted"
        );
    }

    // A corrupt store degrades to a cold build and counts the
    // fallback on the session metrics.
    let dir = tmpdir("corrupt");
    let store = ArtifactStore::new(&dir).unwrap();
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0xFF;
    std::fs::write(store.content_path(key), &bad).unwrap();
    let (sess, outcome) = artifact::load_or_build(
        &store,
        &decls,
        &policy,
        &prelude,
        true,
        false,
        Isa::Register,
    )
    .unwrap();
    assert!(matches!(outcome, LoadOutcome::Cold), "got {outcome:?}");
    assert_eq!(
        sess.metrics().artifact_fallbacks,
        1,
        "the corrupt artifact must be counted as a fallback"
    );
    // The cold build overwrote the corrupt file; the next load is an
    // exact hit with no fallbacks.
    drop(sess);
    let (sess2, outcome2) = artifact::load_or_build(
        &store,
        &decls,
        &policy,
        &prelude,
        true,
        false,
        Isa::Register,
    )
    .unwrap();
    assert!(matches!(outcome2, LoadOutcome::Exact), "got {outcome2:?}");
    assert_eq!(sess2.metrics().artifact_fallbacks, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaces `bytes[pos]` with `b` and recomputes the trailing
/// checksum, so the edit reaches the structural decoder.
fn patch_rechecksummed(bytes: &[u8], pos: usize, b: u8) -> Vec<u8> {
    let mut body = bytes[..bytes.len() - 8].to_vec();
    body[pos] = b;
    let sum = implicit_core::wire::fnv64(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body
}

/// Stores `bad` under the prelude's exact key and checks that
/// `load_or_build` degrades to one counted cold build.
fn assert_falls_back_cold(tag: &str, decls: &Declarations, prelude: &Prelude, bad: &[u8]) {
    let policy = ResolutionPolicy::paper();
    let dir = tmpdir(tag);
    let store = ArtifactStore::new(&dir).unwrap();
    let key = artifact_key(decls, prelude, &policy, true, false, Isa::Register);
    std::fs::write(store.content_path(key), bad).unwrap();
    let (sess, outcome) =
        artifact::load_or_build(&store, decls, &policy, prelude, true, false, Isa::Register)
            .unwrap();
    assert!(
        matches!(outcome, LoadOutcome::Cold),
        "[{tag}] got {outcome:?}"
    );
    assert_eq!(
        sess.metrics().artifact_fallbacks,
        1,
        "[{tag}] fallback not counted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_stack_isa_artifacts_fall_back_to_cold() {
    let decls = Declarations::default();
    let prelude = lets_chain(3, 5, 2);
    let policy = ResolutionPolicy::paper();
    let bytes = Session::new(&decls, policy.clone(), &prelude)
        .unwrap()
        .to_artifact();
    let rehydrate = |b: &[u8]| {
        Session::from_artifact(&decls, &policy, &prelude, true, false, Isa::Register, b)
            .map(drop)
            .expect_err("stack-ISA artifact rehydrated")
    };

    // (a) ISA tag 1 in the header: magic, version, content key, then
    // the policy precede it.
    let mut e = implicit_core::wire::Enc::new();
    e.policy(&policy);
    let isa_at = 4 + 4 + 8 + e.buf().len();
    assert_eq!(bytes[isa_at], 0, "header ISA tag is not where expected");
    let bad = patch_rechecksummed(&bytes, isa_at, 1);
    assert!(rehydrate(&bad).0.contains("isa tag 1"));
    assert_falls_back_cold("isa-tag", &decls, &prelude, &bad);

    // (b) A stack opcode tag (11 was `Ret`) in a function body under
    // ISA tag 0. The last function's last instruction closes the code
    // section, right before the global-value count.
    let a = artifact::decode(&bytes).unwrap();
    let last = *a.code_parts.funcs.last().unwrap().code.last().unwrap();
    let mut e = implicit_core::wire::Enc::new();
    systemf::wire::SfEnc::new(&mut e).instr(&last);
    let mut needle = e.buf().to_vec();
    needle.extend_from_slice(&(a.vm_globals.len() as u64).to_le_bytes());
    let hits: Vec<usize> = (0..bytes.len() - needle.len())
        .filter(|&i| bytes[i..].starts_with(&needle))
        .collect();
    assert_eq!(hits.len(), 1, "code-section end not unique: {hits:?}");
    let bad = patch_rechecksummed(&bytes, hits[0], 11);
    assert!(rehydrate(&bad).0.contains("instruction tag 11"));
    assert_falls_back_cold("stack-opcode", &decls, &prelude, &bad);
}

#[test]
fn wrong_configuration_never_rehydrates() {
    let decls = Declarations::default();
    let prelude = lets_chain(3, 5, 2);
    let policy = ResolutionPolicy::paper();
    let mut builder = Session::new(&decls, policy.clone(), &prelude).unwrap();
    let bytes = builder.to_artifact();
    drop(builder);
    // Different policy, knobs, or prelude → key mismatch → Err.
    assert!(
        Session::from_artifact(&decls, &policy, &prelude, true, true, Isa::Register, &bytes)
            .is_err()
    );
    assert!(Session::from_artifact(
        &decls,
        &policy.clone().with_most_specific(),
        &prelude,
        true,
        false,
        Isa::Register,
        &bytes,
    )
    .is_err());
    assert!(Session::from_artifact(
        &decls,
        &policy,
        &prelude,
        false,
        false,
        Isa::Register,
        &bytes
    )
    .is_err());
    let other = lets_chain(3, 6, 2);
    assert!(
        Session::from_artifact(&decls, &policy, &other, true, false, Isa::Register, &bytes)
            .is_err()
    );
}

/// An exact hit writes nothing it just verified: the content file
/// keeps its inode, and the head pointer is rewritten only when it
/// names a different key.
#[cfg(unix)]
#[test]
fn exact_hit_rewrites_only_a_stale_head() {
    use std::os::unix::fs::MetadataExt;
    let ino = |p: &std::path::Path| std::fs::metadata(p).expect("file exists").ino();
    let dir = tmpdir("exact-head");
    let store = ArtifactStore::new(&dir).unwrap();
    let decls = Declarations::default();
    let policy = ResolutionPolicy::paper();
    let (a, b) = (lets_chain(3, 5, 2), lets_chain(3, 6, 2));
    let isa = Isa::Register;
    let key_a = artifact_key(&decls, &a, &policy, true, false, isa);
    let key_b = artifact_key(&decls, &b, &policy, true, false, isa);
    let config = config_key(&decls, &policy, true, false, isa);
    let head_path = dir.join(format!("{config:016x}.head"));
    let load = |p: &Prelude| {
        artifact::load_or_build(&store, &decls, &policy, p, true, false, isa)
            .unwrap()
            .1
    };

    assert!(matches!(load(&a), LoadOutcome::Cold));
    let content_a = ino(&store.content_path(key_a));
    let head = ino(&head_path);
    assert!(matches!(load(&a), LoadOutcome::Exact));
    assert_eq!(ino(&store.content_path(key_a)), content_a);
    assert_eq!(ino(&head_path), head, "a current head is not rewritten");
    assert_eq!(store.head(config), Some(key_a));

    // Move the head to `b` (an incremental rebuild saves as before),
    // then hit `a` exactly: only the head changes.
    assert!(matches!(load(&b), LoadOutcome::Incremental(_)));
    assert_eq!(store.head(config), Some(key_b));
    assert!(matches!(load(&a), LoadOutcome::Exact));
    assert_eq!(ino(&store.content_path(key_a)), content_a);
    assert_eq!(
        store.head(config),
        Some(key_a),
        "a stale head names the hit"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_rebuild_artifact_covers_rebuild_minted_gensyms() {
    let decls = Declarations::default();
    // A rule-typed implicit with a non-empty context: elaborating its
    // rule abstraction mints a fresh `ev%N` context binder every time
    // it is (re-)elaborated, so rebuilds advance the fresh counter.
    let with_rule_implicit = |root: i64| {
        let mut p = lets_chain(4, root, 1);
        let rho = implicit_core::syntax::RuleType::new(
            Vec::new(),
            vec![Type::Bool.promote()],
            Type::prod(Type::Bool, Type::Int),
        );
        p.implicits.push((
            Expr::rule_abs(
                rho.clone(),
                Expr::pair(Expr::query_simple(Type::Bool), Expr::var("x3")),
            ),
            rho,
        ));
        p
    };
    let prelude = with_rule_implicit(10);
    let policy = ResolutionPolicy::paper();
    let dir = tmpdir("watermark");
    let store = ArtifactStore::new(&dir).unwrap();
    let (first, outcome) = artifact::load_or_build(
        &store,
        &decls,
        &policy,
        &prelude,
        true,
        false,
        Isa::Register,
    )
    .unwrap();
    assert!(matches!(outcome, LoadOutcome::Cold));
    drop(first);
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let old_wm = artifact::decode(&store.load(key).unwrap())
        .unwrap()
        .fresh_watermark;

    // A root edit re-elaborates every binding, minting fresh `ev`
    // gensyms above the seed artifact's watermark. The artifact saved
    // from the rebuilt session must record a watermark covering them —
    // a stale (equal) watermark would let a later process re-mint the
    // same names as local binders and capture the deserialized
    // prelude evidence they collide with.
    let edited = with_rule_implicit(20);
    let (mut sess, outcome) =
        artifact::load_or_build(&store, &decls, &policy, &edited, true, false, Isa::Register)
            .unwrap();
    assert!(
        matches!(outcome, LoadOutcome::Incremental(_)),
        "got {outcome:?}"
    );
    let new_wm = artifact::decode(&sess.to_artifact())
        .unwrap()
        .fresh_watermark;
    assert!(
        new_wm > old_wm,
        "rebuilt artifact watermark ({new_wm}) must advance past the seed's ({old_wm}) \
         to cover gensyms minted during re-elaboration"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_rebuild_invalidates_exactly_the_dependency_cone() {
    let decls = Declarations::default();
    let n = 6;
    let prelude = lets_chain(n, 100, 1);
    let policy = ResolutionPolicy::paper();
    let dir = tmpdir("incremental");
    let store = ArtifactStore::new(&dir).unwrap();

    // Seed the store with a warmed artifact for the original prelude.
    let (mut first, outcome) = artifact::load_or_build(
        &store,
        &decls,
        &policy,
        &prelude,
        true,
        false,
        Isa::Register,
    )
    .unwrap();
    assert!(matches!(outcome, LoadOutcome::Cold));
    first.run(&probe()).unwrap();
    first.run_opsem(&probe()).unwrap();
    let key = artifact_key(&decls, &prelude, &policy, true, false, Isa::Register);
    let config = config_key(&decls, &policy, true, false, Isa::Register);
    store.save(key, config, &first.to_artifact()).unwrap();
    drop(first);

    // Leaf edit: the *last* binding (second implicit) changes its
    // expression. Nothing reads it, so its cone is itself: every
    // other binding must be reused, and the prelude-level derivation
    // cache must carry over.
    let leaf_edit = lets_chain(n, 100, 2);
    let (mut sess, outcome) = artifact::load_or_build(
        &store,
        &decls,
        &policy,
        &leaf_edit,
        true,
        false,
        Isa::Register,
    )
    .unwrap();
    let LoadOutcome::Incremental(stats) = outcome else {
        panic!("leaf edit must rebuild incrementally, got {outcome:?}");
    };
    let total = n + 2;
    assert_eq!(stats.bindings_total, total);
    assert_eq!(
        stats.bindings_reused,
        total - 1,
        "a leaf edit's cone is exactly itself: {stats:?}"
    );
    assert!(
        stats.cache_entries_retained > 0,
        "derivation-cache entries must survive an expression-only edit: {stats:?}"
    );
    // Correctness of the rebuilt session against a cold build.
    let mut cold = Session::new(&decls, policy.clone(), &leaf_edit).unwrap();
    for e in [probe(), Expr::query_simple(Type::Int)] {
        assert_eq!(
            sess.run_compiled(&e).unwrap().value.to_string(),
            cold.run_compiled(&e).unwrap().value.to_string(),
            "incremental rebuild diverged from cold on {e}"
        );
        assert_eq!(
            sess.run_opsem(&e).unwrap().to_string(),
            cold.run_opsem(&e).unwrap().to_string(),
            "incremental rebuild (opsem) diverged from cold on {e}"
        );
    }
    drop(sess);
    drop(cold);

    // Root edit: `x0`'s expression changes. Every later binding reads
    // its predecessor, so the cone is the entire prelude — nothing is
    // reused, and the rebuilt values must reflect the new root.
    let root_edit = lets_chain(n, 200, 2);
    let (mut sess, outcome) = artifact::load_or_build(
        &store,
        &decls,
        &policy,
        &root_edit,
        true,
        false,
        Isa::Register,
    )
    .unwrap();
    let LoadOutcome::Incremental(stats) = outcome else {
        panic!("root edit must rebuild incrementally, got {outcome:?}");
    };
    assert_eq!(
        stats.bindings_reused, 0,
        "a root edit must invalidate everything it reaches: {stats:?}"
    );
    let mut cold = Session::new(&decls, policy.clone(), &root_edit).unwrap();
    let w = sess.run_compiled(&probe()).unwrap();
    let c = cold.run_compiled(&probe()).unwrap();
    assert_eq!(w.value.to_string(), c.value.to_string());
    // ?(Int×Int) = (?Int, 2) = (x5, 2) with x5 = 205; probe adds x0.
    assert_eq!(w.value.to_string(), "202");
    drop(sess);
    drop(cold);

    // Shape change (extra binding) cannot rebuild incrementally —
    // the ladder lands on a cold build, not stale state.
    let mut reshaped = lets_chain(n, 200, 2);
    reshaped
        .lets
        .push((Symbol::intern("extra"), Type::Int, Expr::Int(1)));
    let (sess, outcome) = artifact::load_or_build(
        &store,
        &decls,
        &policy,
        &reshaped,
        true,
        false,
        Isa::Register,
    )
    .unwrap();
    assert!(
        matches!(outcome, LoadOutcome::Cold),
        "shape change must fall back to cold, got {outcome:?}"
    );
    assert_eq!(sess.metrics().artifact_fallbacks, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An artifact carries only derivations that hold for the session it
/// rehydrates. Building this prelude memoizes `?Int` against the first
/// implicit frame, and a later `Int` binding shadows it: that entry
/// stays behind, while every entry that is exported is a hit after
/// `from_artifact`, with the derivation the uncached resolver builds.
#[test]
fn every_exported_cache_entry_hits_after_rehydration() {
    let decls = Declarations::default();
    let mut prelude = lets_chain(4, 10, 1);
    prelude
        .implicits
        .push((Expr::Int(100), Type::Int.promote()));
    let policy = ResolutionPolicy::paper();
    let mut builder = Session::new(&decls, policy.clone(), &prelude).unwrap();
    builder.run_compiled(&probe()).unwrap();
    let memoized = builder.env().cache_len();
    let bytes = builder.to_artifact();
    let exported = builder
        .env()
        .export_cache(&implicit_core::intern::snapshot());
    assert!(!exported.is_empty());
    assert!(
        exported.iter().all(|e| e.query != Type::Int.promote()),
        "the shadowed `?Int` derivation must not be exported"
    );
    assert!(memoized > exported.len(), "{memoized} memoized");

    let mut back = Session::from_artifact(
        &decls,
        &policy,
        &prelude,
        true,
        false,
        Isa::Register,
        &bytes,
    )
    .unwrap();
    let env = back.env();
    assert_eq!(env.cache_len(), exported.len());
    for entry in &exported {
        let before = env.cache_counters();
        let res = resolve(env, &entry.query, &policy).unwrap();
        let after = env.cache_counters();
        assert_eq!(after.hits, before.hits + 1, "{}", entry.query);
        assert_eq!(after.misses, before.misses, "{}", entry.query);
        let uncached = resolve(env, &entry.query, &policy.clone().without_cache());
        assert_eq!(res, uncached.unwrap());
    }
    let shadowed = back.run_compiled(&Expr::query_simple(Type::Int)).unwrap();
    assert_eq!(shadowed.value.to_string(), "100");
}
