//! Seeded program pools and their independent reference values.
//!
//! Expressions are interned in a thread-local arena, so a pool travels
//! between threads as [`ProgSpec`]s and every thread materializes its
//! own [`Expr`]s. Reference values never come from the pipeline under
//! test: chain, countdown, `Perfect` and `show` programs have closed
//! forms, and generated programs are evaluated by the direct
//! operational semantics ([`implicit_opsem`]).

use genprog::{gen_data_program, gen_program, rng, GenConfig};
use implicit_bench::{
    batch_program, perfect_source_program, show_source_program, vm_batch_program,
};
use implicit_core::syntax::{Declarations, Expr, Type};
use rand::Rng;

/// One program of a pool, in a thread-independent form.
#[derive(Clone, Copy, Debug)]
pub enum ProgSpec {
    /// `snd(?T_k) + j` against a chain prelude of depth ≥ `k`.
    Chain { k: usize, j: i64 },
    /// A `genprog` data program (nested scopes, polymorphic and
    /// higher-kinded rules, `data`/`match`), generated from `seed`.
    Data { seed: u64 },
    /// A `genprog` program without declarations, generated from `seed`.
    Plain { seed: u64 },
    /// The B14 `fix` countdown: `iters` iterations, then `snd(?T_k) + j`.
    Countdown { k: usize, iters: i64, j: i64 },
    /// The §1 `Perfect` program at tree depth `depth`.
    Perfect { depth: usize },
    /// The §5 `show` program over a list of length `len`.
    Show { len: usize },
}

/// A materialized program: the expression and its λ⇒ type.
pub struct Program {
    pub expr: Expr,
    pub ty: Type,
}

impl ProgSpec {
    /// Builds the expression on the calling thread.
    pub fn materialize(self) -> Program {
        match self {
            ProgSpec::Chain { k, j } => Program {
                expr: batch_program(k, j),
                ty: Type::Int,
            },
            ProgSpec::Data { seed } => {
                let g = gen_data_program(&mut rng(seed), &GenConfig::default());
                Program {
                    expr: g.expr,
                    ty: g.ty,
                }
            }
            ProgSpec::Plain { seed } => {
                let g = gen_program(&mut rng(seed), &GenConfig::default());
                Program {
                    expr: g.expr,
                    ty: g.ty,
                }
            }
            ProgSpec::Countdown { k, iters, j } => Program {
                expr: vm_batch_program(k, iters, j),
                ty: Type::Int,
            },
            ProgSpec::Perfect { depth } => source_program(&perfect_source_program(depth)),
            ProgSpec::Show { len } => source_program(&show_source_program(len)),
        }
    }

    /// The reference value, printed as the pipeline prints values.
    /// `decls` are the declarations the generated programs need.
    pub fn expected(self, decls: &Declarations) -> String {
        match self {
            ProgSpec::Chain { k, j } | ProgSpec::Countdown { k, j, .. } => {
                (k as i64 + j).to_string()
            }
            ProgSpec::Perfect { depth } => format!("{:?}", perfect_string(depth)),
            ProgSpec::Show { len } => {
                let items: Vec<String> = (1..=len.max(1)).map(|i| i.to_string()).collect();
                format!("{:?}", items.join(","))
            }
            ProgSpec::Data { .. } | ProgSpec::Plain { .. } => {
                let p = self.materialize();
                implicit_opsem::eval(decls, &p.expr)
                    .map(|v| v.to_string())
                    .unwrap_or_else(|e| format!("<opsem error: {e}>"))
            }
        }
    }
}

/// Compiles a source-language program to λ⇒. The benchmark's own
/// source programs always compile.
fn source_program(src: &str) -> Program {
    let c = implicit_source::compile(src).expect("benchmark source program compiles");
    Program {
        expr: c.core,
        ty: c.ty,
    }
}

/// The declarations the `Perfect` programs use (the `Perfect` data
/// type and the `Twice` interface). The other pool programs need none
/// of them, so one declaration set serves a whole `vm_compute` pool.
pub fn perfect_decls() -> Declarations {
    implicit_source::compile(&perfect_source_program(1))
        .expect("benchmark source program compiles")
        .decls
}

/// Closed form of the `Perfect` program's output: level `d` of the
/// spine holds a complete tree of `2^d` consecutive integers, printed
/// as nested `<front,back>` pairs, levels joined by ` :: `.
fn perfect_string(depth: usize) -> String {
    fn tree(d: usize, next: &mut i64) -> String {
        if d == 0 {
            *next += 1;
            (*next - 1).to_string()
        } else {
            let f = tree(d - 1, next);
            let b = tree(d - 1, next);
            format!("<{f},{b}>")
        }
    }
    let mut next = 1;
    let mut parts: Vec<String> = (0..depth).map(|d| tree(d, &mut next)).collect();
    parts.push("Nil".to_owned());
    parts.join(" :: ")
}

/// A seeded chain query `snd(?T_k) + j` with `1 ≤ k ≤ max_k`.
pub fn chain_spec(r: &mut impl Rng, max_k: usize) -> ProgSpec {
    ProgSpec::Chain {
        k: r.gen_range(1..=max_k),
        j: r.gen_range(0..1000i64),
    }
}

/// Per-program generator seed: distinct programs for distinct `i`, a
/// different family for every workload seed.
pub fn program_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_the_paper_programs() {
        assert_eq!(perfect_string(2), "1 :: <2,3> :: Nil");
        assert_eq!(
            ProgSpec::Show { len: 4 }.expected(&Declarations::new()),
            "\"1,2,3,4\""
        );
        assert_eq!(
            ProgSpec::Perfect { depth: 2 }.expected(&Declarations::new()),
            "\"1 :: <2,3> :: Nil\""
        );
    }
}
