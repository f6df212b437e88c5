//! The System F type system (paper appendix, Figure "System F Type
//! System"), extended homomorphically to the host fragment.

use std::fmt;

use implicit_core::gamma::Gamma;
use implicit_core::symbol::Symbol;

use crate::syntax::{BinOp, FDeclarations, FExpr, FType, UnOp};

/// A System F type error.
#[derive(Clone, Debug, PartialEq)]
pub enum FTypeError {
    /// Unbound term variable.
    UnboundVar(Symbol),
    /// Unknown interface.
    UnknownInterface(Symbol),
    /// Unknown interface field.
    UnknownField {
        /// Interface name.
        interface: Symbol,
        /// Field name.
        field: Symbol,
    },
    /// Types that must be equal are not.
    Mismatch {
        /// Expected type.
        expected: FType,
        /// Found type.
        found: FType,
        /// Location description.
        context: String,
    },
    /// Applied a non-function.
    NotAFunction(FType),
    /// Type-applied a non-quantified expression.
    NotAForall(FType),
    /// Projected a non-pair.
    NotAPair(FType),
    /// Matched a non-list.
    NotAList(FType),
    /// Projected a non-record.
    NotARecord(FType),
    /// `fix` at non-function type.
    FixNotFunction(FType),
    /// Record literal does not match its declaration.
    BadRecordLiteral {
        /// Interface name.
        interface: Symbol,
        /// Explanation.
        reason: String,
    },
    /// Unknown data constructor.
    UnknownCtor(Symbol),
    /// Match on a non-data type.
    NotAData(FType),
    /// Malformed match.
    BadMatch {
        /// The data type.
        data: Symbol,
        /// Explanation.
        reason: String,
    },
    /// Interface arity mismatch.
    ArityMismatch {
        /// Interface name.
        interface: Symbol,
        /// Expected parameter count.
        expected: usize,
        /// Found argument count.
        found: usize,
    },
}

impl fmt::Display for FTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FTypeError::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            FTypeError::UnknownInterface(i) => write!(f, "unknown interface `{i}`"),
            FTypeError::UnknownField { interface, field } => {
                write!(f, "interface `{interface}` has no field `{field}`")
            }
            FTypeError::Mismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected `{expected}`, found `{found}`"
            ),
            FTypeError::NotAFunction(t) => write!(f, "cannot apply value of type `{t}`"),
            FTypeError::NotAForall(t) => {
                write!(f, "cannot type-apply value of type `{t}`")
            }
            FTypeError::NotAPair(t) => write!(f, "cannot project value of type `{t}`"),
            FTypeError::NotAList(t) => write!(f, "cannot list-match value of type `{t}`"),
            FTypeError::NotARecord(t) => write!(f, "cannot field-project value of type `{t}`"),
            FTypeError::FixNotFunction(t) => {
                write!(f, "`fix` requires a function type, found `{t}`")
            }
            FTypeError::BadRecordLiteral { interface, reason } => {
                write!(f, "bad record literal for `{interface}`: {reason}")
            }
            FTypeError::UnknownCtor(c) => write!(f, "unknown data constructor `{c}`"),
            FTypeError::NotAData(t) => write!(f, "cannot match on `{t}`"),
            FTypeError::BadMatch { data, reason } => write!(f, "bad match on `{data}`: {reason}"),
            FTypeError::ArityMismatch {
                interface,
                expected,
                found,
            } => write!(
                f,
                "interface `{interface}` expects {expected} type argument(s), found {found}"
            ),
        }
    }
}

impl std::error::Error for FTypeError {}

/// Type-checks a closed expression.
///
/// # Errors
///
/// Returns the first [`FTypeError`] encountered.
pub fn typecheck(decls: &FDeclarations, e: &FExpr) -> Result<FType, FTypeError> {
    typecheck_open(decls, &Gamma::new(), e)
}

/// Type-checks an expression under an initial term environment.
///
/// The environment carries the free type variables of its binders'
/// types ([`Gamma`]), so the TAbs side condition costs one probe of
/// that summary, however large the environment is.
///
/// # Errors
///
/// Returns the first [`FTypeError`] encountered.
pub fn typecheck_open(
    decls: &FDeclarations,
    gamma: &Gamma<FType>,
    e: &FExpr,
) -> Result<FType, FTypeError> {
    let mut env = Scope {
        base: gamma,
        local: Vec::new(),
    };
    check(decls, &mut env, e)
}

/// A typing environment: the caller's open environment, borrowed and
/// never copied, under the binders the checker pushes on its way down.
/// So checking a term under a large environment costs no more than
/// checking it under an empty one, apart from lookups that reach it.
struct Scope<'g> {
    base: &'g Gamma<FType>,
    local: Vec<(Symbol, FType)>,
}

impl Scope<'_> {
    fn push(&mut self, binder: (Symbol, FType)) {
        self.local.push(binder);
    }

    fn pop(&mut self) {
        self.local.pop();
    }

    /// The type of the innermost binder of `x`.
    fn lookup(&self, x: Symbol) -> Option<&FType> {
        self.local
            .iter()
            .rev()
            .chain(self.base.iter().rev())
            .find(|(y, _)| *y == x)
            .map(|(_, t)| t)
    }

    /// Whether `a` is free in some binder's type (`a ∈ ftv(Γ)`): a
    /// probe of the base's summary plus a walk of the binders pushed
    /// above it.
    fn binds_free(&self, a: Symbol) -> bool {
        self.base.binds_free(a) || self.local.iter().any(|(_, t)| t.has_free(a))
    }
}

fn eq(expected: &FType, found: &FType, context: &str) -> Result<(), FTypeError> {
    if expected.alpha_eq(found) {
        Ok(())
    } else {
        Err(FTypeError::Mismatch {
            expected: expected.clone(),
            found: found.clone(),
            context: context.to_owned(),
        })
    }
}

fn check(decls: &FDeclarations, gamma: &mut Scope<'_>, e: &FExpr) -> Result<FType, FTypeError> {
    match e {
        FExpr::Int(_) => Ok(FType::Int),
        FExpr::Bool(_) => Ok(FType::Bool),
        FExpr::Str(_) => Ok(FType::Str),
        FExpr::Unit => Ok(FType::Unit),
        FExpr::Var(x) => gamma.lookup(*x).cloned().ok_or(FTypeError::UnboundVar(*x)),
        FExpr::Lam(x, t, b) => {
            gamma.push((*x, t.clone()));
            let out = check(decls, gamma, b);
            gamma.pop();
            Ok(FType::arrow(t.clone(), out?))
        }
        FExpr::App(f, a) => {
            let tf = check(decls, gamma, f)?;
            let ta = check(decls, gamma, a)?;
            match tf {
                FType::Arrow(dom, cod) => {
                    eq(&dom, &ta, "application")?;
                    Ok((*cod).clone())
                }
                other => Err(FTypeError::NotAFunction(other)),
            }
        }
        FExpr::TyAbs(a, b) => {
            // F-TAbs side condition α ∉ ftv(Γ): since elaboration
            // freshens binders, a violation indicates a bug upstream;
            // report it as a mismatch-style error.
            if gamma.binds_free(*a) {
                return Err(FTypeError::Mismatch {
                    expected: FType::Var(*a),
                    found: FType::Var(*a),
                    context: format!("type abstraction captures `{a}` free in the environment"),
                });
            }
            let tb = check(decls, gamma, b)?;
            Ok(FType::Forall(*a, std::rc::Rc::new(tb)))
        }
        FExpr::TyApp(f, t) => {
            let tf = check(decls, gamma, f)?;
            match tf {
                FType::Forall(a, body) => Ok(body.subst(a, t)),
                other => Err(FTypeError::NotAForall(other)),
            }
        }
        FExpr::If(c, t, el) => {
            let tc = check(decls, gamma, c)?;
            eq(&FType::Bool, &tc, "if condition")?;
            let tt = check(decls, gamma, t)?;
            let te = check(decls, gamma, el)?;
            eq(&tt, &te, "if branches")?;
            Ok(tt)
        }
        FExpr::BinOp(op, a, b) => {
            let ta = check(decls, gamma, a)?;
            let tb = check(decls, gamma, b)?;
            use BinOp::*;
            match op {
                Add | Sub | Mul | Div | Mod => {
                    eq(&FType::Int, &ta, "arithmetic")?;
                    eq(&FType::Int, &tb, "arithmetic")?;
                    Ok(FType::Int)
                }
                Lt | Le => {
                    eq(&FType::Int, &ta, "comparison")?;
                    eq(&FType::Int, &tb, "comparison")?;
                    Ok(FType::Bool)
                }
                And | Or => {
                    eq(&FType::Bool, &ta, "logic")?;
                    eq(&FType::Bool, &tb, "logic")?;
                    Ok(FType::Bool)
                }
                Concat => {
                    eq(&FType::Str, &ta, "concatenation")?;
                    eq(&FType::Str, &tb, "concatenation")?;
                    Ok(FType::Str)
                }
                Eq => {
                    if !matches!(ta, FType::Int | FType::Bool | FType::Str) {
                        return Err(FTypeError::Mismatch {
                            expected: FType::Int,
                            found: ta,
                            context: "`==` requires a base type".into(),
                        });
                    }
                    eq(&ta, &tb, "equality")?;
                    Ok(FType::Bool)
                }
            }
        }
        FExpr::UnOp(op, a) => {
            let ta = check(decls, gamma, a)?;
            let (dom, cod) = match op {
                UnOp::Not => (FType::Bool, FType::Bool),
                UnOp::Neg => (FType::Int, FType::Int),
                UnOp::IntToStr => (FType::Int, FType::Str),
            };
            eq(&dom, &ta, "unary operand")?;
            Ok(cod)
        }
        FExpr::Pair(a, b) => Ok(FType::prod(
            check(decls, gamma, a)?,
            check(decls, gamma, b)?,
        )),
        FExpr::Fst(a) => match check(decls, gamma, a)? {
            FType::Prod(l, _) => Ok((*l).clone()),
            other => Err(FTypeError::NotAPair(other)),
        },
        FExpr::Snd(a) => match check(decls, gamma, a)? {
            FType::Prod(_, r) => Ok((*r).clone()),
            other => Err(FTypeError::NotAPair(other)),
        },
        FExpr::Nil(t) => Ok(FType::list(t.clone())),
        FExpr::Cons(h, t) => {
            let th = check(decls, gamma, h)?;
            let tt = check(decls, gamma, t)?;
            match &tt {
                FType::List(el) => {
                    eq(el, &th, "cons")?;
                    Ok(tt.clone())
                }
                _ => Err(FTypeError::NotAList(tt)),
            }
        }
        FExpr::ListCase {
            scrut,
            nil,
            head,
            tail,
            cons,
        } => {
            let ts = check(decls, gamma, scrut)?;
            let FType::List(el) = ts else {
                return Err(FTypeError::NotAList(ts));
            };
            let tn = check(decls, gamma, nil)?;
            gamma.push((*head, (*el).clone()));
            gamma.push((*tail, FType::List(el)));
            let tc = check(decls, gamma, cons);
            gamma.pop();
            gamma.pop();
            eq(&tn, &tc?, "case branches")?;
            Ok(tn)
        }
        FExpr::Fix(x, t, b) => {
            // Function types and quantified (rule-image) types are
            // both closure-valued, so value recursion is safe.
            if !matches!(t, FType::Arrow(_, _) | FType::Forall(_, _)) {
                return Err(FTypeError::FixNotFunction(t.clone()));
            }
            gamma.push((*x, t.clone()));
            let tb = check(decls, gamma, b);
            gamma.pop();
            eq(t, &tb?, "fix body")?;
            Ok(t.clone())
        }
        FExpr::Make(name, args, fields) => {
            let decl = decls
                .lookup(*name)
                .ok_or(FTypeError::UnknownInterface(*name))?;
            if decl.vars.len() != args.len() {
                return Err(FTypeError::ArityMismatch {
                    interface: *name,
                    expected: decl.vars.len(),
                    found: args.len(),
                });
            }
            if fields.len() != decl.fields.len() {
                return Err(FTypeError::BadRecordLiteral {
                    interface: *name,
                    reason: format!(
                        "expected {} field(s), found {}",
                        decl.fields.len(),
                        fields.len()
                    ),
                });
            }
            for (u, fe) in fields {
                let want = decl.field_type(*u, args).ok_or(FTypeError::UnknownField {
                    interface: *name,
                    field: *u,
                })?;
                let got = check(decls, gamma, fe)?;
                eq(&want, &got, &format!("field `{u}`"))?;
            }
            Ok(FType::Con(*name, args.clone()))
        }
        FExpr::Proj(rec, field) => {
            let tr = check(decls, gamma, rec)?;
            let FType::Con(name, args) = tr else {
                return Err(FTypeError::NotARecord(tr));
            };
            let decl = decls
                .lookup(name)
                .ok_or(FTypeError::UnknownInterface(name))?;
            decl.field_type(*field, &args)
                .ok_or(FTypeError::UnknownField {
                    interface: name,
                    field: *field,
                })
        }
        FExpr::Inject(ctor, targs, args) => check_inject(decls, gamma, *ctor, targs, args),
        FExpr::Match(scrut, arms) => check_match(decls, gamma, scrut, arms),
    }
}

/// `FExpr::Inject` checking, out of line to keep the recursive
/// checker's stack frames small.
#[inline(never)]
fn check_inject(
    decls: &FDeclarations,
    gamma: &mut Scope<'_>,
    ctor: Symbol,
    targs: &[FType],
    args: &[FExpr],
) -> Result<FType, FTypeError> {
    let data = decls
        .lookup_ctor(ctor)
        .ok_or(FTypeError::UnknownCtor(ctor))?
        .clone();
    if data.params.len() != targs.len() {
        return Err(FTypeError::ArityMismatch {
            interface: data.name,
            expected: data.params.len(),
            found: targs.len(),
        });
    }
    let want = data
        .ctor_arg_types(ctor, targs)
        .expect("ctor just looked up");
    if want.len() != args.len() {
        return Err(FTypeError::ArityMismatch {
            interface: ctor,
            expected: want.len(),
            found: args.len(),
        });
    }
    for (w, a) in want.iter().zip(args) {
        let got = check(decls, gamma, a)?;
        eq(w, &got, &format!("constructor `{ctor}`"))?;
    }
    Ok(FType::Con(data.name, targs.to_vec()))
}

/// `FExpr::Match` checking, out of line to keep the recursive
/// checker's stack frames small.
#[inline(never)]
fn check_match(
    decls: &FDeclarations,
    gamma: &mut Scope<'_>,
    scrut: &FExpr,
    arms: &[crate::syntax::FMatchArm],
) -> Result<FType, FTypeError> {
    let ts = check(decls, gamma, scrut)?;
    let FType::Con(name, targs) = &ts else {
        return Err(FTypeError::NotAData(ts));
    };
    let data = decls
        .lookup_data(*name)
        .ok_or(FTypeError::NotAData(ts.clone()))?
        .clone();
    let mut remaining: Vec<Symbol> = data.ctors.iter().map(|(c, _)| *c).collect();
    let mut result: Option<FType> = None;
    for arm in arms {
        let Some(pos) = remaining.iter().position(|c| *c == arm.ctor) else {
            return Err(FTypeError::BadMatch {
                data: *name,
                reason: format!("unexpected arm `{}`", arm.ctor),
            });
        };
        remaining.remove(pos);
        let want = data
            .ctor_arg_types(arm.ctor, targs)
            .expect("arm ctor exists");
        if want.len() != arm.binders.len() {
            return Err(FTypeError::BadMatch {
                data: *name,
                reason: format!("binder count for `{}`", arm.ctor),
            });
        }
        for (b, w) in arm.binders.iter().zip(&want) {
            gamma.push((*b, w.clone()));
        }
        let got = check(decls, gamma, &arm.body);
        for _ in &arm.binders {
            gamma.pop();
        }
        let got = got?;
        match &result {
            None => result = Some(got),
            Some(prev) => eq(prev, &got, "match arms")?,
        }
    }
    if !remaining.is_empty() {
        return Err(FTypeError::BadMatch {
            data: *name,
            reason: "non-exhaustive match".into(),
        });
    }
    result.ok_or(FTypeError::BadMatch {
        data: *name,
        reason: "empty match".into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use implicit_core::symbol::{fresh, Symbol};

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn check0(e: &FExpr) -> Result<FType, FTypeError> {
        typecheck(&FDeclarations::new(), e)
    }

    #[test]
    fn polymorphic_identity() {
        let a = v("a");
        let id = FExpr::ty_abs([a], FExpr::lam("x", FType::Var(a), FExpr::var("x")));
        let t = check0(&id).unwrap();
        assert!(t.alpha_eq(&FType::Forall(
            a,
            std::rc::Rc::new(FType::arrow(FType::Var(a), FType::Var(a)))
        )));
        let inst = FExpr::TyApp(std::rc::Rc::new(id), FType::Int);
        assert_eq!(check0(&inst).unwrap(), FType::arrow(FType::Int, FType::Int));
    }

    #[test]
    fn tyabs_capture_condition() {
        // λ(x:a). Λa. x — the abstraction would capture a.
        let a = v("a");
        let bad = FExpr::lam(
            "x",
            FType::Var(a),
            FExpr::TyAbs(a, std::rc::Rc::new(FExpr::var("x"))),
        );
        assert!(check0(&bad).is_err());
    }

    #[test]
    fn paper_elaboration_example_types() {
        // Λα. λ(x:α). (x, x) : ∀α. α → α × α
        let a = fresh("alpha");
        let e = FExpr::ty_abs(
            [a],
            FExpr::lam(
                "x",
                FType::Var(a),
                FExpr::Pair(
                    std::rc::Rc::new(FExpr::var("x")),
                    std::rc::Rc::new(FExpr::var("x")),
                ),
            ),
        );
        let t = check0(&e).unwrap();
        let want = FType::Forall(
            a,
            std::rc::Rc::new(FType::arrow(
                FType::Var(a),
                FType::prod(FType::Var(a), FType::Var(a)),
            )),
        );
        assert!(t.alpha_eq(&want));
    }

    #[test]
    fn open_check_is_the_closed_check_with_arrows_peeled() {
        // Γ = x:Int, x:Bool — the later binder shadows, as an inner λ
        // would; a binder the term introduces shadows both.
        let x = v("x");
        let gamma: Gamma<FType> = [(x, FType::Int), (x, FType::Bool)].into_iter().collect();
        let decls = FDeclarations::new();
        let open = |e: &FExpr| typecheck_open(&decls, &gamma, e);
        let closed = |e: &FExpr| {
            let wrapped = gamma.iter().rev().fold(e.clone(), |acc, (y, t)| {
                FExpr::Lam(*y, t.clone(), acc.into())
            });
            let mut ty = typecheck(&decls, &wrapped)?;
            for _ in &gamma {
                let FType::Arrow(_, r) = ty else {
                    unreachable!()
                };
                ty = (*r).clone();
            }
            Ok::<_, FTypeError>(ty)
        };
        let cases = [
            FExpr::var("x"),
            FExpr::lam("x", FType::Str, FExpr::var("x")),
            FExpr::UnOp(UnOp::Neg, std::rc::Rc::new(FExpr::var("x"))),
            FExpr::var("y"),
            FExpr::TyAbs(v("a"), std::rc::Rc::new(FExpr::var("x"))),
            // The side condition sees binders the term pushes, too.
            FExpr::lam(
                "z",
                FType::Var(v("a")),
                FExpr::TyAbs(v("a"), std::rc::Rc::new(FExpr::var("z"))),
            ),
        ];
        for e in &cases {
            assert_eq!(open(e), closed(e), "{e}");
        }
        assert_eq!(open(&cases[0]), Ok(FType::Bool));
        // Γ's types count for the `TyAbs` side condition too.
        assert!(open(&cases[5]).is_err());
        let ga: Gamma<FType> = [(x, FType::Var(v("a")))].into_iter().collect();
        assert!(typecheck_open(&decls, &ga, &cases[4]).is_err());
    }

    #[test]
    fn application_checks_domains() {
        let f = FExpr::lam("x", FType::Int, FExpr::var("x"));
        assert!(check0(&FExpr::app(f.clone(), FExpr::Int(1))).is_ok());
        assert!(check0(&FExpr::app(f, FExpr::Bool(true))).is_err());
    }

    #[test]
    fn records_typecheck() {
        let mut decls = FDeclarations::new();
        decls.declare(crate::syntax::FInterfaceDecl {
            name: v("Show"),
            vars: vec![v("a")],
            fields: vec![(v("show"), FType::arrow(FType::Var(v("a")), FType::Str))],
        });
        let lit = FExpr::Make(
            v("Show"),
            vec![FType::Int],
            vec![(
                v("show"),
                FExpr::lam(
                    "n",
                    FType::Int,
                    FExpr::UnOp(UnOp::IntToStr, std::rc::Rc::new(FExpr::var("n"))),
                ),
            )],
        );
        assert_eq!(
            typecheck(&decls, &lit).unwrap(),
            FType::Con(v("Show"), vec![FType::Int])
        );
        let proj = FExpr::Proj(std::rc::Rc::new(lit), v("show"));
        assert_eq!(
            typecheck(&decls, &proj).unwrap(),
            FType::arrow(FType::Int, FType::Str)
        );
    }

    #[test]
    fn list_and_fix_typecheck() {
        // length : [Int] → Int
        let len_ty = FType::arrow(FType::list(FType::Int), FType::Int);
        let len = FExpr::Fix(
            v("len"),
            len_ty.clone(),
            std::rc::Rc::new(FExpr::lam(
                "xs",
                FType::list(FType::Int),
                FExpr::ListCase {
                    scrut: std::rc::Rc::new(FExpr::var("xs")),
                    nil: std::rc::Rc::new(FExpr::Int(0)),
                    head: v("h"),
                    tail: v("t"),
                    cons: std::rc::Rc::new(FExpr::BinOp(
                        BinOp::Add,
                        std::rc::Rc::new(FExpr::Int(1)),
                        std::rc::Rc::new(FExpr::app(FExpr::var("len"), FExpr::var("t"))),
                    )),
                },
            )),
        );
        assert_eq!(check0(&len).unwrap(), len_ty);
    }
}
