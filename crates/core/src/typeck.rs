//! The type system of λ⇒ (Figure "Type System").
//!
//! The judgment `Γ ∣ Δ ⊢ e : τ` checks an expression against a type
//! environment Γ (term variables) and an implicit environment Δ (a
//! stack of contexts). The four interesting rules are:
//!
//! * `TyRule` — a rule abstraction `rule(∀ᾱ.π ⇒ τ)(e)` checks its
//!   body under `Δ;π` with `ᾱ` fresh for `Γ, Δ` (binders are renamed
//!   apart automatically when needed) and must be `unambiguous`;
//! * `TyInst` — type application instantiates quantifiers;
//! * `TyRApp` — rule application supplies evidence for an entire
//!   context;
//! * `TyQuery` — a query `?ρ` type-checks iff `Δ ⊢r ρ`
//!   ([`crate::resolve::resolve`]) and ρ is `unambiguous`.
//!
//! The remaining rules are the standard simply-typed rules for the
//! host fragment. Rule types compare modulo α-equivalence throughout.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;

use crate::alpha;
use crate::env::ImplicitEnv;
use crate::resolve::{resolve, ResolutionPolicy, ResolveError};
use crate::subst::TySubst;
use crate::symbol::Symbol;
use crate::syntax::{BinOp, Declarations, Expr, RuleType, TyVar, Type, UnOp};

/// A type-checking error.
#[derive(Clone, Debug, PartialEq)]
pub enum TypeError {
    /// An unbound term variable.
    UnboundVar(Symbol),
    /// A type annotation mentions a type variable not bound by any
    /// enclosing rule abstraction.
    UnboundTypeVar(TyVar),
    /// An unknown interface name.
    UnknownInterface(Symbol),
    /// An unknown field of an interface.
    UnknownField {
        /// Interface name.
        interface: Symbol,
        /// The missing field.
        field: Symbol,
    },
    /// Wrong number of type arguments for an interface or rule type.
    ArityMismatch {
        /// What was being instantiated.
        what: String,
        /// Expected count.
        expected: usize,
        /// Found count.
        found: usize,
    },
    /// Two types that had to be equal are not.
    Mismatch {
        /// Expected type.
        expected: Type,
        /// Found type.
        found: Type,
        /// Where the mismatch happened.
        context: String,
    },
    /// A non-function was applied.
    NotAFunction(Type),
    /// A non-pair was projected.
    NotAPair(Type),
    /// A non-list was matched.
    NotAList(Type),
    /// A non-record was projected.
    NotARecord(Type),
    /// Type or rule application to a non-rule-typed expression.
    NotARule(Type),
    /// Rule application to a still-polymorphic rule; instantiate
    /// first.
    PolymorphicRuleApplication(RuleType),
    /// The `with` arguments do not cover the rule's context exactly.
    ContextMismatch {
        /// Expected context.
        expected: Vec<RuleType>,
        /// Supplied rule types.
        supplied: Vec<RuleType>,
    },
    /// The `unambiguous` condition failed (§3.3).
    Ambiguous(RuleType),
    /// A query could not be resolved.
    Resolution(ResolveError),
    /// `fix` at a non-function type.
    FixNotFunction(Type),
    /// A record literal's fields do not match the declaration.
    BadRecordLiteral {
        /// Interface name.
        interface: Symbol,
        /// Explanation.
        reason: String,
    },
    /// A type variable is used at two different kinds (arities).
    KindMismatch {
        /// The variable.
        var: TyVar,
        /// Arity of the first usage.
        first: usize,
        /// Arity of the conflicting usage.
        second: usize,
    },
    /// A type constructor reference appeared in type position
    /// (constructors may only instantiate arrow-kinded quantifiers).
    CtorInTypePosition(crate::syntax::TyCon),
    /// A type argument did not have the constructor kind its
    /// quantifier demands.
    NotAConstructor {
        /// The offending argument.
        found: Type,
        /// The arity the quantifier demands (0 = a plain type was
        /// expected but a constructor was given).
        arity: usize,
    },
    /// An unknown data constructor.
    UnknownCtor(Symbol),
    /// A `match` on a non-data type.
    NotAData(Type),
    /// A malformed `match` (wrong binders, duplicate or missing
    /// arms).
    BadMatch {
        /// The data type being matched.
        data: Symbol,
        /// Explanation.
        reason: String,
    },
    /// Strict mode: a context violates the Appendix A termination
    /// conditions.
    Termination(crate::termination::TerminationViolation),
    /// Strict mode: a coherence condition failed (companion note /
    /// extended report).
    Coherence(crate::coherence::CoherenceError),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnboundVar(x) => write!(f, "unbound variable `{x}`"),
            TypeError::UnboundTypeVar(a) => write!(f, "unbound type variable `{a}`"),
            TypeError::UnknownInterface(i) => write!(f, "unknown interface `{i}`"),
            TypeError::UnknownField { interface, field } => {
                write!(f, "interface `{interface}` has no field `{field}`")
            }
            TypeError::ArityMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "{what}: expected {expected} type argument(s), found {found}"
            ),
            TypeError::Mismatch {
                expected,
                found,
                context,
            } => write!(
                f,
                "type mismatch in {context}: expected `{expected}`, found `{found}`"
            ),
            TypeError::NotAFunction(t) => write!(f, "cannot apply a value of type `{t}`"),
            TypeError::NotAPair(t) => write!(f, "cannot project a value of type `{t}`"),
            TypeError::NotAList(t) => write!(f, "cannot match a value of type `{t}` as a list"),
            TypeError::NotARecord(t) => write!(f, "cannot project a field from type `{t}`"),
            TypeError::NotARule(t) => {
                write!(f, "expected a rule type, found `{t}`")
            }
            TypeError::PolymorphicRuleApplication(r) => write!(
                f,
                "rule application to polymorphic rule `{r}`; apply type arguments first"
            ),
            TypeError::ContextMismatch { expected, supplied } => write!(
                f,
                "rule application context mismatch: expected {{{}}}, supplied {{{}}}",
                join(expected),
                join(supplied)
            ),
            TypeError::Ambiguous(r) => write!(
                f,
                "rule type `{r}` is ambiguous: every quantified variable must occur in the head"
            ),
            TypeError::Resolution(e) => write!(f, "{e}"),
            TypeError::FixNotFunction(t) => {
                write!(f, "`fix` requires a function type, found `{t}`")
            }
            TypeError::BadRecordLiteral { interface, reason } => {
                write!(f, "bad record literal for `{interface}`: {reason}")
            }
            TypeError::KindMismatch { var, first, second } => write!(
                f,
                "kind mismatch: type variable `{var}` is used with {first} and {second} \
                 argument(s)"
            ),
            TypeError::CtorInTypePosition(c) => write!(
                f,
                "type constructor `{c}` used as a type; constructors may only instantiate \
                 arrow-kinded quantifiers"
            ),
            TypeError::NotAConstructor { found, arity } => {
                if *arity == 0 {
                    write!(
                        f,
                        "expected a plain type argument, found constructor `{found}`"
                    )
                } else {
                    write!(
                        f,
                        "expected an arity-{arity} type constructor argument, found `{found}`"
                    )
                }
            }
            TypeError::UnknownCtor(c) => write!(f, "unknown data constructor `{c}`"),
            TypeError::NotAData(t) => write!(f, "cannot match on non-data type `{t}`"),
            TypeError::BadMatch { data, reason } => {
                write!(f, "bad match on `{data}`: {reason}")
            }
            TypeError::Termination(v) => write!(f, "termination: {v}"),
            TypeError::Coherence(e) => write!(f, "coherence: {e}"),
        }
    }
}

fn join(rs: &[RuleType]) -> String {
    rs.iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

impl std::error::Error for TypeError {}

impl From<ResolveError> for TypeError {
    fn from(e: ResolveError) -> TypeError {
        TypeError::Resolution(e)
    }
}

/// Type equality modulo α-equivalence of rule types.
pub fn types_equal(a: &Type, b: &Type) -> bool {
    alpha::alpha_eq_type(a, b)
}

/// The type checker.
///
/// # Examples
///
/// ```
/// use implicit_core::syntax::{Declarations, Expr, Type};
/// use implicit_core::typeck::Typechecker;
///
/// // implicit {1 : Int} in ?Int + 1  :  Int
/// let decls = Declarations::new();
/// let e = Expr::implicit(
///     vec![(Expr::Int(1), Type::Int.promote())],
///     Expr::binop(implicit_core::syntax::BinOp::Add,
///                 Expr::query_simple(Type::Int), Expr::Int(1)),
///     Type::Int,
/// );
/// let ty = Typechecker::new(&decls).check_closed(&e).unwrap();
/// assert_eq!(ty, Type::Int);
/// ```
pub struct Typechecker<'d> {
    decls: &'d Declarations,
    policy: ResolutionPolicy,
    strict: bool,
    trace: Option<crate::trace::SharedSink>,
}

impl<'d> Typechecker<'d> {
    /// A checker with the paper's default resolution policy.
    pub fn new(decls: &'d Declarations) -> Typechecker<'d> {
        Typechecker {
            decls,
            policy: ResolutionPolicy::paper(),
            strict: false,
            trace: None,
        }
    }

    /// A checker with a custom resolution policy.
    pub fn with_policy(decls: &'d Declarations, policy: ResolutionPolicy) -> Typechecker<'d> {
        Typechecker {
            decls,
            policy,
            strict: false,
            trace: None,
        }
    }

    /// Reports every resolution this checker performs as structured
    /// trace events through `sink` (see [`crate::trace`]).
    pub fn with_trace(mut self, sink: crate::trace::SharedSink) -> Typechecker<'d> {
        self.trace = Some(sink);
        self
    }

    /// Enables *strict mode*, which additionally enforces the static
    /// well-behavedness conditions the paper develops alongside the
    /// core type system:
    ///
    /// * every rule-abstraction context must satisfy the Appendix A
    ///   **termination** conditions (so resolution cannot diverge);
    /// * contexts must pass the companion note's deferred
    ///   **existence** check ([`crate::coherence::exists_deferred`]);
    /// * rule-application sites must not supply **collapsing**
    ///   contexts whose entries a substitution can conflate
    ///   ([`crate::coherence::unique_instances`]), the note's
    ///   condition at `with`;
    /// * queries with free type variables must be **stable**: the
    ///   statically chosen rule must be the runtime choice under every
    ///   instantiation ([`crate::coherence::query_stability`]);
    /// * no resolution step may mix assumed and recursively resolved
    ///   evidence for unifiable premises (the note's condition at
    ///   `?ρ`).
    pub fn strict(mut self) -> Typechecker<'d> {
        self.strict = true;
        self
    }

    /// The active resolution policy.
    pub fn policy(&self) -> &ResolutionPolicy {
        &self.policy
    }

    /// Checks a closed expression under empty environments.
    ///
    /// # Errors
    ///
    /// Returns the first [`TypeError`] encountered.
    pub fn check_closed(&self, e: &Expr) -> Result<Type, TypeError> {
        let mut st = State {
            gamma: Vec::new(),
            delta: ImplicitEnv::new(),
            tyvars: BTreeSet::new(),
            kinds: std::collections::BTreeMap::new(),
        };
        self.check(&mut st, e)
    }

    /// Checks an expression under the given environments.
    ///
    /// `tyvars` lists the type variables in scope (free variables of
    /// Γ/Δ entries are *not* implicitly added).
    ///
    /// # Errors
    ///
    /// Returns the first [`TypeError`] encountered.
    pub fn check_open(
        &self,
        gamma: &[(Symbol, Type)],
        delta: &ImplicitEnv,
        tyvars: &BTreeSet<TyVar>,
        e: &Expr,
    ) -> Result<Type, TypeError> {
        let mut st = State {
            gamma: gamma.to_vec(),
            delta: delta.clone(),
            tyvars: tyvars.clone(),
            kinds: std::collections::BTreeMap::new(),
        };
        self.check(&mut st, e)
    }

    fn check(&self, st: &mut State, e: &Expr) -> Result<Type, TypeError> {
        match e {
            Expr::Int(_) => Ok(Type::Int),
            Expr::Bool(_) => Ok(Type::Bool),
            Expr::Str(_) => Ok(Type::Str),
            Expr::Unit => Ok(Type::Unit),
            Expr::Var(x) => st
                .gamma
                .iter()
                .rev()
                .find(|(y, _)| y == x)
                .map(|(_, t)| t.clone())
                .ok_or(TypeError::UnboundVar(*x)),
            Expr::Lam(x, t, body) => {
                self.check_wf(st, t)?;
                st.gamma.push((*x, t.clone()));
                let out = self.check(st, body)?;
                st.gamma.pop();
                Ok(Type::arrow(t.clone(), out))
            }
            Expr::App(fun, arg) => {
                let tf = self.check(st, fun)?;
                let ta = self.check(st, arg)?;
                match tf {
                    Type::Arrow(dom, cod) => {
                        if types_equal(&dom, &ta) {
                            Ok((*cod).clone())
                        } else {
                            Err(TypeError::Mismatch {
                                expected: (*dom).clone(),
                                found: ta,
                                context: "function application".into(),
                            })
                        }
                    }
                    other => Err(TypeError::NotAFunction(other)),
                }
            }
            Expr::Query(rho) => {
                self.check_wf_rule(st, rho)?;
                if !rho.is_unambiguous() {
                    return Err(TypeError::Ambiguous(rho.clone()));
                }
                let res = match &self.trace {
                    Some(sink) => {
                        let mut sink = sink.clone();
                        crate::resolve::resolve_with(&st.delta, rho, &self.policy, &mut sink)?
                    }
                    None => resolve(&st.delta, rho, &self.policy)?,
                };
                if self.strict {
                    crate::coherence::query_stability(&st.delta, rho, &self.policy)
                        .map_err(TypeError::Coherence)?;
                    check_no_mixed_supply(&res)?;
                }
                Ok(rho.to_type())
            }
            Expr::RuleAbs(rho, body) => {
                // TyRule. Binders clashing with ftv(Γ, Δ) or with
                // type variables already in scope are renamed apart.
                let no_base = BTreeSet::new();
                let scope = BinderScope {
                    tyvars: &st.tyvars,
                    gamma_free: &no_base,
                    gamma: &st.gamma,
                    delta: &st.delta,
                };
                let (rho, body) = scope.rename_apart(rho, body);
                if !rho.is_unambiguous() {
                    return Err(TypeError::Ambiguous(rho.into_owned()));
                }
                self.check_wf_rule_under(st, &rho)?;
                if self.strict {
                    crate::termination::check_context(rho.context())
                        .map_err(TypeError::Termination)?;
                    crate::coherence::exists_deferred(rho.context())
                        .map_err(TypeError::Coherence)?;
                }
                let binder_kinds = infer_binder_kinds(self.decls, &rho)?;
                for v in rho.vars() {
                    st.tyvars.insert(*v);
                    st.kinds
                        .insert(*v, binder_kinds.get(v).copied().unwrap_or(0));
                }
                st.delta.push(rho.context().to_vec());
                let got = self.check(st, &body);
                st.delta.pop();
                for v in rho.vars() {
                    st.tyvars.remove(v);
                    st.kinds.remove(v);
                }
                let got = got?;
                if !types_equal(&got, rho.head()) {
                    return Err(TypeError::Mismatch {
                        expected: rho.head().clone(),
                        found: got,
                        context: "rule abstraction body".into(),
                    });
                }
                Ok(rho.to_type())
            }
            Expr::TyApp(fun, args) => {
                let tf = self.check(st, fun)?;
                let Type::Rule(rho) = tf else {
                    return Err(TypeError::NotARule(tf));
                };
                if rho.vars().len() != args.len() {
                    return Err(TypeError::ArityMismatch {
                        what: format!("type application of `{rho}`"),
                        expected: rho.vars().len(),
                        found: args.len(),
                    });
                }
                // Kind-directed argument checking: arrow-kinded
                // quantifiers take constructor arguments.
                let kinds = infer_binder_kinds(self.decls, &rho)?;
                let mut fixed = Vec::with_capacity(args.len());
                for (v, arg) in rho.vars().iter().zip(args) {
                    let k = kinds.get(v).copied().unwrap_or(0);
                    fixed.push(self.check_type_argument(st, arg, k)?);
                }
                let theta = TySubst::bind_all(rho.vars(), &fixed);
                Ok(Type::rule(RuleType::new(
                    Vec::new(),
                    theta.apply_context(rho.context()),
                    theta.apply_type(rho.head()),
                )))
            }
            Expr::RuleApp(fun, args) => {
                let tf = self.check(st, fun)?;
                let Type::Rule(rho) = tf else {
                    return Err(TypeError::NotARule(tf));
                };
                if !rho.vars().is_empty() {
                    return Err(TypeError::PolymorphicRuleApplication((*rho).clone()));
                }
                if self.strict {
                    // The note's condition at `with`: the pushed rule
                    // set must have unique instances (a substitution
                    // must not be able to conflate two entries — the
                    // `g` counterexample).
                    crate::coherence::unique_instances(rho.context())
                        .map_err(TypeError::Coherence)?;
                }
                // Each argument must check at its annotated rule type.
                for (arg, arho) in args {
                    self.check_wf_rule(st, arho)?;
                    let got = self.check(st, arg)?;
                    let want = arho.to_type();
                    if !types_equal(&got, &want) {
                        return Err(TypeError::Mismatch {
                            expected: want,
                            found: got,
                            context: "rule application argument".into(),
                        });
                    }
                }
                // The annotated set must equal the context exactly
                // (modulo α-equivalence), with one argument per
                // context entry.
                let supplied: Vec<RuleType> = args.iter().map(|(_, r)| r.clone()).collect();
                if supplied.len() != rho.context().len()
                    || !context_sets_equal(rho.context(), &supplied)
                {
                    return Err(TypeError::ContextMismatch {
                        expected: rho.context().to_vec(),
                        supplied,
                    });
                }
                Ok(rho.head().clone())
            }
            Expr::If(c, t, f) => {
                let tc = self.check(st, c)?;
                if !types_equal(&tc, &Type::Bool) {
                    return Err(TypeError::Mismatch {
                        expected: Type::Bool,
                        found: tc,
                        context: "if condition".into(),
                    });
                }
                let tt = self.check(st, t)?;
                let tf = self.check(st, f)?;
                if !types_equal(&tt, &tf) {
                    return Err(TypeError::Mismatch {
                        expected: tt,
                        found: tf,
                        context: "if branches".into(),
                    });
                }
                Ok(tt)
            }
            Expr::BinOp(op, a, b) => {
                let ta = self.check(st, a)?;
                let tb = self.check(st, b)?;
                self.check_binop(*op, ta, tb)
            }
            Expr::UnOp(op, a) => {
                let ta = self.check(st, a)?;
                let (dom, cod) = match op {
                    UnOp::Not => (Type::Bool, Type::Bool),
                    UnOp::Neg => (Type::Int, Type::Int),
                    UnOp::IntToStr => (Type::Int, Type::Str),
                };
                if types_equal(&ta, &dom) {
                    Ok(cod)
                } else {
                    Err(TypeError::Mismatch {
                        expected: dom,
                        found: ta,
                        context: format!("operand of {op:?}"),
                    })
                }
            }
            Expr::Pair(a, b) => Ok(Type::prod(self.check(st, a)?, self.check(st, b)?)),
            Expr::Fst(a) => match self.check(st, a)? {
                Type::Prod(l, _) => Ok((*l).clone()),
                other => Err(TypeError::NotAPair(other)),
            },
            Expr::Snd(a) => match self.check(st, a)? {
                Type::Prod(_, r) => Ok((*r).clone()),
                other => Err(TypeError::NotAPair(other)),
            },
            Expr::Nil(t) => {
                self.check_wf(st, t)?;
                Ok(Type::list(t.clone()))
            }
            Expr::Cons(h, t) => {
                let th = self.check(st, h)?;
                let tt = self.check(st, t)?;
                match &tt {
                    Type::List(el) if types_equal(el, &th) => Ok(tt.clone()),
                    Type::List(el) => Err(TypeError::Mismatch {
                        expected: (**el).clone(),
                        found: th,
                        context: "cons head".into(),
                    }),
                    _ => Err(TypeError::NotAList(tt)),
                }
            }
            Expr::ListCase {
                scrut,
                nil,
                head,
                tail,
                cons,
            } => {
                let ts = self.check(st, scrut)?;
                let Type::List(el) = ts else {
                    return Err(TypeError::NotAList(ts));
                };
                let tn = self.check(st, nil)?;
                st.gamma.push((*head, (*el).clone()));
                st.gamma.push((*tail, Type::List(el)));
                let tc = self.check(st, cons);
                st.gamma.pop();
                st.gamma.pop();
                let tc = tc?;
                if !types_equal(&tn, &tc) {
                    return Err(TypeError::Mismatch {
                        expected: tn,
                        found: tc,
                        context: "case branches".into(),
                    });
                }
                Ok(tn)
            }
            Expr::Fix(x, t, body) => {
                self.check_wf(st, t)?;
                // Value recursion is safe at function types and at
                // rule types (both evaluate to closures).
                if !matches!(t, Type::Arrow(_, _) | Type::Rule(_)) {
                    return Err(TypeError::FixNotFunction(t.clone()));
                }
                st.gamma.push((*x, t.clone()));
                let tb = self.check(st, body);
                st.gamma.pop();
                let tb = tb?;
                if !types_equal(&tb, t) {
                    return Err(TypeError::Mismatch {
                        expected: t.clone(),
                        found: tb,
                        context: "fix body".into(),
                    });
                }
                Ok(t.clone())
            }
            Expr::Make(name, args, fields) => {
                let decl = self
                    .decls
                    .lookup(*name)
                    .ok_or(TypeError::UnknownInterface(*name))?;
                if decl.vars.len() != args.len() {
                    return Err(TypeError::ArityMismatch {
                        what: format!("interface `{name}`"),
                        expected: decl.vars.len(),
                        found: args.len(),
                    });
                }
                for t in args {
                    self.check_wf(st, t)?;
                }
                if fields.len() != decl.fields.len() {
                    return Err(TypeError::BadRecordLiteral {
                        interface: *name,
                        reason: format!(
                            "expected {} field(s), found {}",
                            decl.fields.len(),
                            fields.len()
                        ),
                    });
                }
                for (u, fe) in fields {
                    let Some(want) = decl.field_type(*u, args) else {
                        return Err(TypeError::UnknownField {
                            interface: *name,
                            field: *u,
                        });
                    };
                    let got = self.check(st, fe)?;
                    if !types_equal(&got, &want) {
                        return Err(TypeError::Mismatch {
                            expected: want,
                            found: got,
                            context: format!("field `{u}` of `{name}`"),
                        });
                    }
                }
                Ok(Type::Con(*name, args.clone()))
            }
            Expr::Proj(rec, field) => {
                let tr = self.check(st, rec)?;
                let Type::Con(name, args) = tr else {
                    return Err(TypeError::NotARecord(tr));
                };
                let decl = self
                    .decls
                    .lookup(name)
                    .ok_or(TypeError::UnknownInterface(name))?;
                decl.field_type(*field, &args)
                    .ok_or(TypeError::UnknownField {
                        interface: name,
                        field: *field,
                    })
            }
            Expr::Inject(ctor, targs, args) => self.check_inject(st, *ctor, targs, args),
            Expr::Match(scrut, arms) => self.check_match(st, scrut, arms),
        }
    }

    /// `Expr::Inject` checking, out of line to keep the recursive
    /// checker's stack frames small.
    #[inline(never)]
    fn check_inject(
        &self,
        st: &mut State,
        ctor: Symbol,
        targs: &[Type],
        args: &[Expr],
    ) -> Result<Type, TypeError> {
        let (data, _) = self
            .decls
            .lookup_ctor(ctor)
            .ok_or(TypeError::UnknownCtor(ctor))?;
        let data = data.clone();
        if data.params.len() != targs.len() {
            return Err(TypeError::ArityMismatch {
                what: format!("data type `{}`", data.name),
                expected: data.params.len(),
                found: targs.len(),
            });
        }
        // Kind-check (and coerce) the type arguments.
        let mut fixed = Vec::with_capacity(targs.len());
        for ((_, k), t) in data.params.iter().zip(targs) {
            if *k == 0 {
                self.check_wf(st, t)?;
                fixed.push(t.clone());
            } else {
                self.check_wf_at_kind(st, t, *k)?;
                fixed.push(match t {
                    Type::Con(n, a) if a.is_empty() => Type::Ctor(crate::syntax::TyCon::Named(*n)),
                    other => other.clone(),
                });
            }
        }
        let want = data
            .ctor_arg_types(ctor, &fixed)
            .expect("ctor just looked up");
        if want.len() != args.len() {
            return Err(TypeError::ArityMismatch {
                what: format!("constructor `{ctor}`"),
                expected: want.len(),
                found: args.len(),
            });
        }
        for (w, a) in want.iter().zip(args) {
            let got = self.check(st, a)?;
            if !types_equal(&got, w) {
                return Err(TypeError::Mismatch {
                    expected: w.clone(),
                    found: got,
                    context: format!("argument of constructor `{ctor}`"),
                });
            }
        }
        Ok(Type::Con(data.name, fixed))
    }

    /// `Expr::Match` checking, out of line to keep the recursive
    /// checker's stack frames small.
    #[inline(never)]
    fn check_match(
        &self,
        st: &mut State,
        scrut: &Expr,
        arms: &[crate::syntax::MatchArm],
    ) -> Result<Type, TypeError> {
        let ts = self.check(st, scrut)?;
        let Type::Con(name, targs) = &ts else {
            return Err(TypeError::NotAData(ts));
        };
        let Some(data) = self.decls.lookup_data(*name).cloned() else {
            return Err(TypeError::NotAData(ts.clone()));
        };
        // Arms must cover the constructors exactly, each once.
        let mut remaining: Vec<Symbol> = data.ctors.iter().map(|(c, _)| *c).collect();
        let mut result: Option<Type> = None;
        for arm in arms {
            let Some(pos) = remaining.iter().position(|c| *c == arm.ctor) else {
                return Err(TypeError::BadMatch {
                    data: *name,
                    reason: format!(
                        "constructor `{}` is not a (remaining) constructor",
                        arm.ctor
                    ),
                });
            };
            remaining.remove(pos);
            let want = data
                .ctor_arg_types(arm.ctor, targs)
                .expect("arm ctor exists");
            if want.len() != arm.binders.len() {
                return Err(TypeError::BadMatch {
                    data: *name,
                    reason: format!(
                        "constructor `{}` has {} argument(s), {} binder(s) given",
                        arm.ctor,
                        want.len(),
                        arm.binders.len()
                    ),
                });
            }
            for (b, w) in arm.binders.iter().zip(&want) {
                st.gamma.push((*b, w.clone()));
            }
            let got = self.check(st, &arm.body);
            for _ in &arm.binders {
                st.gamma.pop();
            }
            let got = got?;
            match &result {
                None => result = Some(got),
                Some(prev) if types_equal(prev, &got) => {}
                Some(prev) => {
                    return Err(TypeError::Mismatch {
                        expected: prev.clone(),
                        found: got,
                        context: "match arms".into(),
                    })
                }
            }
        }
        if !remaining.is_empty() {
            return Err(TypeError::BadMatch {
                data: *name,
                reason: format!(
                    "non-exhaustive match; missing {}",
                    remaining
                        .iter()
                        .map(|c| format!("`{c}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
        result.ok_or(TypeError::BadMatch {
            data: *name,
            reason: "empty match".into(),
        })
    }

    fn check_binop(&self, op: BinOp, ta: Type, tb: Type) -> Result<Type, TypeError> {
        use BinOp::*;
        let err = |expected: Type, found: Type| TypeError::Mismatch {
            expected,
            found,
            context: format!("operand of `{}`", op.symbol()),
        };
        match op {
            Add | Sub | Mul | Div | Mod => {
                if !types_equal(&ta, &Type::Int) {
                    return Err(err(Type::Int, ta));
                }
                if !types_equal(&tb, &Type::Int) {
                    return Err(err(Type::Int, tb));
                }
                Ok(Type::Int)
            }
            Lt | Le => {
                if !types_equal(&ta, &Type::Int) {
                    return Err(err(Type::Int, ta));
                }
                if !types_equal(&tb, &Type::Int) {
                    return Err(err(Type::Int, tb));
                }
                Ok(Type::Bool)
            }
            And | Or => {
                if !types_equal(&ta, &Type::Bool) {
                    return Err(err(Type::Bool, ta));
                }
                if !types_equal(&tb, &Type::Bool) {
                    return Err(err(Type::Bool, tb));
                }
                Ok(Type::Bool)
            }
            Concat => {
                if !types_equal(&ta, &Type::Str) {
                    return Err(err(Type::Str, ta));
                }
                if !types_equal(&tb, &Type::Str) {
                    return Err(err(Type::Str, tb));
                }
                Ok(Type::Str)
            }
            Eq => {
                let base = matches!(ta, Type::Int | Type::Bool | Type::Str);
                if !base {
                    return Err(TypeError::Mismatch {
                        expected: Type::Int,
                        found: ta,
                        context: "`==` requires a base type (Int, Bool or String)".into(),
                    });
                }
                if !types_equal(&ta, &tb) {
                    return Err(err(ta, tb));
                }
                Ok(Type::Bool)
            }
        }
    }

    /// Checks (and possibly coerces) one type argument of a type
    /// application against the quantifier's kind `k`: plain types for
    /// `k = 0`, constructor references for `k > 0` (a bare interface
    /// name `I` is coerced from `Con(I, [])` to a constructor).
    fn check_type_argument(&self, st: &State, arg: &Type, k: usize) -> Result<Type, TypeError> {
        use crate::syntax::TyCon;
        if k == 0 {
            if matches!(arg, Type::Ctor(_)) {
                return Err(TypeError::NotAConstructor {
                    found: arg.clone(),
                    arity: 0,
                });
            }
            self.check_wf(st, arg)?;
            return Ok(arg.clone());
        }
        match arg {
            Type::Ctor(c) => {
                let arity = c
                    .arity(self.decls)
                    .ok_or(TypeError::UnknownInterface(match c {
                        TyCon::Named(n) => *n,
                        TyCon::List => Symbol::intern("List"),
                    }))?;
                if arity != k {
                    return Err(TypeError::ArityMismatch {
                        what: format!("constructor `{c}`"),
                        expected: k,
                        found: arity,
                    });
                }
                Ok(arg.clone())
            }
            // Bare constructor name parsed as a nullary application.
            Type::Con(n, a) if a.is_empty() => {
                let arity = self
                    .decls
                    .con_arity(*n)
                    .ok_or(TypeError::UnknownInterface(*n))?;
                if arity != k {
                    return Err(TypeError::ArityMismatch {
                        what: format!("constructor `{n}`"),
                        expected: k,
                        found: arity,
                    });
                }
                Ok(Type::Ctor(TyCon::Named(*n)))
            }
            // An in-scope arrow-kinded variable.
            Type::Var(g) => {
                if !st.tyvars.contains(g) {
                    return Err(TypeError::UnboundTypeVar(*g));
                }
                match st.kinds.get(g) {
                    Some(kg) if *kg == k => Ok(arg.clone()),
                    other => Err(TypeError::KindMismatch {
                        var: *g,
                        first: other.copied().unwrap_or(0),
                        second: k,
                    }),
                }
            }
            other => Err(TypeError::NotAConstructor {
                found: other.clone(),
                arity: k,
            }),
        }
    }

    /// Well-formedness: type variables in scope, interfaces declared
    /// with correct arity.
    fn check_wf(&self, st: &State, ty: &Type) -> Result<(), TypeError> {
        match ty {
            Type::Var(a) => {
                if !st.tyvars.contains(a) {
                    return Err(TypeError::UnboundTypeVar(*a));
                }
                match st.kinds.get(a) {
                    Some(k) if *k > 0 => Err(TypeError::KindMismatch {
                        var: *a,
                        first: *k,
                        second: 0,
                    }),
                    _ => Ok(()),
                }
            }
            Type::Int | Type::Bool | Type::Str | Type::Unit => Ok(()),
            Type::Arrow(a, b) | Type::Prod(a, b) => {
                self.check_wf(st, a)?;
                self.check_wf(st, b)
            }
            Type::List(a) => self.check_wf(st, a),
            Type::Con(name, args) => {
                let param_kinds = self
                    .decls
                    .con_param_kinds(*name)
                    .ok_or(TypeError::UnknownInterface(*name))?;
                if param_kinds.len() != args.len() {
                    return Err(TypeError::ArityMismatch {
                        what: format!("type `{name}`"),
                        expected: param_kinds.len(),
                        found: args.len(),
                    });
                }
                for (k, t) in param_kinds.iter().zip(args) {
                    self.check_wf_at_kind(st, t, *k)?;
                }
                Ok(())
            }
            Type::VarApp(f, args) => {
                if !st.tyvars.contains(f) {
                    return Err(TypeError::UnboundTypeVar(*f));
                }
                match st.kinds.get(f) {
                    Some(k) if *k == args.len() => {}
                    Some(k) => {
                        return Err(TypeError::KindMismatch {
                            var: *f,
                            first: *k,
                            second: args.len(),
                        })
                    }
                    None => {
                        return Err(TypeError::KindMismatch {
                            var: *f,
                            first: 0,
                            second: args.len(),
                        })
                    }
                }
                args.iter().try_for_each(|t| self.check_wf(st, t))
            }
            Type::Ctor(c) => Err(TypeError::CtorInTypePosition(*c)),
            Type::Rule(r) => self.check_wf_rule(st, r),
        }
    }

    fn check_wf_rule(&self, st: &State, rho: &RuleType) -> Result<(), TypeError> {
        self.check_wf_rule_under(st, rho)
    }

    /// Well-formedness at a given kind: `k = 0` means a plain type;
    /// `k > 0` demands a constructor of that arity (a `Ctor`
    /// reference, a bare nullary `Con` naming an arity-`k`
    /// constructor, or an in-scope arrow-kinded variable).
    fn check_wf_at_kind(&self, st: &State, ty: &Type, k: usize) -> Result<(), TypeError> {
        use crate::syntax::TyCon;
        if k == 0 {
            return self.check_wf(st, ty);
        }
        match ty {
            Type::Ctor(c) => {
                let arity = c
                    .arity(self.decls)
                    .ok_or(TypeError::UnknownInterface(match c {
                        TyCon::Named(n) => *n,
                        TyCon::List => Symbol::intern("List"),
                    }))?;
                if arity != k {
                    return Err(TypeError::ArityMismatch {
                        what: format!("constructor `{c}`"),
                        expected: k,
                        found: arity,
                    });
                }
                Ok(())
            }
            Type::Con(n, args) if args.is_empty() => {
                let arity = self
                    .decls
                    .con_arity(*n)
                    .ok_or(TypeError::UnknownInterface(*n))?;
                if arity != k {
                    return Err(TypeError::ArityMismatch {
                        what: format!("constructor `{n}`"),
                        expected: k,
                        found: arity,
                    });
                }
                Ok(())
            }
            Type::Var(g) => {
                if !st.tyvars.contains(g) {
                    return Err(TypeError::UnboundTypeVar(*g));
                }
                match st.kinds.get(g) {
                    Some(kg) if *kg == k => Ok(()),
                    other => Err(TypeError::KindMismatch {
                        var: *g,
                        first: other.copied().unwrap_or(0),
                        second: k,
                    }),
                }
            }
            other => Err(TypeError::NotAConstructor {
                found: other.clone(),
                arity: k,
            }),
        }
    }

    fn check_wf_rule_under(&self, st: &State, rho: &RuleType) -> Result<(), TypeError> {
        let mut inner = st.clone_tyvars();
        let kinds = infer_binder_kinds(self.decls, rho)?;
        for v in rho.vars() {
            inner.tyvars.insert(*v);
            inner.kinds.insert(*v, kinds.get(v).copied().unwrap_or(0));
        }
        for r in rho.context() {
            self.check_wf_rule_under(&inner, r)?;
        }
        self.check_wf(&inner, rho.head())
    }
}

/// The note's condition at `?ρ`: within one resolution step, a
/// recursively *derived* premise must not be unifiable with an
/// *assumed* one — evidence for related premises supplied "by
/// different means" is incoherent (the note's
/// `∀ρ₁∈π₁, ρ₂∈π₂. θρ₂ ⋡ ρ₁` condition).
fn check_no_mixed_supply(res: &crate::resolve::Resolution) -> Result<(), TypeError> {
    use crate::resolve::Premise;
    for p in &res.premises {
        if let Premise::Derived(inner) = p {
            for q in &res.premises {
                if let Premise::Assumed { rho, .. } = q {
                    if crate::coherence::common_instance(&inner.query, rho).is_some() {
                        return Err(TypeError::Coherence(
                            crate::coherence::CoherenceError::OverlappingInstances {
                                left: inner.query.clone(),
                                right: rho.clone(),
                                witness: crate::coherence::common_instance(&inner.query, rho)
                                    .expect("checked"),
                            },
                        ));
                    }
                }
            }
            check_no_mixed_supply(inner)?;
        }
    }
    Ok(())
}

/// Set equality of contexts modulo α-equivalence (each side covered).
fn context_sets_equal(a: &[RuleType], b: &[RuleType]) -> bool {
    let mut ka: Vec<String> = a.iter().map(alpha::canonical_key).collect();
    let mut kb: Vec<String> = b.iter().map(alpha::canonical_key).collect();
    ka.sort();
    ka.dedup();
    kb.sort();
    kb.dedup();
    ka == kb
}

/// What the binders of a rule abstraction must be fresh for: TyRule's
/// `ᾱ` fresh for `Γ, Δ` and for the type variables already in scope.
///
/// The type checker and the elaborator both rename binders apart
/// through [`BinderScope::rename_apart`], so the two checks cannot
/// drift. Γ comes in two parts: a base whose free variables are
/// summarized once (a session's `let` types, see
/// [`crate::gamma::Gamma`]) and the binders pushed on top of it, which
/// are scanned per probe. Δ answers from its per-frame summaries
/// ([`ImplicitEnv::binds_free`]), so no probe walks the prelude.
pub struct BinderScope<'s> {
    /// Type variables bound by enclosing rule abstractions.
    pub tyvars: &'s BTreeSet<TyVar>,
    /// Free type variables of Γ's base.
    pub gamma_free: &'s BTreeSet<TyVar>,
    /// Γ's binders above the base.
    pub gamma: &'s [(Symbol, Type)],
    /// The implicit environment Δ.
    pub delta: &'s ImplicitEnv,
}

impl BinderScope<'_> {
    /// Whether a binder named `v` would clash: `v` is in scope or
    /// free in Γ or Δ.
    pub fn binds(&self, v: TyVar) -> bool {
        self.tyvars.contains(&v)
            || self.gamma_free.contains(&v)
            || self.delta.binds_free(v)
            || self.gamma.iter().any(|(_, t)| t.has_free(v))
    }

    /// Renames the binders of `rule(rho)(body)` that clash to fresh
    /// variables, in `rho` and in `body`. When none clashes, both come
    /// back borrowed: nothing is copied.
    pub fn rename_apart<'a>(
        &self,
        rho: &'a RuleType,
        body: &'a Expr,
    ) -> (Cow<'a, RuleType>, Cow<'a, Expr>) {
        if !rho.vars().iter().any(|v| self.binds(*v)) {
            return (Cow::Borrowed(rho), Cow::Borrowed(body));
        }
        let mut sub = TySubst::new();
        let mut new_vars = Vec::new();
        for v in rho.vars() {
            if self.binds(*v) {
                let nv = crate::symbol::fresh(crate::symbol::base_name(*v));
                sub.bind(*v, Type::Var(nv));
                new_vars.push(nv);
            } else {
                new_vars.push(*v);
            }
        }
        let renamed = RuleType::new(
            new_vars,
            sub.apply_context(rho.context()),
            sub.apply_type(rho.head()),
        );
        (Cow::Owned(renamed), Cow::Owned(sub.apply_expr(body)))
    }
}

struct State {
    gamma: Vec<(Symbol, Type)>,
    delta: ImplicitEnv,
    tyvars: BTreeSet<TyVar>,
    /// Arities of in-scope type variables (absent = kind `*`).
    kinds: std::collections::BTreeMap<TyVar, usize>,
}

impl State {
    fn clone_tyvars(&self) -> State {
        State {
            gamma: Vec::new(),
            delta: ImplicitEnv::new(),
            tyvars: self.tyvars.clone(),
            kinds: self.kinds.clone(),
        }
    }
}

/// Infers the kind (arity) of each quantified variable of `rho` from
/// its occurrences: a bare occurrence in type position has arity 0, a
/// head occurrence `f τ̄` has arity `|τ̄|`, and an occurrence as the
/// argument of a declared constructor inherits the corresponding
/// parameter's declared kind. Conflicting usages are a kind error.
pub fn infer_binder_kinds(
    decls: &Declarations,
    rho: &RuleType,
) -> Result<std::collections::BTreeMap<TyVar, usize>, TypeError> {
    fn record(
        v: TyVar,
        k: usize,
        out: &mut std::collections::BTreeMap<TyVar, usize>,
    ) -> Result<(), TypeError> {
        match out.insert(v, k) {
            Some(prev) if prev != k => Err(TypeError::KindMismatch {
                var: v,
                first: prev,
                second: k,
            }),
            _ => Ok(()),
        }
    }
    fn scan_at_kind(
        decls: &Declarations,
        t: &Type,
        k: usize,
        interest: &BTreeSet<TyVar>,
        out: &mut std::collections::BTreeMap<TyVar, usize>,
    ) -> Result<(), TypeError> {
        match t {
            Type::Var(a) if interest.contains(a) => record(*a, k, out),
            _ if k == 0 => scan_type(decls, t, interest, out),
            // Constructor-kind arguments contain no further kind
            // information worth scanning.
            _ => Ok(()),
        }
    }
    fn scan_type(
        decls: &Declarations,
        t: &Type,
        interest: &BTreeSet<TyVar>,
        out: &mut std::collections::BTreeMap<TyVar, usize>,
    ) -> Result<(), TypeError> {
        match t {
            Type::Var(a) => {
                if interest.contains(a) {
                    record(*a, 0, out)?;
                }
                Ok(())
            }
            Type::Int | Type::Bool | Type::Str | Type::Unit | Type::Ctor(_) => Ok(()),
            Type::Arrow(a, b) | Type::Prod(a, b) => {
                scan_type(decls, a, interest, out)?;
                scan_type(decls, b, interest, out)
            }
            Type::List(a) => scan_type(decls, a, interest, out),
            Type::Con(n, args) => {
                let kinds = decls
                    .con_param_kinds(*n)
                    .unwrap_or_else(|| vec![0; args.len()]);
                for (i, a) in args.iter().enumerate() {
                    let k = kinds.get(i).copied().unwrap_or(0);
                    scan_at_kind(decls, a, k, interest, out)?;
                }
                Ok(())
            }
            Type::VarApp(f, args) => {
                if interest.contains(f) {
                    record(*f, args.len(), out)?;
                }
                args.iter()
                    .try_for_each(|a| scan_type(decls, a, interest, out))
            }
            Type::Rule(r) => scan_rule(decls, r, interest, out),
        }
    }
    fn scan_rule(
        decls: &Declarations,
        r: &RuleType,
        interest: &BTreeSet<TyVar>,
        out: &mut std::collections::BTreeMap<TyVar, usize>,
    ) -> Result<(), TypeError> {
        // Nested binders shadow.
        let mut inner: BTreeSet<TyVar> = interest.clone();
        for v in r.vars() {
            inner.remove(v);
        }
        for c in r.context() {
            scan_rule(decls, c, &inner, out)?;
        }
        scan_type(decls, r.head(), &inner, out)
    }
    let interest: BTreeSet<TyVar> = rho.vars().iter().copied().collect();
    let mut out = std::collections::BTreeMap::new();
    for c in rho.context() {
        scan_rule(decls, c, &interest, &mut out)?;
    }
    scan_type(decls, rho.head(), &interest, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn tv(s: &str) -> Type {
        Type::var(v(s))
    }

    fn check(e: &Expr) -> Result<Type, TypeError> {
        let decls = Declarations::new();
        Typechecker::new(&decls).check_closed(e)
    }

    fn int_query_plus_one() -> Expr {
        Expr::binop(BinOp::Add, Expr::query_simple(Type::Int), Expr::Int(1))
    }

    #[test]
    fn binders_are_renamed_apart_from_every_part_of_the_scope() {
        // rule(∀a b. {a} ⇒ a × b)(body): `a` clashes with whichever
        // part of the scope mentions it, `b` never does.
        let (a, b) = (v("ra_a"), v("ra_b"));
        let rho = RuleType::new(
            vec![a, b],
            vec![Type::var(a).promote()],
            Type::prod(Type::var(a), Type::var(b)),
        );
        let body = Expr::query_simple(Type::var(a));
        let none = BTreeSet::new();
        let with_a: BTreeSet<TyVar> = [a].into_iter().collect();
        let empty_delta = ImplicitEnv::new();
        let open_delta = ImplicitEnv::with_frame(vec![Type::list(Type::var(a)).promote()]);
        let open_gamma = [(v("x"), Type::arrow(Type::var(a), Type::Int))];
        let scopes = [
            (&with_a, &none, &[][..], &empty_delta),
            (&none, &with_a, &[][..], &empty_delta),
            (&none, &none, &open_gamma[..], &empty_delta),
            (&none, &none, &[][..], &open_delta),
        ];
        for (tyvars, gamma_free, gamma, delta) in scopes {
            let scope = BinderScope {
                tyvars,
                gamma_free,
                gamma,
                delta,
            };
            assert!(scope.binds(a) && !scope.binds(b));
            let (renamed, body) = scope.rename_apart(&rho, &body);
            let (Cow::Owned(renamed), Cow::Owned(body)) = (renamed, body) else {
                panic!("a clashing binder must be renamed");
            };
            let fresh_a = renamed.vars()[0];
            assert_ne!(fresh_a, a);
            assert_eq!(renamed.vars()[1], b);
            assert!(alpha::alpha_eq(&renamed, &rho));
            assert_eq!(body, Expr::query_simple(Type::var(fresh_a)));
        }
        // Nothing clashes: both come back borrowed.
        let scope = BinderScope {
            tyvars: &none,
            gamma_free: &none,
            gamma: &[],
            delta: &empty_delta,
        };
        let (renamed, body) = scope.rename_apart(&rho, &body);
        assert!(matches!(
            (renamed, body),
            (Cow::Borrowed(_), Cow::Borrowed(_))
        ));
    }

    #[test]
    fn paper_example_e1_types() {
        // implicit {1:Int, true:Bool} in (?Int + 1, ¬?Bool)
        let body = Expr::pair(
            int_query_plus_one(),
            Expr::UnOp(UnOp::Not, Expr::query_simple(Type::Bool).into()),
        );
        let e = Expr::implicit(
            vec![
                (Expr::Int(1), Type::Int.promote()),
                (Expr::Bool(true), Type::Bool.promote()),
            ],
            body,
            Type::prod(Type::Int, Type::Bool),
        );
        assert_eq!(check(&e).unwrap(), Type::prod(Type::Int, Type::Bool));
    }

    #[test]
    fn unresolved_query_fails() {
        let e = Expr::query_simple(Type::Int);
        assert!(matches!(check(&e), Err(TypeError::Resolution(_))));
    }

    #[test]
    fn ambiguous_rule_types_rejected_at_query_and_abstraction() {
        // ∀a. {a} ⇒ Int
        let bad = RuleType::new(vec![v("a")], vec![tv("a").promote()], Type::Int);
        assert!(matches!(
            check(&Expr::Query(bad.clone())),
            Err(TypeError::Ambiguous(_))
        ));
        let abs = Expr::rule_abs(bad, Expr::Int(1));
        assert!(matches!(check(&abs), Err(TypeError::Ambiguous(_))));
    }

    #[test]
    fn rule_abstraction_and_instantiation() {
        // rule(∀a.{a} ⇒ a×a)((?a, ?a)) [Int] with {3 : Int}  :  Int×Int
        let rho = RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let body = Expr::pair(Expr::query_simple(tv("a")), Expr::query_simple(tv("a")));
        let abs = Expr::rule_abs(rho, body);
        let inst = Expr::TyApp(abs.into(), vec![Type::Int]);
        let app = Expr::with(inst, vec![(Expr::Int(3), Type::Int.promote())]);
        assert_eq!(check(&app).unwrap(), Type::prod(Type::Int, Type::Int));
    }

    #[test]
    fn tyapp_arity_is_checked() {
        let rho = RuleType::new(vec![v("a")], vec![], Type::arrow(tv("a"), tv("a")));
        let abs = Expr::rule_abs(rho, Expr::lam("x", tv("a"), Expr::var("x")));
        let inst = Expr::TyApp(abs.into(), vec![Type::Int, Type::Bool]);
        assert!(matches!(check(&inst), Err(TypeError::ArityMismatch { .. })));
    }

    #[test]
    fn rule_application_must_cover_context() {
        // rule({Int,Bool} ⇒ Int)(?Int) with {1 : Int}  — Bool missing.
        let rho = RuleType::mono(vec![Type::Int.promote(), Type::Bool.promote()], Type::Int);
        let abs = Expr::rule_abs(rho, Expr::query_simple(Type::Int));
        let app = Expr::with(abs, vec![(Expr::Int(1), Type::Int.promote())]);
        assert!(matches!(
            check(&app),
            Err(TypeError::ContextMismatch { .. })
        ));
    }

    #[test]
    fn rule_application_to_polymorphic_rule_rejected() {
        let rho = RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let abs = Expr::rule_abs(
            rho,
            Expr::pair(Expr::query_simple(tv("a")), Expr::query_simple(tv("a"))),
        );
        let app = Expr::with(abs, vec![(Expr::Int(3), Type::Int.promote())]);
        assert!(matches!(
            check(&app),
            Err(TypeError::PolymorphicRuleApplication(_))
        ));
    }

    #[test]
    fn nested_scoping_types_e6() {
        // implicit {1} in implicit {true, rule({Bool}⇒Int)(…)} in ?Int
        let inner_rule_ty = RuleType::mono(vec![Type::Bool.promote()], Type::Int);
        let inner_rule = Expr::rule_abs(
            inner_rule_ty.clone(),
            Expr::if_(Expr::query_simple(Type::Bool), Expr::Int(2), Expr::Int(0)),
        );
        let inner = Expr::implicit(
            vec![
                (Expr::Bool(true), Type::Bool.promote()),
                (inner_rule, inner_rule_ty),
            ],
            Expr::query_simple(Type::Int),
            Type::Int,
        );
        let e = Expr::implicit(vec![(Expr::Int(1), Type::Int.promote())], inner, Type::Int);
        assert_eq!(check(&e).unwrap(), Type::Int);
    }

    #[test]
    fn unbound_type_variables_rejected() {
        let e = Expr::lam("x", tv("ghost"), Expr::var("x"));
        assert!(matches!(check(&e), Err(TypeError::UnboundTypeVar(_))));
    }

    #[test]
    fn unbound_term_variables_rejected() {
        assert!(matches!(
            check(&Expr::var("nope")),
            Err(TypeError::UnboundVar(_))
        ));
    }

    #[test]
    fn shadowing_rule_binders_are_renamed_apart() {
        // rule(∀a.{a}⇒a×a)( … rule(∀a.{a}⇒a×a)(…) … ): the inner `a`
        // must not clash with the outer one.
        let rho = RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), tv("a")),
        );
        let inner = Expr::rule_abs(
            rho.clone(),
            Expr::pair(Expr::query_simple(tv("a")), Expr::query_simple(tv("a"))),
        );
        // Outer body must produce a×a; use the inner rule applied.
        let outer_body = Expr::with(
            Expr::TyApp(inner.into(), vec![tv("a")]),
            vec![(Expr::query_simple(tv("a")), tv("a").promote())],
        );
        let outer = Expr::rule_abs(rho, outer_body);
        assert!(check(&outer).is_ok());
    }

    #[test]
    fn fix_requires_function_type() {
        let e = Expr::Fix(v("x"), Type::Int, Expr::Int(1).into());
        assert!(matches!(check(&e), Err(TypeError::FixNotFunction(_))));
        let ok = Expr::Fix(
            v("f"),
            Type::arrow(Type::Int, Type::Int),
            Expr::lam("n", Type::Int, Expr::app(Expr::var("f"), Expr::var("n"))).into(),
        );
        assert_eq!(check(&ok).unwrap(), Type::arrow(Type::Int, Type::Int));
    }

    #[test]
    fn list_case_types() {
        let e = Expr::ListCase {
            scrut: Expr::list(Type::Int, vec![Expr::Int(1)]).into(),
            nil: Expr::Int(0).into(),
            head: v("h"),
            tail: v("t"),
            cons: Expr::var("h").into(),
        };
        assert_eq!(check(&e).unwrap(), Type::Int);
    }

    #[test]
    fn record_literals_and_projection() {
        let mut decls = Declarations::new();
        decls
            .declare(crate::syntax::InterfaceDecl {
                name: v("Eq"),
                vars: vec![v("a")],
                fields: vec![(
                    v("eq"),
                    Type::arrow(tv("a"), Type::arrow(tv("a"), Type::Bool)),
                )],
            })
            .unwrap();
        let tc = Typechecker::new(&decls);
        let lit = Expr::Make(
            v("Eq"),
            vec![Type::Int],
            vec![(
                v("eq"),
                Expr::lam(
                    "x",
                    Type::Int,
                    Expr::lam(
                        "y",
                        Type::Int,
                        Expr::binop(BinOp::Eq, Expr::var("x"), Expr::var("y")),
                    ),
                ),
            )],
        );
        assert_eq!(
            tc.check_closed(&lit).unwrap(),
            Type::Con(v("Eq"), vec![Type::Int])
        );
        let proj = Expr::Proj(lit.into(), v("eq"));
        assert_eq!(
            tc.check_closed(&proj).unwrap(),
            Type::arrow(Type::Int, Type::arrow(Type::Int, Type::Bool))
        );
    }

    #[test]
    fn higher_order_query_types_e16_shape() {
        // ?({Int} ⇒ Int) against f : {Int,Bool} ⇒ Int and Bool — the
        // partial resolution case.
        let f_ty = RuleType::mono(vec![Type::Int.promote(), Type::Bool.promote()], Type::Int);
        let f = Expr::rule_abs(f_ty.clone(), Expr::query_simple(Type::Int));
        let query_ty = RuleType::mono(vec![Type::Int.promote()], Type::Int);
        let e = Expr::implicit(
            vec![(f, f_ty), (Expr::Bool(true), Type::Bool.promote())],
            Expr::Query(query_ty.clone()),
            query_ty.to_type(),
        );
        assert!(matches!(check(&e).unwrap(), Type::Rule(_)));
    }

    #[test]
    fn strict_mode_rejects_nonterminating_contexts() {
        // rule({{String}⇒Int, {Int}⇒String, String} ⇒ Int)(…): the
        // context embeds the Appendix A loop.
        let looping = RuleType::mono(
            vec![
                RuleType::mono(vec![Type::Str.promote()], Type::Int),
                RuleType::mono(vec![Type::Int.promote()], Type::Str),
                Type::Str.promote(),
            ],
            Type::prod(Type::prod(Type::Int, Type::Int), Type::Int),
        );
        let e = Expr::rule_abs(
            looping,
            Expr::pair(
                Expr::pair(Expr::query_simple(Type::Int), Expr::Int(0)),
                Expr::Int(0),
            ),
        );
        let decls = Declarations::new();
        // Lenient mode accepts the definition (resolution inside is
        // cut by fuel only if actually queried to a loop)…
        // …but strict mode rejects the context outright.
        let err = Typechecker::new(&decls)
            .strict()
            .check_closed(&e)
            .unwrap_err();
        assert!(matches!(err, TypeError::Termination(_)), "got {err:?}");
    }

    #[test]
    fn strict_mode_accepts_the_pair_rule_shapes() {
        // The note's f: ∀a b. {a, b} ⇒ a × b must be *accepted* at
        // its definition (deferred checking).
        let f_ty = RuleType::new(
            vec![v("a"), v("b")],
            vec![tv("a").promote(), tv("b").promote()],
            Type::prod(tv("a"), tv("b")),
        );
        let f = Expr::rule_abs(
            f_ty,
            Expr::pair(Expr::query_simple(tv("a")), Expr::query_simple(tv("b"))),
        );
        // Used safely at distinct instances:
        let app = Expr::with(
            Expr::TyApp(f.into(), vec![Type::Int, Type::Bool]),
            vec![
                (Expr::Int(1), Type::Int.promote()),
                (Expr::Bool(true), Type::Bool.promote()),
            ],
        );
        let decls = Declarations::new();
        assert_eq!(
            Typechecker::new(&decls)
                .strict()
                .check_closed(&app)
                .unwrap(),
            Type::prod(Type::Int, Type::Bool)
        );
    }

    #[test]
    fn strict_mode_rejects_collapsing_with_contexts() {
        // The note's g: supplying {?a : a, 3 : Int} where a could be
        // instantiated to Int — unique_instances fails at `with`.
        let f_ty = RuleType::new(
            vec![v("a"), v("b")],
            vec![tv("a").promote(), tv("b").promote()],
            Type::prod(tv("a"), tv("b")),
        );
        let f = Expr::rule_abs(
            f_ty,
            Expr::pair(Expr::query_simple(tv("a")), Expr::query_simple(tv("b"))),
        );
        let g_ty = RuleType::new(
            vec![v("a")],
            vec![tv("a").promote()],
            Type::prod(tv("a"), Type::Int),
        );
        let g_body = Expr::with(
            Expr::TyApp(f.into(), vec![tv("a"), Type::Int]),
            vec![
                (Expr::query_simple(tv("a")), tv("a").promote()),
                (Expr::Int(3), Type::Int.promote()),
            ],
        );
        let g = Expr::rule_abs(g_ty, g_body);
        let decls = Declarations::new();
        // Lenient mode accepts g…
        assert!(Typechecker::new(&decls).check_closed(&g).is_ok());
        // …strict mode rejects it at the `with` site.
        let err = Typechecker::new(&decls)
            .strict()
            .check_closed(&g)
            .unwrap_err();
        assert!(matches!(err, TypeError::Coherence(_)), "got {err:?}");
    }

    #[test]
    fn strict_mode_rejects_unstable_free_variable_queries() {
        // The extended report's incoherent program: inside
        // rule(∀b. b→b), a nearer Int→Int rule shadows the generic
        // rule once b = Int.
        let outer_ty = RuleType::new(vec![v("b")], vec![], Type::arrow(tv("b"), tv("b")));
        let id_poly_ty = RuleType::new(vec![v("c")], vec![], Type::arrow(tv("c"), tv("c")));
        let id_poly = Expr::rule_abs(id_poly_ty.clone(), Expr::lam("x", tv("c"), Expr::var("x")));
        let inc = Expr::lam(
            "n",
            Type::Int,
            Expr::binop(BinOp::Add, Expr::var("n"), Expr::Int(1)),
        );
        // implicit {id_poly} in implicit {inc} in ?(b → b)
        let inner = Expr::implicit(
            vec![(inc, Type::arrow(Type::Int, Type::Int).promote())],
            Expr::query_simple(Type::arrow(tv("b"), tv("b"))),
            Type::arrow(tv("b"), tv("b")),
        );
        let body = Expr::implicit(
            vec![(id_poly, id_poly_ty)],
            inner,
            Type::arrow(tv("b"), tv("b")),
        );
        let incoherent = Expr::rule_abs(outer_ty.clone(), body.clone());
        let decls = Declarations::new();
        // Lenient mode accepts (resolution statically picks inc? no —
        // Int→Int does not match b→b with b rigid, so the generic
        // rule in the outer frame wins).
        assert!(Typechecker::new(&decls).check_closed(&incoherent).is_ok());
        let err = Typechecker::new(&decls)
            .strict()
            .check_closed(&incoherent)
            .unwrap_err();
        assert!(
            matches!(
                err,
                TypeError::Coherence(crate::coherence::CoherenceError::UnstableQuery { .. })
            ),
            "got {err:?}"
        );
        // The *coherent* variant (no nearer monomorphic rule) passes.
        let coherent_body = Expr::implicit(
            vec![(
                Expr::rule_abs(
                    RuleType::new(vec![v("d")], vec![], Type::arrow(tv("d"), tv("d"))),
                    Expr::lam("x", tv("d"), Expr::var("x")),
                ),
                RuleType::new(vec![v("d")], vec![], Type::arrow(tv("d"), tv("d"))),
            )],
            Expr::query_simple(Type::arrow(tv("b"), tv("b"))),
            Type::arrow(tv("b"), tv("b")),
        );
        let coherent = Expr::rule_abs(outer_ty, coherent_body);
        assert!(Typechecker::new(&decls)
            .strict()
            .check_closed(&coherent)
            .is_ok());
    }

    #[test]
    fn eq_on_compound_types_rejected() {
        let e = Expr::binop(
            BinOp::Eq,
            Expr::pair(Expr::Int(1), Expr::Int(2)),
            Expr::pair(Expr::Int(1), Expr::Int(2)),
        );
        assert!(check(&e).is_err());
    }
}
