//! Abstract syntax of System F, the elaboration target (§4).
//!
//! ```text
//! Types        T ::= α | T → T | ∀α.T | Int | ()          (+ host types)
//! Expressions  E ::= x | λ(x:T).E | E E | Λα.E | E T | n | ()
//! ```
//!
//! extended with the same host fragment as λ⇒ (booleans, strings,
//! pairs, lists, records, `if`, `fix`, primitive operators) so that
//! the elaboration of §4 is homomorphic on that fragment.

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use implicit_core::gamma::FreeTyVars;
use implicit_core::symbol::{base_name, fresh, Symbol};
pub use implicit_core::syntax::{BinOp, UnOp};

/// A System F type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum FType {
    /// Type variable.
    Var(Symbol),
    /// Integer type.
    Int,
    /// Boolean type.
    Bool,
    /// String type.
    Str,
    /// Unit type.
    Unit,
    /// Function type.
    Arrow(Rc<FType>, Rc<FType>),
    /// Product type.
    Prod(Rc<FType>, Rc<FType>),
    /// List type.
    List(Rc<FType>),
    /// Nominal record type.
    Con(Symbol, Vec<FType>),
    /// An applied type variable `f T̄` (the F_ω-lite extension
    /// mirroring the core calculus).
    VarApp(Symbol, Vec<FType>),
    /// A type-constructor reference (instantiation argument for an
    /// arrow-kinded quantifier).
    Ctor(implicit_core::syntax::TyCon),
    /// Universal quantification `∀α.T`.
    Forall(Symbol, Rc<FType>),
}

impl FType {
    /// Builds an arrow type.
    pub fn arrow(from: FType, to: FType) -> FType {
        FType::Arrow(Rc::new(from), Rc::new(to))
    }

    /// Builds a product type.
    pub fn prod(left: FType, right: FType) -> FType {
        FType::Prod(Rc::new(left), Rc::new(right))
    }

    /// Builds a list type.
    pub fn list(elem: FType) -> FType {
        FType::List(Rc::new(elem))
    }

    /// `∀ᾱ.T`, folding a sequence of quantifiers.
    pub fn forall(vars: impl IntoIterator<Item = Symbol>, body: FType) -> FType {
        let vars: Vec<Symbol> = vars.into_iter().collect();
        vars.into_iter()
            .rev()
            .fold(body, |acc, v| FType::Forall(v, Rc::new(acc)))
    }

    /// Curried arrow `T₁ → … → Tₙ → R`.
    pub fn arrows(args: impl IntoIterator<Item = FType>, ret: FType) -> FType {
        let args: Vec<FType> = args.into_iter().collect();
        args.into_iter()
            .rev()
            .fold(ret, |acc, a| FType::arrow(a, acc))
    }

    /// Free type variables.
    pub fn ftv(&self) -> BTreeSet<Symbol> {
        let mut acc = BTreeSet::new();
        self.ftv_into(&mut acc);
        acc
    }

    fn ftv_into(&self, acc: &mut BTreeSet<Symbol>) {
        match self {
            FType::Var(a) => {
                acc.insert(*a);
            }
            FType::Int | FType::Bool | FType::Str | FType::Unit => {}
            FType::Arrow(a, b) | FType::Prod(a, b) => {
                a.ftv_into(acc);
                b.ftv_into(acc);
            }
            FType::List(a) => a.ftv_into(acc),
            FType::Con(_, args) => args.iter().for_each(|t| t.ftv_into(acc)),
            FType::VarApp(f, args) => {
                acc.insert(*f);
                args.iter().for_each(|t| t.ftv_into(acc));
            }
            FType::Ctor(_) => {}
            FType::Forall(v, b) => {
                let mut inner = BTreeSet::new();
                b.ftv_into(&mut inner);
                inner.remove(v);
                acc.extend(inner);
            }
        }
    }

    /// Whether `v` is free in the type, decided without building the
    /// set.
    pub fn has_free(&self, v: Symbol) -> bool {
        match self {
            FType::Var(a) => *a == v,
            FType::Int | FType::Bool | FType::Str | FType::Unit | FType::Ctor(_) => false,
            FType::Arrow(a, b) | FType::Prod(a, b) => a.has_free(v) || b.has_free(v),
            FType::List(a) => a.has_free(v),
            FType::Con(_, args) => args.iter().any(|t| t.has_free(v)),
            FType::VarApp(f, args) => *f == v || args.iter().any(|t| t.has_free(v)),
            FType::Forall(a, b) => *a != v && b.has_free(v),
        }
    }

    /// Capture-avoiding substitution `[a ↦ ty] self`.
    pub fn subst(&self, a: Symbol, ty: &FType) -> FType {
        match self {
            FType::Var(b) if *b == a => ty.clone(),
            FType::Var(_) | FType::Int | FType::Bool | FType::Str | FType::Unit => self.clone(),
            FType::Arrow(l, r) => FType::arrow(l.subst(a, ty), r.subst(a, ty)),
            FType::Prod(l, r) => FType::prod(l.subst(a, ty), r.subst(a, ty)),
            FType::List(l) => FType::list(l.subst(a, ty)),
            FType::Con(n, args) => FType::Con(*n, args.iter().map(|t| t.subst(a, ty)).collect()),
            FType::VarApp(f, args) => {
                let args2: Vec<FType> = args.iter().map(|t| t.subst(a, ty)).collect();
                if *f == a {
                    match ty {
                        FType::Var(g) => FType::VarApp(*g, args2),
                        FType::Con(n, empty) if empty.is_empty() => FType::Con(*n, args2),
                        FType::Ctor(implicit_core::syntax::TyCon::List) => {
                            assert_eq!(args2.len(), 1, "List takes one argument");
                            FType::list(args2.into_iter().next().expect("len checked"))
                        }
                        FType::Ctor(implicit_core::syntax::TyCon::Named(n)) => {
                            FType::Con(*n, args2)
                        }
                        other => panic!(
                            "ill-kinded System F substitution: applied variable mapped to `{other}`"
                        ),
                    }
                } else {
                    FType::VarApp(*f, args2)
                }
            }
            FType::Ctor(_) => self.clone(),
            FType::Forall(v, b) => {
                if *v == a {
                    self.clone()
                } else if ty.ftv().contains(v) {
                    // Rename the binder apart to avoid capture.
                    let v2 = fresh(base_name(*v));
                    let renamed = b.subst(*v, &FType::Var(v2));
                    FType::Forall(v2, Rc::new(renamed.subst(a, ty)))
                } else {
                    FType::Forall(*v, Rc::new(b.subst(a, ty)))
                }
            }
        }
    }

    /// α-equivalence.
    pub fn alpha_eq(&self, other: &FType) -> bool {
        fn go(a: &FType, b: &FType, env: &mut Vec<(Symbol, Symbol)>) -> bool {
            match (a, b) {
                (FType::Var(x), FType::Var(y)) => {
                    match env.iter().rev().find(|(l, r)| l == x || r == y) {
                        Some((l, r)) => l == x && r == y,
                        None => x == y,
                    }
                }
                (FType::Int, FType::Int)
                | (FType::Bool, FType::Bool)
                | (FType::Str, FType::Str)
                | (FType::Unit, FType::Unit) => true,
                (FType::Arrow(a1, b1), FType::Arrow(a2, b2))
                | (FType::Prod(a1, b1), FType::Prod(a2, b2)) => go(a1, a2, env) && go(b1, b2, env),
                (FType::List(a1), FType::List(a2)) => go(a1, a2, env),
                (FType::Con(n1, a1), FType::Con(n2, a2)) => {
                    n1 == n2
                        && a1.len() == a2.len()
                        && a1.iter().zip(a2).all(|(x, y)| go(x, y, env))
                }
                (FType::VarApp(f1, a1), FType::VarApp(f2, a2)) => {
                    let heads = match env.iter().rev().find(|(l, r)| l == f1 || r == f2) {
                        Some((l, r)) => l == f1 && r == f2,
                        None => f1 == f2,
                    };
                    heads && a1.len() == a2.len() && a1.iter().zip(a2).all(|(x, y)| go(x, y, env))
                }
                (FType::Ctor(c1), FType::Ctor(c2)) => c1 == c2,
                (FType::Ctor(implicit_core::syntax::TyCon::Named(a)), FType::Con(b, bs))
                | (FType::Con(b, bs), FType::Ctor(implicit_core::syntax::TyCon::Named(a)))
                    if bs.is_empty() =>
                {
                    a == b
                }
                (FType::Forall(v1, b1), FType::Forall(v2, b2)) => {
                    env.push((*v1, *v2));
                    let r = go(b1, b2, env);
                    env.pop();
                    r
                }
                _ => false,
            }
        }
        go(self, other, &mut Vec::new())
    }
}

/// A System F expression.
#[derive(Clone, PartialEq, Debug)]
pub enum FExpr {
    /// Integer literal.
    Int(i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// Unit literal.
    Unit,
    /// Term variable.
    Var(Symbol),
    /// `λ(x:T).E`
    Lam(Symbol, FType, Rc<FExpr>),
    /// Application.
    App(Rc<FExpr>, Rc<FExpr>),
    /// `Λα.E`
    TyAbs(Symbol, Rc<FExpr>),
    /// Type application `E T`.
    TyApp(Rc<FExpr>, FType),
    /// Conditional.
    If(Rc<FExpr>, Rc<FExpr>, Rc<FExpr>),
    /// Primitive binary operation.
    BinOp(BinOp, Rc<FExpr>, Rc<FExpr>),
    /// Primitive unary operation.
    UnOp(UnOp, Rc<FExpr>),
    /// Pair introduction.
    Pair(Rc<FExpr>, Rc<FExpr>),
    /// First projection.
    Fst(Rc<FExpr>),
    /// Second projection.
    Snd(Rc<FExpr>),
    /// Empty list at element type.
    Nil(FType),
    /// List cons.
    Cons(Rc<FExpr>, Rc<FExpr>),
    /// List elimination.
    ListCase {
        /// Scrutinee.
        scrut: Rc<FExpr>,
        /// Empty-list branch.
        nil: Rc<FExpr>,
        /// Head binder.
        head: Symbol,
        /// Tail binder.
        tail: Symbol,
        /// Cons branch.
        cons: Rc<FExpr>,
    },
    /// General recursion at function type.
    Fix(Symbol, FType, Rc<FExpr>),
    /// Record construction.
    Make(Symbol, Vec<FType>, Vec<(Symbol, FExpr)>),
    /// Field projection.
    Proj(Rc<FExpr>, Symbol),
    /// Data-constructor application.
    Inject(Symbol, Vec<FType>, Vec<FExpr>),
    /// Data elimination.
    Match(Rc<FExpr>, Vec<FMatchArm>),
}

/// One arm of an [`FExpr::Match`].
#[derive(Clone, PartialEq, Debug)]
pub struct FMatchArm {
    /// Constructor name.
    pub ctor: Symbol,
    /// Binders for the constructor arguments.
    pub binders: Vec<Symbol>,
    /// Arm body.
    pub body: FExpr,
}

impl FExpr {
    /// `λ(x:T).E`
    pub fn lam(x: impl Into<Symbol>, ty: FType, body: FExpr) -> FExpr {
        FExpr::Lam(x.into(), ty, Rc::new(body))
    }

    /// Application.
    pub fn app(f: FExpr, a: FExpr) -> FExpr {
        FExpr::App(Rc::new(f), Rc::new(a))
    }

    /// n-ary application.
    pub fn apps(f: FExpr, args: impl IntoIterator<Item = FExpr>) -> FExpr {
        args.into_iter().fold(f, FExpr::app)
    }

    /// `Λᾱ.E`
    pub fn ty_abs(vars: impl IntoIterator<Item = Symbol>, body: FExpr) -> FExpr {
        let vars: Vec<Symbol> = vars.into_iter().collect();
        vars.into_iter()
            .rev()
            .fold(body, |acc, v| FExpr::TyAbs(v, Rc::new(acc)))
    }

    /// n-ary type application.
    pub fn ty_apps(f: FExpr, tys: impl IntoIterator<Item = FType>) -> FExpr {
        tys.into_iter()
            .fold(f, |acc, t| FExpr::TyApp(Rc::new(acc), t))
    }

    /// Term variable.
    pub fn var(x: impl Into<Symbol>) -> FExpr {
        FExpr::Var(x.into())
    }
}

/// A nominal record (interface) declaration for System F.
#[derive(Clone, PartialEq, Debug)]
pub struct FInterfaceDecl {
    /// Name.
    pub name: Symbol,
    /// Type parameters.
    pub vars: Vec<Symbol>,
    /// Fields.
    pub fields: Vec<(Symbol, FType)>,
}

impl FInterfaceDecl {
    /// Type of `field` at instantiation `args`.
    ///
    /// # Panics
    ///
    /// Panics when `args.len() != self.vars.len()`.
    pub fn field_type(&self, field: Symbol, args: &[FType]) -> Option<FType> {
        assert_eq!(args.len(), self.vars.len(), "interface arity mismatch");
        let (_, t) = self.fields.iter().find(|(u, _)| *u == field)?;
        let mut out = t.clone();
        // Simultaneous substitution via fresh intermediates to avoid
        // clashes between parameters and arguments.
        let temps: Vec<Symbol> = self.vars.iter().map(|v| fresh(base_name(*v))).collect();
        for (v, tmp) in self.vars.iter().zip(&temps) {
            out = out.subst(*v, &FType::Var(*tmp));
        }
        for (tmp, a) in temps.iter().zip(args) {
            out = out.subst(*tmp, a);
        }
        Some(out)
    }
}

/// A System F data-type declaration (mirroring the core calculus).
#[derive(Clone, PartialEq, Debug)]
pub struct FDataDecl {
    /// Type name.
    pub name: Symbol,
    /// Type parameters (kinds are tracked by the core checker; at
    /// the F level substitution handles constructor arguments).
    pub params: Vec<Symbol>,
    /// Constructors with argument types.
    pub ctors: Vec<(Symbol, Vec<FType>)>,
}

impl FDataDecl {
    /// Instantiated argument types of `ctor` at `args`.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.params.len()`.
    pub fn ctor_arg_types(&self, ctor: Symbol, args: &[FType]) -> Option<Vec<FType>> {
        assert_eq!(args.len(), self.params.len(), "data arity mismatch");
        let (_, tys) = self.ctors.iter().find(|(c, _)| *c == ctor)?;
        let temps: Vec<Symbol> = self.params.iter().map(|p| fresh(base_name(*p))).collect();
        Some(
            tys.iter()
                .map(|t| {
                    let mut out = t.clone();
                    for (p, tmp) in self.params.iter().zip(&temps) {
                        out = out.subst(*p, &FType::Var(*tmp));
                    }
                    for (tmp, a) in temps.iter().zip(args) {
                        out = out.subst(*tmp, a);
                    }
                    out
                })
                .collect(),
        )
    }
}

/// Interface and data declaration table.
#[derive(Clone, Default, Debug)]
pub struct FDeclarations {
    interfaces: Vec<FInterfaceDecl>,
    datas: Vec<FDataDecl>,
}

impl FDeclarations {
    /// Empty table.
    pub fn new() -> FDeclarations {
        FDeclarations::default()
    }

    /// Adds a declaration, replacing any previous one with the same
    /// name.
    pub fn declare(&mut self, decl: FInterfaceDecl) {
        self.interfaces.retain(|d| d.name != decl.name);
        self.interfaces.push(decl);
    }

    /// Adds a data declaration, replacing any previous one with the
    /// same name.
    pub fn declare_data(&mut self, decl: FDataDecl) {
        self.datas.retain(|d| d.name != decl.name);
        self.datas.push(decl);
    }

    /// Looks up a declaration.
    pub fn lookup(&self, name: Symbol) -> Option<&FInterfaceDecl> {
        self.interfaces.iter().find(|d| d.name == name)
    }

    /// Looks up a data declaration.
    pub fn lookup_data(&self, name: Symbol) -> Option<&FDataDecl> {
        self.datas.iter().find(|d| d.name == name)
    }

    /// Finds the data type declaring `ctor`.
    pub fn lookup_ctor(&self, ctor: Symbol) -> Option<&FDataDecl> {
        self.datas
            .iter()
            .find(|d| d.ctors.iter().any(|(c, _)| *c == ctor))
    }
}

impl FreeTyVars for FType {
    fn free_ty_vars_into(&self, acc: &mut BTreeSet<Symbol>) {
        self.ftv_into(acc);
    }
}

impl fmt::Display for FType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(t: &FType) -> u8 {
            match t {
                FType::Forall(..) => 0,
                FType::Arrow(..) => 1,
                FType::Prod(..) => 2,
                FType::Con(_, args) if !args.is_empty() => 3,
                FType::VarApp(_, _) => 3,
                _ => 4,
            }
        }
        fn go(t: &FType, min: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let p = prec(t);
            if p < min {
                f.write_str("(")?;
            }
            match t {
                FType::Var(v) => write!(f, "{}", base_name(*v))?,
                FType::Int => f.write_str("Int")?,
                FType::Bool => f.write_str("Bool")?,
                FType::Str => f.write_str("String")?,
                FType::Unit => f.write_str("Unit")?,
                FType::Arrow(a, b) => {
                    go(a, 2, f)?;
                    f.write_str(" -> ")?;
                    go(b, 1, f)?;
                }
                FType::Prod(a, b) => {
                    go(a, 3, f)?;
                    f.write_str(" * ")?;
                    go(b, 3, f)?;
                }
                FType::List(a) => {
                    f.write_str("[")?;
                    go(a, 0, f)?;
                    f.write_str("]")?;
                }
                FType::Con(n, args) => {
                    write!(f, "{n}")?;
                    for a in args {
                        f.write_str(" ")?;
                        go(a, 4, f)?;
                    }
                }
                FType::VarApp(h, args) => {
                    write!(f, "{}", base_name(*h))?;
                    for a in args {
                        f.write_str(" ")?;
                        go(a, 4, f)?;
                    }
                }
                FType::Ctor(c) => write!(f, "{c}")?,
                FType::Forall(v, b) => {
                    write!(f, "forall {}. ", base_name(*v))?;
                    go(b, 0, f)?;
                }
            }
            if p < min {
                f.write_str(")")?;
            }
            Ok(())
        }
        go(self, 0, f)
    }
}

impl fmt::Display for FExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A compact, unambiguous rendering (not meant to be re-parsed).
        match self {
            FExpr::Int(n) => write!(f, "{n}"),
            FExpr::Bool(b) => write!(f, "{b}"),
            FExpr::Str(s) => write!(f, "{s:?}"),
            FExpr::Unit => f.write_str("()"),
            FExpr::Var(x) => write!(f, "{}", base_name(*x)),
            FExpr::Lam(x, t, b) => write!(f, "(\\({}:{t}). {b})", base_name(*x)),
            FExpr::App(g, a) => write!(f, "({g} {a})"),
            FExpr::TyAbs(v, b) => write!(f, "(/\\{}. {b})", base_name(*v)),
            FExpr::TyApp(g, t) => write!(f, "({g} [{t}])"),
            FExpr::If(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            FExpr::BinOp(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            FExpr::UnOp(op, a) => write!(f, "({op:?} {a})"),
            FExpr::Pair(a, b) => write!(f, "({a}, {b})"),
            FExpr::Fst(a) => write!(f, "(fst {a})"),
            FExpr::Snd(a) => write!(f, "(snd {a})"),
            FExpr::Nil(t) => write!(f, "(nil [{t}])"),
            FExpr::Cons(h, t) => write!(f, "({h} :: {t})"),
            FExpr::ListCase {
                scrut,
                nil,
                head,
                tail,
                cons,
            } => write!(
                f,
                "(case {scrut} of nil -> {nil} | {} :: {} -> {cons})",
                base_name(*head),
                base_name(*tail)
            ),
            FExpr::Fix(x, t, b) => write!(f, "(fix {}:{t}. {b})", base_name(*x)),
            FExpr::Make(n, args, fields) => {
                write!(f, "{n}")?;
                if !args.is_empty() {
                    f.write_str(" [")?;
                    for (i, t) in args.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    f.write_str("]")?;
                }
                f.write_str(" { ")?;
                for (i, (u, e)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{u} = {e}")?;
                }
                f.write_str(" }")
            }
            FExpr::Proj(e, u) => write!(f, "({e}.{u})"),
            FExpr::Inject(c, ts, args) => {
                write!(f, "(con {c}")?;
                if !ts.is_empty() {
                    f.write_str(" [")?;
                    for (i, t) in ts.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    f.write_str("]")?;
                }
                f.write_str(" (")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str("))")
            }
            FExpr::Match(scrut, arms) => {
                write!(f, "(match {scrut} {{ ")?;
                for (i, arm) in arms.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" | ")?;
                    }
                    write!(f, "{}", arm.ctor)?;
                    for b in &arm.binders {
                        write!(f, " {}", base_name(*b))?;
                    }
                    write!(f, " -> {}", arm.body)?;
                }
                f.write_str(" })")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn forall_folds_right() {
        let t = FType::forall([v("a"), v("b")], FType::Var(v("a")));
        match t {
            FType::Forall(a, inner) => {
                assert_eq!(a, v("a"));
                assert!(matches!(&*inner, FType::Forall(b, _) if *b == v("b")));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrows_fold_right() {
        let t = FType::arrows([FType::Int, FType::Bool], FType::Str);
        assert_eq!(
            t,
            FType::arrow(FType::Int, FType::arrow(FType::Bool, FType::Str))
        );
    }

    #[test]
    fn subst_avoids_capture() {
        // [b ↦ a](∀a. b → a) must rename the binder.
        let t = FType::Forall(
            v("a"),
            Rc::new(FType::arrow(FType::Var(v("b")), FType::Var(v("a")))),
        );
        let out = t.subst(v("b"), &FType::Var(v("a")));
        match &out {
            FType::Forall(binder, body) => {
                assert_ne!(*binder, v("a"));
                match &**body {
                    FType::Arrow(dom, _) => assert_eq!(**dom, FType::Var(v("a"))),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(out.ftv().contains(&v("a")));
    }

    #[test]
    fn alpha_eq_ignores_binder_names() {
        let t1 = FType::Forall(v("a"), Rc::new(FType::Var(v("a"))));
        let t2 = FType::Forall(v("b"), Rc::new(FType::Var(v("b"))));
        assert!(t1.alpha_eq(&t2));
        let t3 = FType::Forall(v("a"), Rc::new(FType::Var(v("c"))));
        assert!(!t1.alpha_eq(&t3));
    }

    #[test]
    fn alpha_eq_distinguishes_quantifier_structure() {
        let t1 = FType::forall(
            [v("a"), v("b")],
            FType::arrow(FType::Var(v("a")), FType::Var(v("b"))),
        );
        let t2 = FType::forall(
            [v("a"), v("b")],
            FType::arrow(FType::Var(v("b")), FType::Var(v("a"))),
        );
        assert!(!t1.alpha_eq(&t2));
    }

    #[test]
    fn field_types_instantiate_simultaneously() {
        // interface Swap a b = { get : b → a } at (b, a): must swap
        // without interference.
        let d = FInterfaceDecl {
            name: v("Swap"),
            vars: vec![v("a"), v("b")],
            fields: vec![(
                v("get"),
                FType::arrow(FType::Var(v("b")), FType::Var(v("a"))),
            )],
        };
        let t = d
            .field_type(v("get"), &[FType::Var(v("b")), FType::Var(v("a"))])
            .unwrap();
        assert_eq!(t, FType::arrow(FType::Var(v("a")), FType::Var(v("b"))));
    }

    #[test]
    fn display_is_reasonable() {
        let t = FType::forall(
            [v("a")],
            FType::arrow(FType::Var(v("a")), FType::Var(v("a"))),
        );
        assert_eq!(t.to_string(), "forall a. a -> a");
        let e = FExpr::ty_abs(
            [v("a")],
            FExpr::lam("x", FType::Var(v("a")), FExpr::var("x")),
        );
        assert_eq!(e.to_string(), "(/\\a. (\\(x:a). x))");
    }
}
