//! Term environments Γ that summarize their free type variables.
//!
//! Two side conditions ask whether one type variable is free in the
//! types of a term environment: TyRule renames rule binders apart from
//! `ftv(Γ)` ([`crate::typeck::BinderScope`]), and System F's TAbs
//! requires `α ∉ ftv(Γ)`. A warm session checks every program under
//! the same prelude environment, so walking all of its binders at every
//! rule or type abstraction makes a program's cost grow with the
//! prelude. A [`Gamma`] keeps the union of its binders' free type
//! variables next to the binders, grown one binding at a time, and
//! answers the question with one set probe.

use std::collections::BTreeSet;
use std::ops::Deref;

use crate::symbol::Symbol;
use crate::syntax::{TyVar, Type};

/// Types that can report their free type variables.
pub trait FreeTyVars {
    /// Adds the free type variables of `self` to `acc`.
    fn free_ty_vars_into(&self, acc: &mut BTreeSet<TyVar>);
}

impl FreeTyVars for Type {
    fn free_ty_vars_into(&self, acc: &mut BTreeSet<TyVar>) {
        self.ftv_into(acc);
    }
}

/// The free type variables of every binder's type in `binders`.
pub fn free_ty_vars<T: FreeTyVars>(binders: &[(Symbol, T)]) -> BTreeSet<TyVar> {
    let mut acc = BTreeSet::new();
    for (_, t) in binders {
        t.free_ty_vars_into(&mut acc);
    }
    acc
}

/// A term environment, outermost binder first, together with the free
/// type variables of its binders' types.
///
/// It only grows: it is the long-lived base environment of a session,
/// and the binders a checker pushes and pops on its way down live in a
/// separate stack above it.
///
/// # Examples
///
/// ```
/// use implicit_core::gamma::Gamma;
/// use implicit_core::symbol::Symbol;
/// use implicit_core::syntax::Type;
///
/// let a = Symbol::intern("a");
/// let mut gamma = Gamma::new();
/// gamma.push((Symbol::intern("n"), Type::Int));
/// assert!(!gamma.binds_free(a));
/// gamma.push((Symbol::intern("x"), Type::list(Type::var(a))));
/// assert!(gamma.binds_free(a));
/// assert_eq!(gamma.len(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Gamma<T> {
    binders: Vec<(Symbol, T)>,
    free: BTreeSet<TyVar>,
}

impl<T> Default for Gamma<T> {
    fn default() -> Gamma<T> {
        Gamma {
            binders: Vec::new(),
            free: BTreeSet::new(),
        }
    }
}

impl<T: FreeTyVars> Gamma<T> {
    /// The empty environment.
    pub fn new() -> Gamma<T> {
        Gamma::default()
    }

    /// Adds a binder as the new innermost one.
    pub fn push(&mut self, binder: (Symbol, T)) {
        binder.1.free_ty_vars_into(&mut self.free);
        self.binders.push(binder);
    }

    /// Whether `v` is free in some binder's type (`v ∈ ftv(Γ)`).
    pub fn binds_free(&self, v: TyVar) -> bool {
        self.free.contains(&v)
    }

    /// The free type variables of all binders' types.
    pub fn free(&self) -> &BTreeSet<TyVar> {
        &self.free
    }
}

impl<T> Deref for Gamma<T> {
    type Target = [(Symbol, T)];

    fn deref(&self) -> &[(Symbol, T)] {
        &self.binders
    }
}

impl<'g, T> IntoIterator for &'g Gamma<T> {
    type Item = &'g (Symbol, T);
    type IntoIter = std::slice::Iter<'g, (Symbol, T)>;

    fn into_iter(self) -> Self::IntoIter {
        self.binders.iter()
    }
}

impl<T: FreeTyVars> Extend<(Symbol, T)> for Gamma<T> {
    fn extend<I: IntoIterator<Item = (Symbol, T)>>(&mut self, iter: I) {
        for binder in iter {
            self.push(binder);
        }
    }
}

impl<T: FreeTyVars> FromIterator<(Symbol, T)> for Gamma<T> {
    fn from_iter<I: IntoIterator<Item = (Symbol, T)>>(iter: I) -> Gamma<T> {
        let mut gamma = Gamma::new();
        gamma.extend(iter);
        gamma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_summary_follows_every_push() {
        let a = Symbol::intern("gamma_a");
        let b = Symbol::intern("gamma_b");
        let gamma: Gamma<Type> = vec![
            (Symbol::intern("x"), Type::arrow(Type::var(a), Type::Int)),
            (Symbol::intern("y"), Type::Bool),
        ]
        .into_iter()
        .collect();
        assert!(gamma.binds_free(a));
        assert!(!gamma.binds_free(b));
        assert_eq!(gamma.free(), &free_ty_vars(&gamma));
    }
}
