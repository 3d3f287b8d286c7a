//! The Shannon (polymatroid) cone `Γ_n` and its elemental inequalities.
//!
//! A function `h : 2^V → ℝ_+` with `h(∅) = 0` is a *polymatroid* when it is
//! monotone and submodular (Eq. 5).  The set `Γ_n` of polymatroids is a
//! polyhedral cone, generated (in its dual description) by the *elemental*
//! Shannon inequalities:
//!
//! * monotonicity: `h(V) − h(V ∖ {i}) ≥ 0` for every variable `i`;
//! * submodularity: `h(X ∪ {i}) + h(X ∪ {j}) − h(X ∪ {i,j}) − h(X) ≥ 0`
//!   for all `i < j` and all `X ⊆ V ∖ {i, j}`.
//!
//! Every Shannon inequality is a non-negative combination of these, which is
//! exactly what the LP-based validity checker in `bqc-iip` relies on.

use crate::setfn::{all_masks, Mask, SetFunction};
use bqc_arith::Rational;

/// Compact identifier of one elemental inequality of `Γ_n`.
///
/// The constraint it denotes is recovered with [`ElementalId::terms`]; no
/// label or coefficient vector is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElementalId {
    /// Monotonicity at the top: `h(V) − h(V ∖ {i}) ≥ 0`.
    Monotone {
        /// The dropped variable `i`.
        i: usize,
    },
    /// Elemental submodularity
    /// `h(X∪{i}) + h(X∪{j}) − h(X∪{i,j}) − h(X) ≥ 0` with `i < j` and
    /// `X ⊆ V ∖ {i, j}`.
    Submodular {
        /// First variable of the pair.
        i: usize,
        /// Second variable of the pair (`i < j`).
        j: usize,
        /// The context set `X`, disjoint from `{i, j}`.
        context: Mask,
    },
}

impl ElementalId {
    /// The sparse terms `Σ coeff·h(mask) ≥ 0` of this inequality, as a fixed
    /// array plus its occupied length (allocation-free).  A term with mask 0
    /// refers to `h(∅) = 0` and may be dropped by LP builders.
    pub fn terms(&self, n: usize) -> ([(Mask, i64); 4], usize) {
        match *self {
            ElementalId::Monotone { i } => {
                let full: Mask = ((1u64 << n) - 1) as Mask;
                ([(full, 1), (full & !(1 << i), -1), (0, 0), (0, 0)], 2)
            }
            ElementalId::Submodular { i, j, context } => {
                let xi = context | (1 << i);
                let xj = context | (1 << j);
                let xij = xi | xj;
                ([(xi, 1), (xj, 1), (xij, -1), (context, -1)], 4)
            }
        }
    }

    /// A human-readable label, synthesized on demand (matching the labels of
    /// [`elemental_inequalities`]).
    pub fn label(&self) -> String {
        match *self {
            ElementalId::Monotone { i } => format!("mono({i})"),
            ElementalId::Submodular { i, j, context } => format!("submod({i},{j}|{context:b})"),
        }
    }
}

/// Enumerates the elemental inequalities of `Γ_n` as compact ids, in the
/// canonical order (monotonicity first, then submodularity by `(i, j)` and
/// ascending context mask) — without allocating labels or term vectors.
pub fn elemental_ids(n: usize) -> impl Iterator<Item = ElementalId> {
    let mono = (0..n).map(|i| ElementalId::Monotone { i });
    let submod = (0..n).flat_map(move |i| {
        ((i + 1)..n).flat_map(move |j| {
            all_masks(n).filter_map(move |context| {
                (context & (1 << i) == 0 && context & (1 << j) == 0)
                    .then_some(ElementalId::Submodular { i, j, context })
            })
        })
    });
    mono.chain(submod)
}

/// A single linear constraint `Σ coeff·h(mask) ≥ 0` in sparse form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElementalInequality {
    /// Sparse list of `(subset mask, coefficient)` pairs.
    pub terms: Vec<(Mask, Rational)>,
    /// Human-readable description.
    pub label: String,
}

impl ElementalInequality {
    /// Evaluates the constraint's left-hand side on a set function.
    pub fn evaluate(&self, h: &SetFunction) -> Rational {
        let mut acc = Rational::zero();
        for (mask, coeff) in &self.terms {
            acc += coeff * h.value(*mask);
        }
        acc
    }
}

/// Generates the elemental Shannon inequalities for an `n`-variable universe,
/// with labels and exact coefficients materialized.
///
/// The count is `n + C(n,2)·2^{n−2}` for `n ≥ 2` (plus just the `n`
/// monotonicity constraints for `n ≤ 1`).  Hot paths that only need the
/// constraint *structure* should iterate the allocation-free
/// [`elemental_ids`] instead — this function is a thin
/// materialization of that enumeration and shares its canonical order.
pub fn elemental_inequalities(n: usize) -> Vec<ElementalInequality> {
    elemental_ids(n)
        .map(|id| {
            let (terms, len) = id.terms(n);
            ElementalInequality {
                terms: terms[..len]
                    .iter()
                    .map(|(mask, coeff)| (*mask, Rational::from_integer(*coeff)))
                    .collect(),
                label: id.label(),
            }
        })
        .collect()
}

/// Expected number of elemental inequalities for `n` variables.
pub fn elemental_count(n: usize) -> usize {
    if n < 2 {
        n
    } else {
        n + n * (n - 1) / 2 * (1 << (n - 2))
    }
}

/// Checks whether an exact set function is a polymatroid (monotone,
/// submodular, `h(∅) = 0`, non-negative).
pub fn is_polymatroid(h: &SetFunction) -> bool {
    if !h.value(0).is_zero() {
        return false;
    }
    // Non-negativity and monotonicity follow from the elemental inequalities
    // plus h(∅) = 0, but checking monotonicity for every pair (X, X∪{i}) keeps
    // the predicate meaningful on its own.
    let n = h.num_vars();
    for x in all_masks(n) {
        for i in 0..n {
            if x & (1 << i) == 0 && h.value(x | (1 << i)) < h.value(x) {
                return false;
            }
        }
    }
    elemental_inequalities(n)
        .iter()
        .all(|c| !c.evaluate(h).is_negative())
}

/// Checks whether a set function is modular:
/// `h(X ∪ Y) + h(X ∩ Y) = h(X) + h(Y)` for all `X, Y` — equivalently
/// `h(X) = Σ_{i ∈ X} h({i})`.
pub fn is_modular(h: &SetFunction) -> bool {
    let n = h.num_vars();
    for x in all_masks(n) {
        let mut sum = Rational::zero();
        for i in 0..n {
            if x & (1 << i) != 0 {
                sum += h.value(1 << i);
            }
        }
        if &sum != h.value(x) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::{int, ratio};

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parity() -> SetFunction {
        SetFunction::from_values(
            names(&["X", "Y", "Z"]),
            vec![
                int(0),
                int(1),
                int(1),
                int(2),
                int(1),
                int(2),
                int(2),
                int(2),
            ],
        )
    }

    #[test]
    fn constraint_counts() {
        assert_eq!(elemental_inequalities(1).len(), elemental_count(1));
        assert_eq!(elemental_inequalities(2).len(), elemental_count(2));
        assert_eq!(elemental_inequalities(3).len(), elemental_count(3));
        assert_eq!(elemental_inequalities(4).len(), elemental_count(4));
        assert_eq!(elemental_count(3), 3 + 3 * 2);
        assert_eq!(elemental_count(4), 4 + 6 * 4);
    }

    #[test]
    fn parity_is_a_polymatroid() {
        assert!(is_polymatroid(&parity()));
        assert!(!is_modular(&parity()));
    }

    #[test]
    fn independent_bits_are_modular() {
        let h = SetFunction::from_values(names(&["X", "Y"]), vec![int(0), int(1), int(2), int(3)]);
        assert!(is_polymatroid(&h));
        assert!(is_modular(&h));
    }

    #[test]
    fn violations_are_detected() {
        // Non-monotone.
        let h = SetFunction::from_values(names(&["X", "Y"]), vec![int(0), int(2), int(1), int(1)]);
        assert!(!is_polymatroid(&h));
        // Supermodular (violates submodularity): h(X)=h(Y)=1, h(XY)=3.
        let h = SetFunction::from_values(names(&["X", "Y"]), vec![int(0), int(1), int(1), int(3)]);
        assert!(!is_polymatroid(&h));
        assert!(!is_modular(&h));
    }

    #[test]
    fn elemental_evaluation() {
        let h = parity();
        for c in elemental_inequalities(3) {
            assert!(
                !c.evaluate(&h).is_negative(),
                "constraint {} violated",
                c.label
            );
        }
    }

    #[test]
    fn fractional_polymatroid() {
        // h(X) = h(Y) = 1/2, h(XY) = 3/4: submodular and monotone.
        let h = SetFunction::from_values(
            names(&["X", "Y"]),
            vec![int(0), ratio(1, 2), ratio(1, 2), ratio(3, 4)],
        );
        assert!(is_polymatroid(&h));
        assert!(!is_modular(&h));
    }

    #[test]
    fn ids_enumerate_exactly_the_elemental_inequalities() {
        for n in 0..=5 {
            let ids: Vec<ElementalId> = elemental_ids(n).collect();
            let eager = elemental_inequalities(n);
            assert_eq!(ids.len(), eager.len(), "count for n = {n}");
            for (id, constraint) in ids.iter().zip(&eager) {
                assert_eq!(id.label(), constraint.label, "label for n = {n}");
                let (terms, len) = id.terms(n);
                let sparse: Vec<(Mask, i64)> = terms[..len]
                    .iter()
                    .copied()
                    .filter(|(_, c)| *c != 0)
                    .collect();
                let eager_terms: Vec<(Mask, i64)> = constraint
                    .terms
                    .iter()
                    .map(|(mask, coeff)| (*mask, if coeff == &Rational::one() { 1 } else { -1 }))
                    .collect();
                assert_eq!(sparse, eager_terms, "terms of {}", id.label());
            }
        }
    }
}
