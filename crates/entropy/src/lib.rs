//! # bqc-entropy — information-theory substrate
//!
//! Entropic functions, polymatroids, Shannon inequalities and the special
//! classes of set functions that drive *Bag Query Containment and Information
//! Theory* (PODS 2020):
//!
//! * [`SetFunction`] — exact set functions `h : 2^V → ℚ` with conditional
//!   entropy, conditional mutual information and the Möbius inverse / I-measure
//!   of Appendix B;
//! * [`shannon`] — the elemental inequalities generating the polymatroid cone
//!   `Γ_n` (materialized, or as compact [`ElementalId`]s), plus polymatroid /
//!   modular membership tests;
//! * [`stepfn`] — step functions `h_W`, modular functions (`M_n`) and normal
//!   functions (`N_n`), with the Möbius-inverse-based decomposition of
//!   Fact B.7;
//! * [mod@normalize] — the constructive Lemma 3.7: dominate any polymatroid from
//!   below by a modular function (preserving `h(V)`) or a normal function
//!   (preserving `h(V)` and all singletons);
//! * [`expr`] — linear and conditional linear expressions of entropic terms,
//!   with composition `E ∘ φ` and the *simple* / *unconditioned*
//!   classification of Theorem 3.6;
//! * [`relation`] — entropies of relations (uniform distribution on the
//!   support), the parity relation of Example B.4, GF(2) group-characterizable
//!   relations, and the normal-function → normal-relation materialization used
//!   by the witness extractor.
//!
//! The chain `M_n ⊆ N_n ⊆ Γ*_n ⊆ Γ_n` (Section 3.2) is mirrored directly in
//! the API: [`shannon::is_modular`] ⊆ [`stepfn::is_normal`] ⊆ entropic (not
//! decidable — witnessed only by explicit relations) ⊆
//! [`shannon::is_polymatroid`].

pub mod expr;
pub mod lee;
pub mod normalize;
pub mod relation;
pub mod setfn;
pub mod shannon;
pub mod stepfn;

pub use expr::{varset, ConditionalExpr, EntropyExpr, VarSet};
pub use lee::{functional_dependency_holds, lossless_join_holds, multivalued_dependency_holds};
pub use normalize::{max_construction, modularize, normalize};
pub use relation::{
    entropy_deviation, gf2_group_relation, normal_relation_from_function, parity_relation,
    relation_entropy, totally_uniform_entropy,
};
pub use setfn::{all_masks, mask_len, mask_subset, Mask, RealSetFunction, SetFunction};
pub use shannon::{
    elemental_count, elemental_ids, elemental_inequalities, is_modular, is_polymatroid,
    ElementalId, ElementalInequality,
};
pub use stepfn::{is_normal, modular_function, step_function, NormalFunction};

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_arith::int;

    /// The inclusion chain M_n ⊆ N_n ⊆ Γ_n on a few representatives.
    #[test]
    fn inclusion_chain() {
        let vars = vec!["X".to_string(), "Y".to_string(), "Z".to_string()];
        let modular = modular_function(vars.clone(), &[int(1), int(2), int(3)]);
        assert!(is_modular(&modular) && is_normal(&modular) && is_polymatroid(&modular));

        // Step at W = {X}: two variables outside W, so not modular.
        let step = step_function(vars.clone(), 0b001);
        assert!(!is_modular(&step) && is_normal(&step) && is_polymatroid(&step));

        let parity = relation_entropy(&parity_relation(["X", "Y", "Z"]));
        assert!(parity.is_approx_polymatroid(1e-9));
        // The exact parity function is a polymatroid but not normal.
        let exact_parity = SetFunction::from_values(
            vars,
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
        );
        assert!(!is_normal(&exact_parity) && is_polymatroid(&exact_parity));
    }
}
