//! The shared mutable state a [`DecisionPipeline`](crate::pipeline::DecisionPipeline)
//! threads through its stages.
//!
//! Each stage reads what earlier stages established and enriches the state
//! for later ones: the Boolean reduction replaces the query pair, the
//! hom-existence screen stores the homomorphisms, the junction-tree stage
//! stores the decomposition, the Eq. (8) inequality, and the decidable-class
//! verdict, and the Shannon-cone LP stores its violating polymatroid for the
//! witness stage.  All fields are public so that custom
//! [`DecisionStage`](crate::pipeline::DecisionStage) implementations can
//! participate.

use crate::containment::QueryHomomorphism;
use crate::decide::DecideOptions;
use bqc_entropy::SetFunction;
use bqc_hypergraph::TreeDecomposition;
use bqc_iip::MaxInequality;
use bqc_obs::Budget;
use bqc_relational::ConjunctiveQuery;

use super::refuter::CountRefutation;
use crate::decide::Obstruction;

/// Mutable pipeline state, created fresh for every decision.
pub struct PipelineState<'a> {
    /// Decision options (witness budget, refuter switch, …).
    pub options: &'a DecideOptions,
    /// The running resource budget, started from
    /// [`DecideOptions::budget`](crate::DecideOptions::budget) when the
    /// pipeline began.  Stages charge their work against it and convert an
    /// exhaustion into a decided `Unknown` (see
    /// [`budget_exhausted_result`](super::budget_exhausted_result)).
    pub budget: Budget,
    /// The contained-candidate query; replaced by its Boolean reduction by
    /// the first stage.
    pub q1: ConjunctiveQuery,
    /// The containing-candidate query; replaced by its Boolean reduction by
    /// the first stage.
    pub q2: ConjunctiveQuery,
    /// `hom(Q2, Q1)`, stored by the hom-existence screen (non-empty when
    /// that stage continued).
    pub homomorphisms: Option<Vec<QueryHomomorphism>>,
    /// The tree decomposition of `Q2` the inequality is built over: a real
    /// junction tree when `Q2` is chordal, otherwise the trivial single-bag
    /// decomposition.
    pub decomposition: Option<TreeDecomposition>,
    /// `true` when [`decomposition`](Self::decomposition) is the single-bag
    /// fallback (non-chordal `Q2`).
    pub single_bag_fallback: bool,
    /// The Eq. (8) containment inequality, built by the junction-tree stage.
    pub inequality: Option<MaxInequality>,
    /// Whether the instance is inside the decidable class of Theorem 3.1
    /// (`Q2` chordal, junction tree simple, composed expressions simple).
    pub decidable: bool,
    /// What keeps the instance out of the decidable class, when something
    /// does.
    pub obstruction: Option<Obstruction>,
    /// The violating polymatroid of the Γ_n check, stored by the LP stage
    /// when the inequality fails inside the decidable class.
    pub counterexample: Option<SetFunction>,
    /// The counting refuter's separation, when it fired (kept for
    /// diagnostics; the stage decides immediately).
    pub refutation: Option<CountRefutation>,
}

impl<'a> PipelineState<'a> {
    /// Initial state for a decision of `q1 ⊑ q2`.
    pub fn new(
        q1: &ConjunctiveQuery,
        q2: &ConjunctiveQuery,
        options: &'a DecideOptions,
    ) -> PipelineState<'a> {
        PipelineState {
            options,
            budget: options.budget.start(),
            q1: q1.clone(),
            q2: q2.clone(),
            homomorphisms: None,
            decomposition: None,
            single_bag_fallback: false,
            inequality: None,
            decidable: false,
            obstruction: None,
            counterexample: None,
            refutation: None,
        }
    }
}
