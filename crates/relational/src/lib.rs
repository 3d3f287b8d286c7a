#![warn(missing_docs)]

//! # bqc-relational — relational substrate
//!
//! Conjunctive queries, relational structures (database instances),
//! homomorphism counting, bag-set semantics, V-relations and the witness
//! machinery used throughout the reproduction of *Bag Query Containment and
//! Information Theory* (PODS 2020).
//!
//! The paper studies the containment problem `Q1 ⊑ Q2` under **bag-set
//! semantics**: for every database `D` and every head tuple `d`, the number of
//! homomorphisms of `Q1` agreeing with `d` must not exceed that of `Q2`.  This
//! crate provides all the raw material for that problem:
//!
//! * [`ConjunctiveQuery`] / [`Atom`] — queries with repeated variables and
//!   arbitrary arities, the Boolean reduction of Lemma A.1, canonical
//!   structures, powers (`n·Q`) and Gaifman graphs;
//! * [`Structure`] — database instances over a [`Vocabulary`], disjoint copies
//!   and structure homomorphisms (the DOM problem of Section 2.1);
//! * [`hom`] — homomorphism enumeration / counting and bag-set evaluation;
//! * [`VRelation`] — relations over a query's variable set, the induced
//!   database `Π_{Q1}(P)` of Eq. (4), product / normal / step relations
//!   (Definition 3.3), domain products (Definition B.1) and total uniformity
//!   (Definition 4.5);
//! * [`parser`] — a small Datalog-ish text format for queries and instances.
//!
//! ## Quick example
//!
//! ```
//! use bqc_relational::parser::{parse_query, parse_structure};
//! use bqc_relational::hom::count_homomorphisms;
//!
//! let triangle = parse_query("Q() :- R(x,y), R(y,z), R(z,x)").unwrap();
//! let two_star = parse_query("Q() :- R(u,v), R(u,w)").unwrap();
//! let db = parse_structure("R(1,2). R(2,3). R(3,1).").unwrap();
//! assert_eq!(count_homomorphisms(&triangle, &db), 3);
//! assert_eq!(count_homomorphisms(&two_star, &db), 3);
//! ```

pub mod hom;
pub mod parser;
pub mod query;
pub mod schema;
pub mod structure;
pub mod value;
pub mod vrelation;

pub use hom::{
    bag_set_answer, count_homomorphisms, count_homomorphisms_budgeted, count_homomorphisms_up_to,
    count_structure_homomorphisms, enumerate_homomorphisms, enumerate_homomorphisms_budgeted,
    for_each_homomorphism, for_each_homomorphism_budgeted, structure_to_query, Assignment,
};
pub use parser::{parse_query, parse_structure, ParseError};
pub use query::{Atom, ConjunctiveQuery, QueryError, Var};
pub use schema::{RelationSymbol, Vocabulary};
pub use structure::Structure;
pub use value::{Tuple, Value};
pub use vrelation::VRelation;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke_test() {
        let q1 = parse_query("Q1() :- R(x,y), R(y,x)").unwrap();
        let q2 = parse_query("Q2() :- R(u,v)").unwrap();
        let db = parse_structure("R(1,2). R(2,1). R(3,3).").unwrap();
        // Q1 counts 2-cycles (including the self loop), Q2 counts edges.
        assert_eq!(count_homomorphisms(&q1, &db), 3);
        assert_eq!(count_homomorphisms(&q2, &db), 3);
    }
}
