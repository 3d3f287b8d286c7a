//! Workload generators shared by the benchmark harness.
//!
//! The paper has no empirical tables (it is a PODS theory paper), so the
//! benchmark suite regenerates the *algorithmic* experiments catalogued in
//! EXPERIMENTS.md: scaling of the Theorem 3.1 decision procedure, of the
//! Shannon-cone LP prover, of homomorphism counting (backtracking vs.
//! junction-tree DP), of the exact simplex, of witness extraction, and of the
//! Lemma 3.7 normalization.  This crate holds the deterministic workload
//! generators those benchmarks (and some stress tests) share.

use bqc_arith::{int, Rational};
use bqc_entropy::{all_masks, SetFunction};
use bqc_relational::{Atom, ConjunctiveQuery, Structure, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod families;
pub mod fuzz;
pub mod report;

/// A directed cycle `R(0,1), R(1,2), …, R(n−1,0)` as a Boolean query.
pub fn cycle_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 2);
    let atoms = (0..n)
        .map(|i| Atom::new("R", [format!("x{i}"), format!("x{}", (i + 1) % n)]))
        .collect();
    ConjunctiveQuery::boolean(format!("cycle{n}"), atoms).expect("valid cycle query")
}

/// A directed path `R(0,1), …, R(n−1,n)` as a Boolean query (acyclic, chordal,
/// simple junction tree).
pub fn path_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 1);
    let atoms = (0..n)
        .map(|i| Atom::new("R", [format!("y{i}"), format!("y{}", i + 1)]))
        .collect();
    ConjunctiveQuery::boolean(format!("path{n}"), atoms).expect("valid path query")
}

/// An out-star `R(c,1), …, R(c,n)` as a Boolean query.
pub fn star_query(n: usize) -> ConjunctiveQuery {
    assert!(n >= 1);
    let atoms = (0..n)
        .map(|i| Atom::new("R", ["c".to_string(), format!("l{i}")]))
        .collect();
    ConjunctiveQuery::boolean(format!("star{n}"), atoms).expect("valid star query")
}

/// A random directed graph database with `vertices` vertices and `edges`
/// (not necessarily distinct) edges, deterministic in `seed`.
pub fn random_graph(vertices: usize, edges: usize, seed: u64) -> Structure {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Structure::empty();
    for _ in 0..edges {
        let a = rng.gen_range(0..vertices);
        let b = rng.gen_range(0..vertices);
        db.add_fact("R", vec![Value::int(a as i64), Value::int(b as i64)]);
    }
    db
}

/// An isomorphic copy of `query`: variables renamed by a random permutation
/// (to fresh `p{i}` names) and atoms shuffled, deterministic in `seed`.
///
/// The result is canonically equal to `query` — exactly the kind of repeat a
/// containment-serving engine must recognize — while sharing no variable
/// names and no atom order with it.
pub fn rename_shuffle(query: &ConjunctiveQuery, seed: u64) -> ConjunctiveQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let vars = query.vars();
    // Random permutation of 0..n decides which fresh name each variable gets.
    let mut perm: Vec<usize> = (0..vars.len()).collect();
    shuffle(&mut perm, &mut rng);
    let rename = |v: &str| {
        let i = vars.iter().position(|w| w == v).expect("var in vars()");
        format!("p{}", perm[i])
    };
    let head: Vec<String> = query.head().iter().map(|v| rename(v)).collect();
    let mut atoms: Vec<Atom> = query
        .atoms()
        .iter()
        .map(|a| Atom::new(a.relation.clone(), a.args.iter().map(|v| rename(v))))
        .collect();
    shuffle(&mut atoms, &mut rng);
    ConjunctiveQuery::new(query.name.clone(), head, atoms)
        .expect("renaming and reordering preserve validity")
}

/// A batch-engine workload: each base containment question appears `repeats`
/// times, every occurrence as a differently renamed and reordered isomorphic
/// copy, with the whole request list shuffled.  Deterministic in `seed`.
///
/// The base questions cover the decision procedure's branches on small
/// queries (Shannon-valid containment, refuted containment, the
/// no-homomorphism shortcut), so the workload exercises both the LP path and
/// the cache/dedup machinery of the engine.
pub fn engine_workload(repeats: usize, seed: u64) -> Vec<(ConjunctiveQuery, ConjunctiveQuery)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let base: Vec<(ConjunctiveQuery, ConjunctiveQuery)> = vec![
        // Example 4.3: triangle ⊑ 2-out-star (the LP-valid direction).
        (cycle_query(3), star_query(2)),
        // The refuted reverse direction.
        (star_query(2), cycle_query(3)),
        // Paths in both directions (chordal, simple junction trees).
        (path_query(3), path_query(2)),
        (path_query(2), path_query(3)),
        // Stars against stars: dropping a leaf keeps containment.
        (star_query(3), star_query(2)),
    ];
    let mut workload = Vec::with_capacity(base.len() * repeats);
    for (i, (q1, q2)) in base.iter().enumerate() {
        for r in 0..repeats {
            let variant_seed = seed
                .wrapping_mul(0x1000_0000_01b3)
                .wrapping_add((i * repeats + r) as u64);
            workload.push((
                rename_shuffle(q1, variant_seed),
                rename_shuffle(q2, variant_seed.wrapping_add(0x5bd1_e995)),
            ));
        }
    }
    shuffle(&mut workload, &mut rng);
    workload
}

/// Example 3.5's contained-candidate generalized to `m` parallel-edge
/// blocks: `A(x{i},y{i}), B(x{i},y{i}), C(x{i},y{i})` for `i < m`, all
/// blocks variable-disjoint.  For every `m ≥ 2` the pair
/// `(parallel_blocks_query(m), spread_query())` is **not** contained, the
/// instance is inside the decidable class of Theorem 3.1, and the counting
/// refuter separates it on the canonical database of `Q1` (`m^m` vs `m`
/// homomorphisms) — while the LP-only path must refute a `Γ_{2m}` program.
pub fn parallel_blocks_query(m: usize) -> ConjunctiveQuery {
    assert!(m >= 1);
    let mut atoms = Vec::with_capacity(3 * m);
    for i in 0..m {
        for relation in ["A", "B", "C"] {
            atoms.push(Atom::new(relation, [format!("x{i}"), format!("y{i}")]));
        }
    }
    ConjunctiveQuery::boolean(format!("blocks{m}"), atoms).expect("valid blocks query")
}

/// Example 3.5's containing query `A(y1,y2), B(y1,y3), C(y4,y2)` (chordal,
/// simple junction tree).
pub fn spread_query() -> ConjunctiveQuery {
    ConjunctiveQuery::boolean(
        "spread",
        vec![
            Atom::new("A", ["y1", "y2"]),
            Atom::new("B", ["y1", "y3"]),
            Atom::new("C", ["y4", "y2"]),
        ],
    )
    .expect("valid spread query")
}

/// A batch-engine workload exercising **every** pipeline stage outcome: the
/// base questions below are decided by, respectively, the Shannon-cone LP
/// (both pairs of Example 4.3), the hom-existence screen, the
/// canonical-identity shortcut (isomorphic copies canonicalize to the same
/// representative), the counting refuter (on the canonical database and on
/// the random family), and the single-bag Theorem 4.2 check for a
/// non-chordal containing query.  Each question appears `repeats` times as a
/// differently renamed/reordered copy, shuffled; deterministic in `seed`.
pub fn stage_mix_workload(repeats: usize, seed: u64) -> Vec<(ConjunctiveQuery, ConjunctiveQuery)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51f1_77e5);
    let square = cycle_query(4);
    let chorded = {
        let mut atoms = cycle_query(4).atoms().to_vec();
        atoms.push(Atom::new("R", ["x0", "x2"]));
        ConjunctiveQuery::boolean("chorded4", atoms).expect("valid chorded cycle")
    };
    let base: Vec<(ConjunctiveQuery, ConjunctiveQuery)> = vec![
        // shannon-lp, contained (Example 4.3) and hom-existence, refuted.
        (cycle_query(3), star_query(2)),
        (star_query(2), cycle_query(3)),
        // identity-shortcut (through the engine: isomorphic copies share one
        // canonical representative).
        (path_query(3), path_query(3)),
        // counting-refuter on the canonical database (Example 3.5)…
        (parallel_blocks_query(2), spread_query()),
        // …and on the random-structure family (5-cycle ⋢ 2-star).
        (cycle_query(5), star_query(2)),
        // Non-chordal containing query, contained via the single-bag check.
        (chorded, square),
    ];
    let mut workload = Vec::with_capacity(base.len() * repeats);
    for (i, (q1, q2)) in base.iter().enumerate() {
        for r in 0..repeats {
            let variant_seed = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((i * repeats + r) as u64);
            workload.push((
                rename_shuffle(q1, variant_seed),
                rename_shuffle(q2, variant_seed.wrapping_add(0xc2b2_ae35)),
            ));
        }
    }
    shuffle(&mut workload, &mut rng);
    workload
}

/// In-place Fisher–Yates shuffle driven by the deterministic [`StdRng`].
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// A random exact polymatroid over `n` named variables, built as a random
/// non-negative combination of step functions (hence normal, hence a
/// polymatroid), deterministic in `seed`.
pub fn random_normal_polymatroid(n: usize, seed: u64) -> SetFunction {
    let mut rng = StdRng::seed_from_u64(seed);
    let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
    let mut h = SetFunction::zero(vars.clone());
    let full = h.full_mask();
    let mut result = SetFunction::zero(vars.clone());
    for w in all_masks(n) {
        if w == full {
            continue;
        }
        let coeff = int(rng.gen_range(0..4));
        if coeff.is_zero() {
            continue;
        }
        let step = bqc_entropy::step_function(vars.clone(), w).scale(&coeff);
        result = result.add(&step);
    }
    // Ensure the function is not identically zero.
    if result.value(full).is_zero() {
        result = result.add(&bqc_entropy::step_function(vars, 0));
    }
    h = result;
    h
}

/// A random (generally non-normal) exact polymatroid: the minimum of a random
/// modular function and a constant cap, `h(X) = min(Σ_{i∈X} w_i, cap)` — a
/// rank function of a (weighted) uniform-matroid-like structure.
pub fn random_capped_polymatroid(n: usize, seed: u64) -> SetFunction {
    let mut rng = StdRng::seed_from_u64(seed);
    let vars: Vec<String> = (0..n).map(|i| format!("V{i}")).collect();
    let weights: Vec<i64> = (0..n).map(|_| rng.gen_range(1..4)).collect();
    let cap: i64 = rng.gen_range(2..2 + weights.iter().sum::<i64>().max(2));
    let mut h = SetFunction::zero(vars);
    for mask in all_masks(n) {
        let total: i64 = (0..n)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| weights[i])
            .sum();
        h.set_value(mask, Rational::from(total.min(cap)));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqc_entropy::{is_normal, is_polymatroid};
    use std::collections::BTreeSet;

    #[test]
    fn generators_produce_valid_objects() {
        assert_eq!(cycle_query(3).num_vars(), 3);
        assert_eq!(path_query(3).num_vars(), 4);
        assert_eq!(star_query(4).num_vars(), 5);
        assert_eq!(random_graph(5, 10, 1).vocabulary().arity_of("R"), Some(2));
        for seed in 0..5 {
            let normal = random_normal_polymatroid(4, seed);
            assert!(is_polymatroid(&normal));
            assert!(is_normal(&normal));
            let capped = random_capped_polymatroid(4, seed);
            assert!(is_polymatroid(&capped));
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(random_graph(6, 12, 7), random_graph(6, 12, 7));
        assert_eq!(
            random_normal_polymatroid(3, 9),
            random_normal_polymatroid(3, 9)
        );
        assert_eq!(rename_shuffle(&cycle_query(4), 3), {
            rename_shuffle(&cycle_query(4), 3)
        });
        let (a, b) = (engine_workload(3, 11), engine_workload(3, 11));
        assert_eq!(a.len(), b.len());
        for ((a1, a2), (b1, b2)) in a.iter().zip(&b) {
            assert_eq!((a1, a2), (b1, b2));
        }
    }

    #[test]
    fn rename_shuffle_preserves_structure() {
        let q = ConjunctiveQuery::new(
            "Q".to_string(),
            vec!["x".to_string(), "z".to_string()],
            vec![
                Atom::new("R", ["x", "y"]),
                Atom::new("S", ["y", "z"]),
                Atom::new("T", ["z", "x"]),
            ],
        )
        .unwrap();
        let shuffled = rename_shuffle(&q, 5);
        assert_eq!(shuffled.num_vars(), q.num_vars());
        assert_eq!(shuffled.atoms().len(), q.atoms().len());
        assert_eq!(shuffled.head().len(), q.head().len());
        // Fresh names: disjoint from the original's.
        assert!(shuffled.vars().iter().all(|v| v.starts_with('p')));
        // Same relation multiset.
        fn rels(q: &ConjunctiveQuery) -> Vec<&str> {
            let mut r: Vec<&str> = q.atoms().iter().map(|a| a.relation.as_str()).collect();
            r.sort();
            r
        }
        assert_eq!(rels(&q), rels(&shuffled));
    }

    #[test]
    fn refutable_and_stage_mix_generators_are_sound() {
        use bqc_core::{decide_containment_traced, DecideOptions};
        // The parallel-blocks family is refuted by the counting stage without
        // touching the LP, for every m.
        for m in 2..=3 {
            let decision = decide_containment_traced(
                &parallel_blocks_query(m),
                &spread_query(),
                &DecideOptions::default(),
            )
            .unwrap();
            assert!(decision.answer.is_not_contained(), "m = {m}");
            assert_eq!(decision.trace.decided_by(), Some("counting-refuter"));
        }
        // The stage-mix workload is deterministic and repeats every base pair.
        let (a, b) = (stage_mix_workload(3, 5), stage_mix_workload(3, 5));
        assert_eq!(a.len(), 6 * 3);
        for ((a1, a2), (b1, b2)) in a.iter().zip(&b) {
            assert_eq!((a1, a2), (b1, b2));
        }
    }

    #[test]
    fn engine_workload_repeats_each_base_pair() {
        let workload = engine_workload(4, 2);
        assert_eq!(workload.len(), 5 * 4);
        // No two requests share variable names with equal spelling AND equal
        // atom order for the repeated pairs (they are distinct isomorphic
        // copies); we spot-check that at least the spellings vary.
        let texts: BTreeSet<String> = workload
            .iter()
            .map(|(q1, q2)| format!("{q1} ; {q2}"))
            .collect();
        assert!(texts.len() > 5, "shuffled copies must not be identical");
    }
}
