//! The compiled search counts exactly (against brute force), and
//! `count_homomorphisms_up_to` is `min(count, limit)`, searching no further
//! than the unbounded count does.

use bqc_obs::BudgetSpec;
use bqc_relational::{
    count_homomorphisms, count_homomorphisms_budgeted, count_homomorphisms_up_to, Atom,
    ConjunctiveQuery, Structure, Value,
};
use proptest::prelude::*;

/// `R/2`, `S/1` and `T/3` atoms over the variables `v0 … v4`.
fn query(atoms: &[(u8, usize, usize, usize)]) -> ConjunctiveQuery {
    let var = |i: usize| format!("v{i}");
    let atoms = atoms
        .iter()
        .map(|&(rel, a, b, c)| match rel {
            0 => Atom::new("R", [var(a), var(b)]),
            1 => Atom::new("S", [var(a)]),
            _ => Atom::new("T", [var(a), var(b), var(c)]),
        })
        .collect();
    ConjunctiveQuery::boolean("Q", atoms).unwrap()
}

/// Facts over a 4-element domain of integers and nested pairs.
fn structure(facts: &[(u8, i64, i64, i64)]) -> Structure {
    let value = |i: i64| match i % 2 {
        0 => Value::int(i),
        _ => Value::pair(Value::pair(Value::int(i), Value::text("p")), Value::int(-i)),
    };
    let mut s = Structure::empty();
    for &(rel, x, y, z) in facts {
        match rel {
            0 => s.add_fact("R", vec![value(x), value(y)]),
            1 => s.add_fact("S", vec![value(x)]),
            _ => s.add_fact("T", vec![value(x), value(y), value(z)]),
        }
    }
    s
}

/// `|hom(q, d)|` by trying every assignment over the active domain.
fn brute_force_count(q: &ConjunctiveQuery, d: &Structure) -> u128 {
    let domain: Vec<Value> = d.active_domain().into_iter().collect();
    let vars = q.vars();
    let mut digits = vec![0usize; vars.len()];
    let mut count = 0;
    loop {
        let value_of = |v: &String| &domain[digits[vars.iter().position(|w| w == v).unwrap()]];
        if !domain.is_empty()
            && q.atoms().iter().all(|atom| {
                let tuple: Vec<Value> = atom.args.iter().map(|v| value_of(v).clone()).collect();
                d.contains_fact(&atom.relation, &tuple)
            })
        {
            count += 1;
        }
        let Some(i) = (0..digits.len()).find(|&i| digits[i] + 1 < domain.len()) else {
            return count;
        };
        digits[i] += 1;
        digits[..i].iter_mut().for_each(|digit| *digit = 0);
    }
}

/// Hom-steps one search charges.
fn steps(search: impl FnOnce(&bqc_obs::Budget)) -> u64 {
    let budget = BudgetSpec {
        max_hom_steps: Some(u64::MAX / 2),
        ..BudgetSpec::UNLIMITED
    }
    .start();
    search(&budget);
    budget.hom_steps_spent()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bounded_count_is_the_minimum_of_count_and_limit(
        atoms in proptest::collection::vec((0u8..3, 0usize..5, 0usize..5, 0usize..5), 1..5),
        facts in proptest::collection::vec((0u8..3, 0i64..4, 0i64..4, 0i64..4), 0..24),
        kind in 0u8..4,
        raw in 0u64..64,
    ) {
        let q = query(&atoms);
        let d = structure(&facts);
        let limit: u128 = match kind {
            0 => 0,
            1 => 1,
            2 => raw as u128,
            _ => u128::MAX,
        };
        let unlimited = bqc_obs::Budget::unlimited();
        let count = count_homomorphisms(&q, &d);
        prop_assert_eq!(count, brute_force_count(&q, &d));
        let bounded = count_homomorphisms_up_to(&q, &d, limit, &unlimited).unwrap();
        prop_assert_eq!(bounded, count.min(limit));
        let full_steps = steps(|b| {
            count_homomorphisms_budgeted(&q, &d, b).unwrap();
        });
        let bounded_steps = steps(|b| {
            count_homomorphisms_up_to(&q, &d, limit, b).unwrap();
        });
        prop_assert!(bounded_steps <= full_steps);
        if limit > count {
            prop_assert_eq!(bounded_steps, full_steps);
        }
        if limit == 0 {
            prop_assert_eq!(bounded_steps, 0);
        }
    }
}
