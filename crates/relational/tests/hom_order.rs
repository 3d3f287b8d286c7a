//! Golden enumeration order of `enumerate_homomorphisms`.
//!
//! Everything downstream of the homomorphism search inherits its order: the
//! Eq. (8) disjunct order (one disjunct per `Q2 → Q1` homomorphism), and
//! through it every LP pivot and every verdict digest.  The search must try
//! candidate values in `Value` order and assign variables in the greedy
//! smallest-candidate-set order, so these pinned listings — over values of
//! every shape, including nested `Pair`s — must never change.

use bqc_relational::{enumerate_homomorphisms, parse_query, Structure, Value};

/// One line per homomorphism, variables in name order.
fn render(query: &str, data: &Structure) -> Vec<String> {
    let query = parse_query(query).unwrap();
    enumerate_homomorphisms(&query, data)
        .iter()
        .map(|h| {
            h.iter()
                .map(|(var, value)| format!("{var}={value}"))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn p(a: Value, b: Value) -> Value {
    Value::pair(a, b)
}

/// A 4-vertex graph whose vertices are nested pairs of mixed shapes.
fn pair_graph() -> Structure {
    let a = p(Value::int(1), Value::text("u"));
    let b = p(p(Value::int(0), Value::int(2)), Value::text("v"));
    let c = p(Value::int(1), p(Value::text("w"), Value::int(-3)));
    let d = Value::tagged("X", p(Value::int(0), Value::int(0)));
    let mut s = Structure::empty();
    for (x, y) in [
        (&a, &b),
        (&b, &c),
        (&c, &a),
        (&a, &c),
        (&c, &d),
        (&d, &a),
        (&b, &b),
    ] {
        s.add_fact("R", vec![x.clone(), y.clone()]);
    }
    s.add_fact("S", vec![a.clone(), b.clone(), a.clone()]);
    s.add_fact("S", vec![c.clone(), d.clone(), c.clone()]);
    s.add_fact("S", vec![d.clone(), d.clone(), a.clone()]);
    s.add_fact("U", vec![Value::tuple([Value::int(4), Value::text("t")])]);
    s.add_fact("U", vec![Value::int(9)]);
    s
}

#[test]
fn two_path_over_nested_pairs() {
    assert_eq!(
        render("Q() :- R(x,y), R(y,z)", &pair_graph()),
        [
            "x=X:(0,0) y=(1,u) z=(1,(w,-3))",
            "x=X:(0,0) y=(1,u) z=((0,2),v)",
            "x=(1,u) y=(1,(w,-3)) z=X:(0,0)",
            "x=(1,u) y=(1,(w,-3)) z=(1,u)",
            "x=(1,u) y=((0,2),v) z=(1,(w,-3))",
            "x=(1,u) y=((0,2),v) z=((0,2),v)",
            "x=(1,(w,-3)) y=X:(0,0) z=(1,u)",
            "x=(1,(w,-3)) y=(1,u) z=(1,(w,-3))",
            "x=(1,(w,-3)) y=(1,u) z=((0,2),v)",
            "x=((0,2),v) y=(1,(w,-3)) z=X:(0,0)",
            "x=((0,2),v) y=(1,(w,-3)) z=(1,u)",
            "x=((0,2),v) y=((0,2),v) z=(1,(w,-3))",
            "x=((0,2),v) y=((0,2),v) z=((0,2),v)",
        ]
    );
}

#[test]
fn triangle_over_nested_pairs() {
    assert_eq!(
        render("Q() :- R(x,y), R(y,z), R(z,x)", &pair_graph()),
        [
            "x=X:(0,0) y=(1,u) z=(1,(w,-3))",
            "x=(1,u) y=(1,(w,-3)) z=X:(0,0)",
            "x=(1,u) y=((0,2),v) z=(1,(w,-3))",
            "x=(1,(w,-3)) y=X:(0,0) z=(1,u)",
            "x=(1,(w,-3)) y=(1,u) z=((0,2),v)",
            "x=((0,2),v) y=(1,(w,-3)) z=(1,u)",
            "x=((0,2),v) y=((0,2),v) z=((0,2),v)",
        ]
    );
}

#[test]
fn repeated_variables_and_wide_atoms() {
    assert_eq!(
        render("Q() :- S(x,y,x), R(y,z)", &pair_graph()),
        [
            "x=(1,u) y=((0,2),v) z=(1,(w,-3))",
            "x=(1,u) y=((0,2),v) z=((0,2),v)",
            "x=(1,(w,-3)) y=X:(0,0) z=(1,u)",
        ]
    );
}

#[test]
fn disconnected_components_with_tuple_values() {
    assert_eq!(
        render("Q() :- R(x,x), U(w), R(y,z)", &pair_graph()),
        [
            "w=9 x=((0,2),v) y=X:(0,0) z=(1,u)",
            "w=9 x=((0,2),v) y=(1,u) z=(1,(w,-3))",
            "w=9 x=((0,2),v) y=(1,u) z=((0,2),v)",
            "w=9 x=((0,2),v) y=(1,(w,-3)) z=X:(0,0)",
            "w=9 x=((0,2),v) y=(1,(w,-3)) z=(1,u)",
            "w=9 x=((0,2),v) y=((0,2),v) z=(1,(w,-3))",
            "w=9 x=((0,2),v) y=((0,2),v) z=((0,2),v)",
            "w=<4,t> x=((0,2),v) y=X:(0,0) z=(1,u)",
            "w=<4,t> x=((0,2),v) y=(1,u) z=(1,(w,-3))",
            "w=<4,t> x=((0,2),v) y=(1,u) z=((0,2),v)",
            "w=<4,t> x=((0,2),v) y=(1,(w,-3)) z=X:(0,0)",
            "w=<4,t> x=((0,2),v) y=(1,(w,-3)) z=(1,u)",
            "w=<4,t> x=((0,2),v) y=((0,2),v) z=(1,(w,-3))",
            "w=<4,t> x=((0,2),v) y=((0,2),v) z=((0,2),v)",
        ]
    );
}

/// The search tries the same nodes as the enumeration order implies: one
/// hom-step per candidate value tried, pinned per query.
#[test]
fn hom_steps_per_search_are_pinned() {
    use bqc_obs::BudgetSpec;
    use bqc_relational::count_homomorphisms_budgeted;
    let data = pair_graph();
    let steps: Vec<u64> = [
        "Q() :- R(x,y), R(y,z)",
        "Q() :- R(x,y), R(y,z), R(z,x)",
        "Q() :- S(x,y,x), R(y,z)",
        "Q() :- R(x,x), U(w), R(y,z)",
    ]
    .iter()
    .map(|text| {
        let budget = BudgetSpec {
            max_hom_steps: Some(u64::MAX / 2),
            ..BudgetSpec::UNLIMITED
        }
        .start();
        count_homomorphisms_budgeted(&parse_query(text).unwrap(), &data, &budget).unwrap();
        budget.hom_steps_spent()
    })
    .collect();
    assert_eq!(steps, [48, 48, 14, 50]);
}
