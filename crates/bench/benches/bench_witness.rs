//! Experiment E12: witness extraction and verification.
//!
//! Measures (a) the full decide-then-extract-then-verify loop on Example 3.5
//! and (b) hand-written normal-witness verification as the witness grows.

use bqc_core::{decide_containment_with, verify_witness, Budget, DecideOptions};
use bqc_relational::{parse_query, VRelation, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;
use std::time::Duration;

fn example_3_5_queries() -> (
    bqc_relational::ConjunctiveQuery,
    bqc_relational::ConjunctiveQuery,
) {
    let q1 =
        parse_query("Q1() :- A(x1,x2), B(x1,x2), C(x1,x2), A(x1',x2'), B(x1',x2'), C(x1',x2')")
            .unwrap();
    let q2 = parse_query("Q2() :- A(y1,y2), B(y1,y3), C(y4,y2)").unwrap();
    (q1, q2)
}

fn paper_witness(n: i64) -> VRelation {
    let product = VRelation::product(&[
        ("u".to_string(), (1..=n).map(Value::int).collect()),
        ("v".to_string(), (1..=n).map(Value::int).collect()),
    ]);
    let psi: Vec<(String, BTreeSet<String>)> = vec![
        ("x1".to_string(), ["u".to_string()].into_iter().collect()),
        ("x2".to_string(), ["u".to_string()].into_iter().collect()),
        ("x1'".to_string(), ["v".to_string()].into_iter().collect()),
        ("x2'".to_string(), ["v".to_string()].into_iter().collect()),
    ];
    VRelation::normal_relation(&product, &psi)
}

fn bench_decide_and_extract(c: &mut Criterion) {
    let (q1, q2) = example_3_5_queries();
    let mut group = c.benchmark_group("witness/example_3_5_end_to_end");
    group.sample_size(10);
    group.bench_function("decide+extract+verify", |b| {
        b.iter(|| {
            let answer = decide_containment_with(
                &q1,
                &q2,
                // The counting refuter would short-circuit Example 3.5 before
                // the LP; this experiment measures the Lemma 3.7 extraction
                // path, so keep the refuter off.
                &DecideOptions {
                    extract_witness: true,
                    witness_max_rows: 1 << 12,
                    counting_refuter: false,
                    ..DecideOptions::default()
                },
            )
            .unwrap();
            assert!(answer.is_not_contained());
        })
    });
    group.bench_function("decide_only", |b| {
        b.iter(|| {
            let answer = decide_containment_with(
                &q1,
                &q2,
                &DecideOptions {
                    extract_witness: false,
                    counting_refuter: false,
                    ..DecideOptions::default()
                },
            )
            .unwrap();
            assert!(answer.is_not_contained());
        })
    });
    group.finish();
}

fn bench_witness_verification(c: &mut Criterion) {
    let (q1, q2) = example_3_5_queries();
    let mut group = c.benchmark_group("witness/verify_paper_witness");
    group.sample_size(10);
    for n in [3i64, 6, 10] {
        let witness = paper_witness(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let verified = verify_witness(&q1, &q2, &witness, &Budget::unlimited())
                    .unwrap()
                    .expect("witness verifies");
                assert!(verified.hom_q1 > verified.hom_q2);
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    targets = bench_decide_and_extract, bench_witness_verification
}
criterion_main!(benches);
