//! Homomorphism enumeration and counting.
//!
//! The central quantity of the paper is `|hom(Q, D)|`, the number of
//! homomorphisms from a conjunctive query (or a structure) to a database
//! instance: the bag-set answer of a Boolean conjunctive query is exactly this
//! count, and containment `Q1 ⊑ Q2` means `|hom(Q1, D)| ≤ |hom(Q2, D)|` for
//! every `D` (Section 2.2).
//!
//! The solver is a backtracking search with per-variable candidate sets
//! (the intersection, over all atoms containing the variable, of the values
//! occurring at the variable's positions) and eager checking of every atom as
//! soon as its last variable is bound.  This is exact and fast enough for the
//! instance sizes produced by the paper's constructions; an asymptotically
//! better junction-tree counting algorithm for acyclic queries lives in
//! `bqc-core::yannakakis` and is benchmarked against this one.
//!
//! The search runs over a compiled `SearchPlan`: the values of the
//! relations the query mentions are interned once as dense ids in `Value`
//! order, so candidate lists — and hence the enumeration order — are exactly
//! the `Value`-ordered ones.  Every atom check is a single hash probe on the
//! atom's relation projected onto the positions bound so far.  Callers that
//! only compare a count against a number use [`count_homomorphisms_up_to`],
//! which stops the search as soon as that number is reached.

use crate::query::{Atom, ConjunctiveQuery, Var};
use crate::structure::Structure;
use crate::value::{Tuple, Value};
use bqc_obs::{Budget, Exhausted, LazyCounter};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::ControlFlow;

/// Search-tree nodes (candidate values tried) over all searches, added once
/// per search.
static HOM_STEPS: LazyCounter = LazyCounter::new("bqc_relational_hom_steps_total");

/// An assignment of query variables to domain values.
pub type Assignment = BTreeMap<Var, Value>;

/// Enumerates all homomorphisms from `query` to `data`.
pub fn enumerate_homomorphisms(query: &ConjunctiveQuery, data: &Structure) -> Vec<Assignment> {
    enumerate_homomorphisms_budgeted(query, data, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// [`enumerate_homomorphisms`] under a cooperative work budget: the search
/// charges one hom-step per candidate value tried and aborts with
/// `Err(Exhausted)` when the budget runs out.  An aborted enumeration
/// certifies nothing — in particular it must not be confused with an empty
/// (completed) one.
pub fn enumerate_homomorphisms_budgeted(
    query: &ConjunctiveQuery,
    data: &Structure,
    budget: &Budget,
) -> Result<Vec<Assignment>, Exhausted> {
    let mut result = Vec::new();
    for_each_homomorphism_budgeted(query, data, budget, |assignment| {
        result.push(assignment.clone())
    })?;
    Ok(result)
}

/// Counts the homomorphisms from `query` to `data`.
pub fn count_homomorphisms(query: &ConjunctiveQuery, data: &Structure) -> u128 {
    count_homomorphisms_budgeted(query, data, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust")
}

/// [`count_homomorphisms`] under a cooperative work budget; see
/// [`enumerate_homomorphisms_budgeted`] for the abort semantics.
pub fn count_homomorphisms_budgeted(
    query: &ConjunctiveQuery,
    data: &Structure,
    budget: &Budget,
) -> Result<u128, Exhausted> {
    count_homomorphisms_up_to(query, data, u128::MAX, budget)
}

/// `min(|hom(query, data)|, limit)`: counts homomorphisms but stops the
/// search at the `limit`-th one, for callers that only compare the count
/// against `limit` (`|hom| < limit` iff the result is below `limit`).
/// Below the limit the result is the exact count, found by the same search
/// with the same hom-step charges as [`count_homomorphisms_budgeted`];
/// `limit = 0` answers 0 without searching.
pub fn count_homomorphisms_up_to(
    query: &ConjunctiveQuery,
    data: &Structure,
    limit: u128,
    budget: &Budget,
) -> Result<u128, Exhausted> {
    let mut count: u128 = 0;
    if limit > 0 {
        search(query, data, budget, |_, _| {
            count += 1;
            if count == limit {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
    }
    Ok(count)
}

/// Evaluates a (possibly non-Boolean) query under bag-set semantics: the
/// result maps each head tuple `d` to `|Q(D)[d]|`, the number of
/// homomorphisms agreeing with `d` on the head variables (the SQL
/// `COUNT(*) … GROUP BY head`).  Head tuples with count zero are absent.
pub fn bag_set_answer(query: &ConjunctiveQuery, data: &Structure) -> BTreeMap<Tuple, u128> {
    let mut result: BTreeMap<Tuple, u128> = BTreeMap::new();
    for_each_homomorphism(query, data, |assignment| {
        let key: Tuple = query.head().iter().map(|v| assignment[v].clone()).collect();
        *result.entry(key).or_insert(0) += 1;
    });
    result
}

/// Invokes `callback` once per homomorphism from `query` to `data`.
pub fn for_each_homomorphism<F: FnMut(&Assignment)>(
    query: &ConjunctiveQuery,
    data: &Structure,
    callback: F,
) {
    for_each_homomorphism_budgeted(query, data, &Budget::unlimited(), callback)
        .expect("unlimited budget cannot exhaust")
}

/// [`for_each_homomorphism`] under a cooperative work budget: one hom-step
/// is charged per candidate value the backtracking search tries (i.e. per
/// search-tree node), so the abort latency is bounded by a single atom
/// check.  With an unlimited budget the charge is one pointer test per node.
pub fn for_each_homomorphism_budgeted<F: FnMut(&Assignment)>(
    query: &ConjunctiveQuery,
    data: &Structure,
    budget: &Budget,
    mut callback: F,
) -> Result<(), Exhausted> {
    search(query, data, budget, |plan, ids| {
        let assignment: Assignment = plan
            .order
            .iter()
            .zip(ids)
            .map(|(var, &id)| ((*var).clone(), plan.values[id as usize].clone()))
            .collect();
        callback(&assignment);
        ControlFlow::Continue(())
    })
}

/// Runs the backtracking search, calling `visit` with the value ids of each
/// homomorphism (indexed like `plan.order`) until it breaks.  The nodes
/// tried are added to `bqc_relational_hom_steps_total` once, at the end.
fn search<'a, F>(
    query: &'a ConjunctiveQuery,
    data: &'a Structure,
    budget: &Budget,
    mut visit: F,
) -> Result<(), Exhausted>
where
    F: FnMut(&SearchPlan<'a>, &[u32]) -> ControlFlow<()>,
{
    let Some(plan) = SearchPlan::build(query, data) else {
        return Ok(()); // some variable has no candidate value
    };
    let mut run = Run {
        bound: vec![0; plan.order.len()],
        key: Vec::new(),
        steps: 0,
        budget,
    };
    let outcome = plan.run(0, &mut run, &mut |ids| visit(&plan, ids));
    HOM_STEPS.add(run.steps);
    match outcome {
        Err(Stop::Exhausted(exhausted)) => Err(exhausted),
        Ok(()) | Err(Stop::Limit) => Ok(()),
    }
}

/// A relation projected onto some of its positions, as id tuples.
type Projection = HashSet<Box<[u32]>>;

/// One atom check: the ids bound at `depths` must form a tuple of
/// `projections[projection]`.
struct Probe {
    projection: usize,
    depths: Vec<usize>,
}

/// Why a search stopped before exhausting the tree.
enum Stop {
    /// The visitor reached the caller's limit.
    Limit,
    /// The budget ran out.
    Exhausted(Exhausted),
}

/// The mutable state of one search.
struct Run<'b> {
    /// The value id bound at each depth.
    bound: Vec<u32>,
    /// Scratch buffer for probe keys.
    key: Vec<u32>,
    /// Nodes tried so far.
    steps: u64,
    budget: &'b Budget,
}

/// A query compiled against one structure.
struct SearchPlan<'a> {
    /// The interned values, sorted: id `i` stands for `values[i]`.
    values: Vec<&'a Value>,
    /// Variables in the order they are assigned.
    order: Vec<&'a Var>,
    /// Candidate value ids for each depth, ascending (i.e. in `Value` order).
    candidates: Vec<Vec<u32>>,
    /// For each depth `i`, the checks to run once `order[i]` is bound.  An
    /// atom is fully checked at the depth where its last variable is bound
    /// and *partially* checked (does some tuple agree with the bound
    /// positions?) at each earlier depth binding one of its variables.  The
    /// partial check is what keeps wide-arity atoms (such as the ones
    /// produced by the Section 5 reduction) from exploding the search.
    probes: Vec<Vec<Probe>>,
    projections: Vec<Projection>,
}

impl<'a> SearchPlan<'a> {
    fn build(query: &'a ConjunctiveQuery, data: &'a Structure) -> Option<SearchPlan<'a>> {
        // Nullary atoms bind nothing: each holds or fails outright.
        let mut atoms: Vec<&'a Atom> = Vec::new();
        for atom in query.atoms() {
            if !atom.args.is_empty() {
                atoms.push(atom);
            } else if !data.contains_fact(&atom.relation, &Vec::new()) {
                return None;
            }
        }

        // Intern every value of the mentioned relations, in `Value` order.
        let mut relations: BTreeMap<&'a str, Vec<&'a Tuple>> = BTreeMap::new();
        for atom in &atoms {
            let tuples = relations.entry(atom.relation.as_str()).or_default();
            if tuples.is_empty() {
                tuples.extend(data.facts(&atom.relation));
                if tuples.iter().any(|t| t.len() != atom.args.len()) {
                    return None; // the structure's arity disagrees with the query's
                }
            }
        }
        let mut values: Vec<&'a Value> = relations.values().flatten().copied().flatten().collect();
        values.sort_unstable();
        values.dedup();
        let id_of = |value: &Value| values.binary_search(&value).expect("interned") as u32;
        let rows: BTreeMap<&str, Vec<Vec<u32>>> = relations
            .iter()
            .map(|(&name, tuples)| {
                (
                    name,
                    tuples
                        .iter()
                        .map(|t| t.iter().map(id_of).collect())
                        .collect(),
                )
            })
            .collect();

        // Candidate sets: intersection over atoms/positions mentioning the variable.
        let vars: Vec<&'a Var> = query.vars().iter().collect();
        let index_of: HashMap<&Var, usize> =
            vars.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut candidates: Vec<Option<Vec<u32>>> = vec![None; vars.len()];
        for atom in &atoms {
            for (pos, var) in atom.args.iter().enumerate() {
                let mut column: Vec<u32> = rows[atom.relation.as_str()]
                    .iter()
                    .map(|t| t[pos])
                    .collect();
                column.sort_unstable();
                column.dedup();
                let slot = &mut candidates[index_of[var]];
                match slot {
                    Some(existing) => existing.retain(|id| column.binary_search(id).is_ok()),
                    None => *slot = Some(column),
                }
            }
        }
        let mut candidates: Vec<Vec<u32>> = candidates
            .into_iter()
            .map(|c| c.filter(|c| !c.is_empty()))
            .collect::<Option<_>>()?;

        // Assignment order: greedily pick the variable with the smallest
        // candidate set among those connected to already-ordered variables
        // (falling back to the globally smallest when none is connected);
        // ties go to the smallest variable name.
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); vars.len()];
        for atom in &atoms {
            for a in &atom.args {
                for b in &atom.args {
                    if a != b {
                        neighbors[index_of[a]].push(index_of[b]);
                    }
                }
            }
        }
        let mut by_name: Vec<usize> = (0..vars.len()).collect();
        by_name.sort_by_key(|&i| vars[i]);
        let mut depth_of: Vec<Option<usize>> = vec![None; vars.len()];
        let mut order_index: Vec<usize> = Vec::with_capacity(vars.len());
        while order_index.len() < vars.len() {
            let remaining = by_name.iter().copied().filter(|&v| depth_of[v].is_none());
            let connected: Vec<usize> = remaining
                .clone()
                .filter(|&v| neighbors[v].iter().any(|&n| depth_of[n].is_some()))
                .collect();
            let chosen = if connected.is_empty() {
                remaining.min_by_key(|&v| candidates[v].len())
            } else {
                connected.into_iter().min_by_key(|&v| candidates[v].len())
            }
            .expect("a variable remains");
            depth_of[chosen] = Some(order_index.len());
            order_index.push(chosen);
        }
        let depth_of: Vec<usize> = depth_of.into_iter().map(|d| d.expect("ordered")).collect();

        // Checks: at every depth binding one of an atom's variables, probe the
        // atom's relation projected onto the positions bound by then.  A probe
        // on a single position is implied by the candidate sets and skipped.
        let mut probes: Vec<Vec<Probe>> = (0..vars.len()).map(|_| Vec::new()).collect();
        let mut projection_of: HashMap<(&str, Vec<usize>), usize> = HashMap::new();
        let mut projections: Vec<Projection> = Vec::new();
        for atom in &atoms {
            let arg_depths: Vec<usize> = atom.args.iter().map(|v| depth_of[index_of[v]]).collect();
            let mut depths = arg_depths.clone();
            depths.sort_unstable();
            depths.dedup();
            for &depth in &depths {
                let positions: Vec<usize> = (0..arg_depths.len())
                    .filter(|&p| arg_depths[p] <= depth)
                    .collect();
                if positions.len() < 2 {
                    continue;
                }
                let probe_depths = positions.iter().map(|&p| arg_depths[p]).collect();
                let key = (atom.relation.as_str(), positions);
                let projection = *projection_of.entry(key.clone()).or_insert_with(|| {
                    projections.push(
                        rows[key.0]
                            .iter()
                            .map(|t| key.1.iter().map(|&p| t[p]).collect())
                            .collect(),
                    );
                    projections.len() - 1
                });
                probes[depth].push(Probe {
                    projection,
                    depths: probe_depths,
                });
            }
        }

        Some(SearchPlan {
            order: order_index.iter().map(|&v| vars[v]).collect(),
            candidates: order_index
                .iter()
                .map(|&v| std::mem::take(&mut candidates[v]))
                .collect(),
            values,
            probes,
            projections,
        })
    }

    fn run<F: FnMut(&[u32]) -> ControlFlow<()>>(
        &self,
        depth: usize,
        run: &mut Run<'_>,
        visit: &mut F,
    ) -> Result<(), Stop> {
        if depth == self.order.len() {
            return match visit(&run.bound) {
                ControlFlow::Continue(()) => Ok(()),
                ControlFlow::Break(()) => Err(Stop::Limit),
            };
        }
        for &id in &self.candidates[depth] {
            run.steps += 1;
            run.budget.charge_hom_steps(1).map_err(Stop::Exhausted)?;
            run.bound[depth] = id;
            if self.probes[depth]
                .iter()
                .all(|probe| self.admits(probe, run))
            {
                self.run(depth + 1, run, visit)?;
            }
        }
        Ok(())
    }

    fn admits(&self, probe: &Probe, run: &mut Run<'_>) -> bool {
        run.key.clear();
        run.key.extend(probe.depths.iter().map(|&d| run.bound[d]));
        self.projections[probe.projection].contains(run.key.as_slice())
    }
}

/// Converts a structure into an isomorphic Boolean conjunctive query: each
/// domain value becomes a variable and each tuple becomes an atom
/// (Section 2.2: "DOM and BagCQC are essentially the same problem").
///
/// Returns the query together with the list of domain values that occur in no
/// tuple (isolated values), which the query cannot represent.
pub fn structure_to_query(
    structure: &Structure,
    name: &str,
) -> (Option<ConjunctiveQuery>, Vec<Value>) {
    let mut var_of: BTreeMap<Value, Var> = BTreeMap::new();
    let mut next = 0usize;
    let mut atoms = Vec::new();
    for symbol in structure.vocabulary().symbols() {
        for tuple in structure.facts(&symbol.name) {
            let args: Vec<Var> = tuple
                .iter()
                .map(|value| {
                    var_of
                        .entry(value.clone())
                        .or_insert_with(|| {
                            let v = format!("v{next}");
                            next += 1;
                            v
                        })
                        .clone()
                })
                .collect();
            atoms.push(Atom::new(symbol.name.clone(), args));
        }
    }
    let isolated: Vec<Value> = structure
        .active_domain()
        .into_iter()
        .filter(|v| !var_of.contains_key(v))
        .collect();
    let query = if atoms.is_empty() {
        None
    } else {
        Some(ConjunctiveQuery::boolean(name, atoms).expect("structure yields a valid query"))
    };
    (query, isolated)
}

/// Counts homomorphisms between structures: functions `f : dom(B) → dom(A)`
/// with `f(R^B) ⊆ R^A` for every relation symbol.
pub fn count_structure_homomorphisms(from: &Structure, to: &Structure) -> u128 {
    let (query, isolated) = structure_to_query(from, "hom_src");
    let base = match query {
        Some(query) => count_homomorphisms(&query, to),
        None => 1,
    };
    let domain_size = to.active_domain().len() as u128;
    let mut total = base;
    for _ in 0..isolated.len() {
        total *= domain_size;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Atom;

    fn path_query() -> ConjunctiveQuery {
        // Q() :- R(x,y), R(y,z)
        ConjunctiveQuery::boolean(
            "P",
            vec![Atom::new("R", ["x", "y"]), Atom::new("R", ["y", "z"])],
        )
        .unwrap()
    }

    fn cycle_structure(n: i64) -> Structure {
        let mut s = Structure::empty();
        for i in 0..n {
            s.add_fact("R", vec![Value::int(i), Value::int((i + 1) % n)]);
        }
        s
    }

    #[test]
    fn count_paths_in_cycle() {
        // In a directed n-cycle every vertex starts exactly one path of length 2.
        let q = path_query();
        for n in 2..6 {
            assert_eq!(count_homomorphisms(&q, &cycle_structure(n)), n as u128);
        }
    }

    #[test]
    fn count_paths_in_complete_graph() {
        // In the complete directed graph with self loops on n vertices there are
        // n^3 homomorphic images of the 2-path.
        let q = path_query();
        let mut s = Structure::empty();
        let n = 4i64;
        for a in 0..n {
            for b in 0..n {
                s.add_fact("R", vec![Value::int(a), Value::int(b)]);
            }
        }
        assert_eq!(count_homomorphisms(&q, &s), (n * n * n) as u128);
    }

    #[test]
    fn enumerate_matches_count() {
        let q = path_query();
        let s = cycle_structure(5);
        let homs = enumerate_homomorphisms(&q, &s);
        assert_eq!(homs.len() as u128, count_homomorphisms(&q, &s));
        for h in &homs {
            assert_eq!(h.len(), 3);
            // verify both atoms
            assert!(s.contains_fact("R", &vec![h["x"].clone(), h["y"].clone()]));
            assert!(s.contains_fact("R", &vec![h["y"].clone(), h["z"].clone()]));
        }
    }

    #[test]
    fn budgeted_search_aborts_without_an_answer() {
        use bqc_obs::{BudgetResource, BudgetSpec};
        let q = path_query();
        let s = cycle_structure(5);
        // One hom-step cannot finish the search over a 5-cycle.
        let tight = BudgetSpec {
            max_hom_steps: Some(1),
            ..BudgetSpec::UNLIMITED
        }
        .start();
        let err = count_homomorphisms_budgeted(&q, &s, &tight).unwrap_err();
        assert_eq!(err.resource, BudgetResource::HomSteps);
        // A generous budget reproduces the unbudgeted result exactly.
        let generous = BudgetSpec {
            max_hom_steps: Some(1 << 20),
            ..BudgetSpec::UNLIMITED
        }
        .start();
        assert_eq!(
            count_homomorphisms_budgeted(&q, &s, &generous).unwrap(),
            count_homomorphisms(&q, &s)
        );
        assert!(generous.hom_steps_spent() > 0);
    }

    #[test]
    fn repeated_variables_in_atoms() {
        // Q() :- R(x,x) counts self-loops.
        let q = ConjunctiveQuery::boolean("L", vec![Atom::new("R", ["x", "x"])]).unwrap();
        let mut s = cycle_structure(4);
        assert_eq!(count_homomorphisms(&q, &s), 0);
        s.add_fact("R", vec![Value::int(7), Value::int(7)]);
        assert_eq!(count_homomorphisms(&q, &s), 1);
    }

    #[test]
    fn empty_relation_means_no_homomorphisms() {
        let q =
            ConjunctiveQuery::boolean("Q", vec![Atom::new("R", ["x", "y"]), Atom::new("S", ["y"])])
                .unwrap();
        let s = cycle_structure(3);
        assert_eq!(count_homomorphisms(&q, &s), 0);
        assert!(enumerate_homomorphisms(&q, &s).is_empty());
    }

    #[test]
    fn bag_set_answer_group_by() {
        // Q(x) :- R(x,y): out-degree of every vertex.
        let q = ConjunctiveQuery::new("Q", vec!["x".to_string()], vec![Atom::new("R", ["x", "y"])])
            .unwrap();
        let mut s = cycle_structure(3);
        s.add_fact("R", vec![Value::int(0), Value::int(2)]);
        let answer = bag_set_answer(&q, &s);
        assert_eq!(answer[&vec![Value::int(0)]], 2);
        assert_eq!(answer[&vec![Value::int(1)]], 1);
        assert_eq!(answer[&vec![Value::int(2)]], 1);
    }

    #[test]
    fn triangle_vs_path_counts() {
        // Vee's example (Example 4.3): for every D, #triangles <= #2-out-stars.
        let triangle = ConjunctiveQuery::boolean(
            "T",
            vec![
                Atom::new("R", ["x1", "x2"]),
                Atom::new("R", ["x2", "x3"]),
                Atom::new("R", ["x3", "x1"]),
            ],
        )
        .unwrap();
        let star = ConjunctiveQuery::boolean(
            "S",
            vec![Atom::new("R", ["y1", "y2"]), Atom::new("R", ["y1", "y3"])],
        )
        .unwrap();
        for n in 2..6 {
            let s = cycle_structure(n);
            assert!(count_homomorphisms(&triangle, &s) <= count_homomorphisms(&star, &s));
        }
        let mut dense = Structure::empty();
        for a in 0..3i64 {
            for b in 0..3i64 {
                if a != b {
                    dense.add_fact("R", vec![Value::int(a), Value::int(b)]);
                }
            }
        }
        assert!(count_homomorphisms(&triangle, &dense) <= count_homomorphisms(&star, &dense));
    }

    #[test]
    fn structure_homomorphisms() {
        // Counting graph homomorphisms from an edge to a graph = #edges (as a structure hom).
        let mut edge = Structure::empty();
        edge.add_fact("R", vec![Value::text("a"), Value::text("b")]);
        let target = cycle_structure(5);
        assert_eq!(count_structure_homomorphisms(&edge, &target), 5);
        // Isolated domain values multiply by |dom|.
        let mut edge_iso = edge.clone();
        edge_iso.add_domain_value(Value::text("lonely"));
        assert_eq!(count_structure_homomorphisms(&edge_iso, &target), 25);
    }

    #[test]
    fn structure_to_query_roundtrip() {
        let s = cycle_structure(3);
        let (query, isolated) = structure_to_query(&s, "C3");
        let query = query.unwrap();
        assert!(isolated.is_empty());
        assert_eq!(query.atoms().len(), 3);
        assert_eq!(query.num_vars(), 3);
        // hom(C3, C3) as query-to-structure = 3 (rotations).
        assert_eq!(count_homomorphisms(&query, &s), 3);
    }

    #[test]
    fn disjoint_copies_square_the_count() {
        let q = path_query();
        let s = cycle_structure(4);
        let single = count_homomorphisms(&q, &s);
        let doubled_query = q.power(2);
        assert_eq!(count_homomorphisms(&doubled_query, &s), single * single);
    }
}
