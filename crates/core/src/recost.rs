//! Re-costing a fixed plan under a (possibly different) cost model.
//!
//! Used by the statistics-robustness experiments: optimize under
//! *noisy* (sampled) statistics, then ask what the chosen plan costs
//! under the *true* model. Under the model the plan was built with,
//! `recost` reproduces the optimizer's own cost — which doubles as a
//! strong internal-consistency test of the whole costing stack.

use sdp_cost::{join_candidates, CostModel, JoinInput, JoinMethod, ScanKind};
use sdp_query::{EquivClasses, JoinGraph, RelSet};

use crate::crossing::EdgeTable;
use crate::plan::{PlanNode, PlanOp};

/// Total cost of `plan` under `model` (with `graph` supplying
/// cardinalities and `classes` the order-class structure).
///
/// # Panics
/// Panics if the plan's shape is inconsistent with the graph (wrong
/// children counts); such plans cannot come out of the enumerators.
pub fn recost(
    plan: &PlanNode,
    model: &CostModel<'_>,
    graph: &JoinGraph,
    classes: &EquivClasses,
) -> f64 {
    let edges = EdgeTable::new(model, graph, classes);
    walk(plan, model, graph, &edges).cost
}

/// Recomputed rows, cost, width and ordering of a subtree.
fn walk(node: &PlanNode, model: &CostModel<'_>, graph: &JoinGraph, edges: &EdgeTable) -> JoinInput {
    let est = model.estimator();
    match &node.op {
        PlanOp::SeqScan { node: n, .. } | PlanOp::IndexScan { node: n, .. } => {
            let set = RelSet::single(*n);
            let rows = est.rows_for_set(graph, set);
            let width = est.width_for_set(graph, set);
            let wanted = match node.op {
                PlanOp::SeqScan { .. } => ScanKind::Seq,
                _ => ScanKind::IndexFull,
            };
            let paths = model.scan_paths_for_node(graph, *n);
            let path = paths
                .iter()
                .find(|p| {
                    p.kind == wanted
                        || (wanted == ScanKind::IndexFull && p.kind == ScanKind::IndexRange)
                })
                .or_else(|| paths.first())
                .expect("scan paths are never empty");
            JoinInput {
                rows,
                cost: path.cost,
                width,
                ordering: node.ordering,
            }
        }
        PlanOp::Sort { class } => {
            let child = walk(&node.children[0], model, graph, edges);
            JoinInput {
                rows: child.rows,
                cost: child.cost + model.sort_cost(child.rows, child.width),
                width: child.width,
                ordering: Some(*class),
            }
        }
        PlanOp::Join { method } => {
            let outer = walk(&node.children[0], model, graph, edges);
            let inner = walk(&node.children[1], model, graph, edges);
            let (oset, iset) = (node.children[0].set, node.children[1].set);
            let crossing = edges.crossing(oset, iset);
            let out_rows = est.rows_for_set(graph, oset | iset);
            // The merge class is the plan node's recorded ordering (if
            // merge), else the first crossing class.
            let class = node.ordering.or(crossing.first_class);
            let cands = join_candidates(
                &outer,
                &inner,
                crossing.selectivity,
                out_rows,
                class,
                crossing.index_into_b,
                model.params(),
            );
            let cost = cands
                .iter()
                .find(|c| c.method == *method)
                .map(|c| c.cost)
                // A plan built under different statistics may pick a
                // method inapplicable here (e.g. INL without a usable
                // index under the true catalog); charge the plain
                // nested loop in that case.
                .unwrap_or_else(|| {
                    cands
                        .iter()
                        .find(|c| c.method == JoinMethod::NestedLoop)
                        .expect("nested loop always applies")
                        .cost
                });
            JoinInput {
                rows: out_rows,
                cost,
                width: outer.width + inner.width,
                ordering: node.ordering,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use crate::context::EnumContext;
    use crate::optimizer::{Algorithm, Optimizer};
    use crate::sdp::SdpConfig;
    use sdp_catalog::Catalog;
    use sdp_cost::CostModel;
    use sdp_query::{infer_transitive_edges, QueryGenerator, Topology};

    #[test]
    fn recost_under_the_same_model_reproduces_the_cost() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        for topo in [
            Topology::Chain(6),
            Topology::Star(7),
            Topology::star_chain(8),
        ] {
            for seed in 0..3 {
                let mut q = QueryGenerator::new(&cat, topo, seed)
                    .with_filter_probability(0.3)
                    .instance(0);
                infer_transitive_edges(&mut q.graph);
                let classes = q.equiv_classes();
                let mut ctx = EnumContext::new(&q, &model, Budget::unlimited());
                let plan = crate::dp::optimize_complete(&mut ctx, None).unwrap();
                let re = recost(&plan, &model, &q.graph, &classes);
                let rel = (re - plan.cost).abs() / plan.cost;
                assert!(
                    rel < 1e-9,
                    "{topo} seed {seed}: optimizer {} vs recost {re}",
                    plan.cost
                );
            }
        }
    }

    #[test]
    fn recost_is_consistent_for_every_algorithm() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::star_chain(9), 2).ordered_instance(0);
        let optimizer = Optimizer::new(&cat);
        for alg in [
            Algorithm::Dp,
            Algorithm::Sdp(SdpConfig::paper()),
            Algorithm::Idp { k: 4 },
            Algorithm::Goo,
        ] {
            let plan = optimizer.optimize(&q, alg).unwrap();
            // The optimizer rewrites the graph (closure) before
            // planning; recost against the same rewritten graph.
            let mut rewritten = q.clone();
            infer_transitive_edges(&mut rewritten.graph);
            let classes = rewritten.equiv_classes();
            let re = recost(&plan.root, &model, &rewritten.graph, &classes);
            let rel = (re - plan.cost).abs() / plan.cost;
            assert!(rel < 1e-9, "{}: {} vs {re}", alg.label(), plan.cost);
        }
    }

    #[test]
    fn recost_under_different_statistics_differs() {
        use sdp_catalog::SchemaSpec;
        let cat = Catalog::paper();
        // A second catalog with the same shape but different RNG seed
        // (different index placement, domains).
        let other = sdp_catalog::SchemaBuilder::new(SchemaSpec {
            seed: 999,
            ..SchemaSpec::paper()
        })
        .build()
        .unwrap();
        let q = QueryGenerator::new(&cat, Topology::Star(6), 3).instance(0);
        let plan = Optimizer::new(&cat).optimize(&q, Algorithm::Dp).unwrap();
        let mut rewritten = q.clone();
        infer_transitive_edges(&mut rewritten.graph);
        let classes = rewritten.equiv_classes();
        let other_model = CostModel::with_defaults(&other);
        let re = recost(&plan.root, &other_model, &rewritten.graph, &classes);
        assert!(re.is_finite() && re > 0.0);
        assert!(
            (re - plan.cost).abs() / plan.cost > 1e-6,
            "different statistics should change the cost"
        );
    }
}
