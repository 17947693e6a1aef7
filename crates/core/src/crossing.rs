//! What a join of two disjoint sets crosses: the joint selectivity of
//! the connecting edges, their order classes, and whether either side
//! can be probed through an index. Per-edge terms are tabulated once
//! per query, so each summary is one pass over the edge list. The
//! enumerators' costing core, `recost` and the randomized searches
//! all read their join inputs from here.

use sdp_cost::{CostModel, Estimator, InnerIndex};
use sdp_query::{ClassId, ColRef, EquivClasses, JoinGraph, RelSet};

/// Crossing classes kept inline; a join crossing more spills to the
/// heap.
const INLINE_CLASSES: usize = 32;

/// One edge's costing terms.
#[derive(Debug, Clone, Copy)]
struct EdgeTerms {
    left: RelSet,
    right: RelSet,
    ln_selectivity: f64,
    class: Option<ClassId>,
    /// Index metadata of each side's relation, when it is indexed on
    /// that side's join column.
    left_index: Option<InnerIndex>,
    right_index: Option<InnerIndex>,
}

/// Per-edge terms of one join graph under one cost model, in edge
/// order.
#[derive(Debug, Clone)]
pub struct EdgeTable {
    edges: Vec<EdgeTerms>,
}

impl EdgeTable {
    /// Tabulate the `ln` selectivity, order class and per-side index
    /// availability of every edge of `graph`.
    pub fn new(model: &CostModel<'_>, graph: &JoinGraph, classes: &EquivClasses) -> Self {
        let catalog = model.catalog();
        let index = |c: ColRef| {
            let rel = graph.relation(c.node);
            let indexed = catalog
                .relation(rel)
                .expect("valid binding")
                .has_index_on(c.col);
            indexed.then(|| {
                let stats = catalog.stats(rel).expect("valid binding").relation;
                InnerIndex {
                    tuples: stats.tuples,
                    pages: stats.pages,
                }
            })
        };
        let edges = graph
            .edges()
            .iter()
            .map(|e| EdgeTerms {
                left: RelSet::single(e.left.node),
                right: RelSet::single(e.right.node),
                ln_selectivity: model.estimator().edge_selectivity(graph, e).ln(),
                class: classes.class_of(e.left),
                left_index: index(e.left),
                right_index: index(e.right),
            })
            .collect();
        EdgeTable { edges }
    }

    /// Summarize the edges crossing between disjoint sets `a` and `b`
    /// in one pass. The `ln` selectivities are summed in edge order,
    /// so [`Crossing::selectivity`] equals
    /// [`Estimator::crossing_selectivity`] to the last bit.
    pub fn crossing(&self, a: RelSet, b: RelSet) -> Crossing {
        let mut out = Crossing {
            selectivity: 1.0,
            first_class: None,
            index_into_a: None,
            index_into_b: None,
            len: 0,
            inline: [0; INLINE_CLASSES],
            spill: Vec::new(),
        };
        let mut ln = 0.0;
        for e in &self.edges {
            let (a_index, b_index) = if a.intersects(e.left) && b.intersects(e.right) {
                (e.left_index, e.right_index)
            } else if a.intersects(e.right) && b.intersects(e.left) {
                (e.right_index, e.left_index)
            } else {
                continue;
            };
            ln += e.ln_selectivity;
            if let Some(class) = e.class {
                out.first_class.get_or_insert(class);
                out.insert_class(class);
            }
            out.index_into_a = out.index_into_a.or(a_index);
            out.index_into_b = out.index_into_b.or(b_index);
        }
        out.selectivity = Estimator::selectivity_from_ln(ln);
        // Index nested-loop: the inner is a single base relation whose
        // indexed column is one of the crossing join columns.
        out.index_into_a = out.index_into_a.filter(|_| a.len() == 1);
        out.index_into_b = out.index_into_b.filter(|_| b.len() == 1);
        out
    }
}

/// The edges crossing between two disjoint sets `a` and `b`.
#[derive(Debug, Clone)]
pub struct Crossing {
    /// Joint selectivity of the crossing edges.
    pub selectivity: f64,
    /// Order class of the first crossing edge, in edge order.
    pub first_class: Option<ClassId>,
    /// Index metadata for an index nested-loop with `a` as the inner:
    /// present when `a` is one base relation indexed on a crossing
    /// join column.
    pub index_into_a: Option<InnerIndex>,
    /// The same, with `b` as the inner.
    pub index_into_b: Option<InnerIndex>,
    len: usize,
    inline: [ClassId; INLINE_CLASSES],
    spill: Vec<ClassId>,
}

impl Crossing {
    /// Distinct order classes of the crossing edges, ascending.
    pub fn classes(&self) -> &[ClassId] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    fn insert_class(&mut self, class: ClassId) {
        if !self.spill.is_empty() {
            if let Err(at) = self.spill.binary_search(&class) {
                self.spill.insert(at, class);
            }
            return;
        }
        let Err(at) = self.inline[..self.len].binary_search(&class) else {
            return;
        };
        if self.len < INLINE_CLASSES {
            self.inline.copy_within(at..self.len, at + 1);
            self.inline[at] = class;
            self.len += 1;
        } else {
            self.spill = self.inline.to_vec();
            self.spill.insert(at, class);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::Catalog;
    use sdp_query::{QueryGenerator, Topology};

    #[test]
    fn classes_spill_past_the_inline_buffer_sorted_and_deduplicated() {
        let cat = Catalog::paper();
        let model = CostModel::with_defaults(&cat);
        let q = QueryGenerator::new(&cat, Topology::Chain(2), 1).instance(0);
        let table = EdgeTable::new(&model, &q.graph, &q.equiv_classes());
        let mut crossing = table.crossing(RelSet::single(0), RelSet::single(1));
        let wanted: Vec<ClassId> = (0..2 * INLINE_CLASSES as ClassId).collect();
        for &class in wanted.iter().rev().chain(&wanted) {
            crossing.insert_class(class);
        }
        assert_eq!(crossing.classes(), &wanted[..]);
    }
}
