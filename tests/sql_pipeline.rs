//! SQL front-end integration: text → parse → bind → optimize →
//! execute, and the render/parse round trip across the whole
//! generator space.

use proptest::prelude::*;
use sdp::prelude::*;

#[test]
fn sql_text_pipeline_matches_programmatic_queries() {
    // A query built by hand through SQL must optimize identically to
    // the same query built programmatically.
    let catalog = Catalog::paper();
    let programmatic = {
        let edges = vec![
            JoinEdge::new(ColRef::new(0, ColId(0)), ColRef::new(1, ColId(2))),
            JoinEdge::new(ColRef::new(0, ColId(1)), ColRef::new(2, ColId(5))),
        ];
        Query::new(JoinGraph::new(vec![RelId(24), RelId(3), RelId(7)], edges))
    };
    let sql = "SELECT * FROM R24 t0, R3 t1, R7 t2 WHERE t0.c0 = t1.c2 AND t0.c1 = t2.c5";
    let parsed = parse_query(&catalog, sql).unwrap();

    let optimizer = Optimizer::new(&catalog);
    let a = optimizer.optimize(&programmatic, Algorithm::Dp).unwrap();
    let b = optimizer.optimize(&parsed, Algorithm::Dp).unwrap();
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.rows, b.rows);
}

#[test]
fn sql_queries_execute_on_scaled_data() {
    let catalog = scaled_catalog(8, 500, 3);
    let db = Database::generate(&catalog, 9);
    // Scaled catalog names follow the same R<i> convention.
    let sql = "SELECT * FROM R6 a, R7 b WHERE a.c0 = b.c1 AND a.c2 < 100 ORDER BY b.c1";
    let query = parse_query(&catalog, sql).unwrap();
    let plan = Optimizer::new(&catalog)
        .optimize(&query, Algorithm::Sdp(SdpConfig::paper()))
        .unwrap();
    let rows = execute(&plan.root, &query, &catalog, &db).unwrap();
    // Filter respected.
    let c2 = 2; // node 0 columns come first in canonical layout
    for row in &rows {
        assert!(row[c2] < 100);
    }
}

/// `SELECT * FROM R0 t0, R0 t1, … WHERE t0.c0 = t1.c0 AND …`: a
/// self-join chain over `n` aliases of one relation.
fn self_join_chain(n: usize) -> String {
    let from: Vec<String> = (0..n).map(|i| format!("R0 t{i}")).collect();
    let on: Vec<String> = (1..n).map(|i| format!("t{}.c0 = t{i}.c0", i - 1)).collect();
    format!(
        "SELECT * FROM {} WHERE {}",
        from.join(", "),
        on.join(" AND ")
    )
}

#[test]
fn from_list_beyond_64_relations_is_a_bind_error() {
    let catalog = Catalog::paper();
    let query = parse_query(&catalog, &self_join_chain(64)).unwrap();
    assert_eq!(query.graph.len(), 64);
    match parse_query(&catalog, &self_join_chain(65)) {
        Err(sdp::sql::SqlError::Bind { message }) => {
            assert!(message.contains("65 relations"), "{message}")
        }
        other => panic!("expected a bind error, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generator-produced query survives the SQL round trip with
    /// its structure intact, across topologies, seeds, filters and
    /// ordered variants.
    #[test]
    fn render_parse_round_trip(
        topo_kind in 0usize..5,
        n in 4usize..10,
        seed in 0u64..10_000,
        filters in any::<bool>(),
        ordered in any::<bool>(),
    ) {
        let catalog = Catalog::paper();
        let topo = match topo_kind {
            0 => Topology::Chain(n),
            1 => Topology::Star(n),
            2 => Topology::Cycle(n),
            3 => Topology::Clique(n.min(7)),
            _ => Topology::star_chain(n.max(5)),
        };
        let gen = QueryGenerator::new(&catalog, topo, seed)
            .with_filter_probability(if filters { 0.7 } else { 0.0 });
        let original = if ordered {
            gen.ordered_instance(0)
        } else {
            gen.instance(0)
        };
        let sql = render_sql(&catalog, &original);
        let parsed = parse_query(&catalog, &sql).unwrap();
        prop_assert_eq!(parsed.graph.relations(), original.graph.relations());
        prop_assert_eq!(parsed.graph.edges(), original.graph.edges());
        prop_assert_eq!(parsed.graph.filters(), original.graph.filters());
        prop_assert_eq!(parsed.order_by, original.order_by);
    }

    /// Optimizing the rendered SQL gives the identical plan cost.
    #[test]
    fn round_trip_preserves_plan_costs(seed in 0u64..1000) {
        let catalog = Catalog::paper();
        let original = QueryGenerator::new(&catalog, Topology::star_chain(7), seed)
            .with_filter_probability(0.5)
            .instance(0);
        let parsed = parse_query(&catalog, &render_sql(&catalog, &original)).unwrap();
        let optimizer = Optimizer::new(&catalog);
        let a = optimizer
            .optimize(&original, Algorithm::Sdp(SdpConfig::paper()))
            .unwrap();
        let b = optimizer
            .optimize(&parsed, Algorithm::Sdp(SdpConfig::paper()))
            .unwrap();
        prop_assert_eq!(a.cost, b.cost);
    }
}
