//! Golden pins for join costing at benchmark scale.
//!
//! Each case pins `(plans_costed, cost.to_bits(), root structural
//! digest)` of one optimization: exhaustive DP on Star-14, Clique-9 and
//! Star-Chain-14 over `Catalog::paper()`, and paper-config SDP on
//! Star-25 and ordered Star-Chain-25 over `Catalog::extended(64)`, all
//! instance 0 of generator seed 7 (the queries of the `dp-exhaustive`
//! and `sdp-large` benchmark workloads). The values were recorded with
//! the per-candidate `join_candidates` costing loop that preceded the
//! precomputed join kernel, so any change to costing that moves a plan,
//! a counter or a single cost bit fails here. The proptests stop at 12
//! relations; these pins are the comparison at the scale the benchmark
//! claims.
//!
//! The optimizer reads `SDP_THREADS` and `SDP_ENUMERATOR`, so the pins
//! hold under every parallelism and pair generator CI runs.

use sdp::prelude::*;

struct Pin {
    label: &'static str,
    plans_costed: u64,
    cost_bits: u64,
    digest: u64,
}

const DP_PINS: [Pin; 3] = [
    Pin {
        label: "Star-14",
        plans_costed: 692_252,
        cost_bits: 0x40f8_2b07_f2ee_25d9,
        digest: 0x2b45_4875_62a7_8e91,
    },
    Pin {
        label: "Clique-9",
        plans_costed: 1_360_074,
        cost_bits: 0x4063_1540_2f90_a2db,
        digest: 0xd96f_fe75_04db_be2b,
    },
    Pin {
        label: "Star-Chain-14",
        plans_costed: 127_760,
        cost_bits: 0x40fe_4028_415a_da9e,
        digest: 0x4b4a_de87_fe79_11ca,
    },
];

const SDP_PINS: [Pin; 2] = [
    Pin {
        label: "Star-25",
        plans_costed: 49_723,
        cost_bits: 0x4108_5556_b937_df51,
        digest: 0xcf93_54b8_085f_2e80,
    },
    Pin {
        label: "Star-Chain-25 ordered",
        plans_costed: 80_727,
        cost_bits: 0x4109_fdb7_f41f_0ee8,
        digest: 0x5a32_606e_9c08_92e0,
    },
];

const INSTANCE_SEED: u64 = 7;

fn check(catalog: &Catalog, query: &Query, algorithm: Algorithm, pin: &Pin) {
    let plan = Optimizer::new(catalog).optimize(query, algorithm).unwrap();
    let got = (
        plan.stats.plans_costed,
        plan.cost.to_bits(),
        plan.root.structural_digest(),
    );
    assert_eq!(
        got,
        (pin.plans_costed, pin.cost_bits, pin.digest),
        "{} {}: got plans_costed {}, cost_bits {:#x}, digest {:#x}",
        algorithm.label(),
        pin.label,
        got.0,
        got.1,
        got.2
    );
}

#[test]
fn dp_plans_match_golden_pins() {
    let catalog = Catalog::paper();
    let topologies = [
        Topology::Star(14),
        Topology::Clique(9),
        Topology::star_chain(14),
    ];
    for (topology, pin) in topologies.into_iter().zip(&DP_PINS) {
        let query = QueryGenerator::new(&catalog, topology, INSTANCE_SEED).instance(0);
        check(&catalog, &query, Algorithm::Dp, pin);
    }
}

#[test]
fn sdp_plans_match_golden_pins() {
    let catalog = Catalog::extended(64);
    let star = QueryGenerator::new(&catalog, Topology::Star(25), INSTANCE_SEED).instance(0);
    let star_chain =
        QueryGenerator::new(&catalog, Topology::star_chain(25), INSTANCE_SEED).ordered_instance(0);
    let sdp = Algorithm::Sdp(SdpConfig::paper());
    check(&catalog, &star, sdp, &SDP_PINS[0]);
    check(&catalog, &star_chain, sdp, &SDP_PINS[1]);
}
