//! Property tests for the packed bit-set coverage counter against the
//! scalar `Vec<bool>` path it replaced, plus a fixed-seed engine/protocol
//! parity regression guarding the bit-set conversion of the repair engine.

use ftclust_core::bitset::{coverage_counts, BitSet};
use ftclust_core::repair::{repair_coverage, run_repair_protocol};
use ftclust_core::udg::UdgAlgorithm;
use ftclust_graphs::{generators, Graph, NodeId};
use proptest::prelude::*;

/// The pre-conversion scalar scan: one byte per node, no packing.
fn scalar_coverage(g: &Graph, member: &[bool]) -> Vec<u32> {
    (0..g.node_count())
        .map(|i| {
            g.closed_neighbors(NodeId::new(i as u32))
                .filter(|w| member[w.index()])
                .count() as u32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On arbitrary graphs — sizes straddling the 64-bit word boundary,
    /// with isolated (degree-0) nodes kept by construction — the packed
    /// counter agrees with the scalar path bit for bit.
    #[test]
    fn bitset_coverage_matches_scalar(
        // Sizes across 1..=3 words; edges drawn mod n below, so isolated
        // nodes survive whenever the list leaves ids untouched.
        n in 1usize..200,
        edges in proptest::collection::vec((0u32..200, 0u32..200), 0..300),
        member_seed in proptest::collection::vec((0u32..2).prop_map(|b| b == 1), 200),
    ) {
        let mut b = ftclust_graphs::GraphBuilder::new(n as u32);
        for (u, v) in edges {
            let (u, v) = (u % n as u32, v % n as u32);
            if u != v {
                b.add_edge(u, v).unwrap();
            }
        }
        let g = b.build();
        let member: Vec<bool> = member_seed[..n].to_vec();
        let packed = BitSet::from_bools(&member);
        prop_assert_eq!(coverage_counts(&g, &packed), scalar_coverage(&g, &member));
    }

    /// Word-boundary stress: every length around multiples of 64, full
    /// membership patterns, on a cycle (so each count is exactly the
    /// membership in a 3-window and any packing slip shows).
    #[test]
    fn bitset_coverage_at_word_boundaries(off in 0usize..4, words in 1usize..4, seed in 0u64..u64::MAX) {
        let n = (words * 64 + off).max(3);
        let g = generators::cycle(n as u32);
        let member: Vec<bool> = (0..n).map(|i| (seed >> (i % 64)) & 1 == 1).collect();
        let packed = BitSet::from_bools(&member);
        prop_assert_eq!(coverage_counts(&g, &packed), scalar_coverage(&g, &member));
    }
}

#[test]
fn degree_zero_nodes_count_only_themselves() {
    // An empty graph: closed neighborhood = the node alone.
    let g = generators::empty(70); // crosses a word boundary
    let members = BitSet::from_fn(70, |i| i % 2 == 0);
    let cov = coverage_counts(&g, &members);
    for (i, &c) in cov.iter().enumerate() {
        assert_eq!(c, u32::from(i % 2 == 0), "isolated node {i}");
    }
}

/// Fixed-seed parity regression: the bit-set repair engine must keep
/// producing exactly what the (mask-free) repair protocol produces.
#[test]
fn repair_engine_protocol_parity_fixed_seed() {
    let udg = generators::random_udg(300, 10.0, 1.0, 77);
    let g = udg.graph();
    for seed in [9u64, 10, 11] {
        let run = UdgAlgorithm::new(2).seed(seed).run(&udg).unwrap();
        let mut alive = vec![true; g.node_count()];
        for v in run.set.ids().take(5) {
            alive[v.index()] = false;
        }
        let engine = repair_coverage(g, &run.set, &alive, 2).unwrap();
        let proto = run_repair_protocol(g, &run.set, &alive, 2).unwrap();
        assert_eq!(engine.set, proto.set, "seed {seed}: healed set");
        assert_eq!(engine.added, proto.added, "seed {seed}: additions");
        assert_eq!(
            engine.iterations, proto.iterations,
            "seed {seed}: iterations"
        );
    }
}
