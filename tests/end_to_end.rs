//! Cross-crate integration tests: full pipelines over generated networks,
//! engines vs. protocols vs. asynchronous (jittered-transport) runs.

use ftclust::core::fractional::protocol::run_fractional_stack;
use ftclust::core::fractional::{solve_fractional, FractionalParams};
use ftclust::core::prelude::*;
use ftclust::core::udg::protocol::{run_udg_stack, UdgMsg};
use ftclust::core::udg::UdgAlgorithm;
use ftclust::graphs::generators;
use ftclust::netsim::exec::Stack;
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::AdversaryPlan;

#[test]
fn pipeline_feasible_on_every_graph_family() {
    let graphs: Vec<(&str, ftclust::graphs::Graph)> = vec![
        ("gnp", generators::gnp(120, 0.06, 1)),
        ("gnm", generators::gnm(120, 350, 2)),
        ("ba", generators::barabasi_albert(120, 2, 3)),
        ("grid", generators::grid_2d(10, 12)),
        ("tree", generators::random_tree(120, 4)),
        ("cycle", generators::cycle(120)),
        ("star", generators::star(120)),
        (
            "rgg",
            generators::random_udg(120, 7.0, 1.0, 5).graph().clone(),
        ),
    ];
    for (name, g) in &graphs {
        for k in [1u32, 2, 3] {
            let inst = Instance::uniform_clamped(g, k);
            let run = GeneralPipeline::new(3).seed(k as u64).run(&inst).unwrap();
            assert!(
                is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf),
                "pipeline infeasible on {name}, k={k}"
            );
            let greedy = greedy_kmds(&inst, Semantics::CoverSelf);
            assert!(
                is_k_dominating_instance(&inst, &greedy, Semantics::CoverSelf),
                "greedy infeasible on {name}, k={k}"
            );
        }
    }
}

#[test]
fn udg_algorithm_feasible_across_densities() {
    for (n, deg) in [(100u32, 4.0), (400, 10.0), (900, 18.0)] {
        for k in [1u32, 2, 4] {
            let udg = generators::random_udg(n, deg, 1.0, (n as u64) * 7 + k as u64);
            let run = UdgAlgorithm::new(k).seed(k as u64).run(&udg).unwrap();
            assert!(
                is_k_dominating(udg.graph(), &run.set, k, Semantics::Strict),
                "UDG algorithm infeasible at n={n}, deg={deg}, k={k}"
            );
        }
    }
}

#[test]
fn three_execution_modes_agree_exactly() {
    // Engine, synchronous protocol and asynchronous protocol (the
    // transport with every frame delayed by 1..=4 rounds) must produce
    // bit-identical fractional solutions.
    let g = generators::gnp(50, 0.12, 9);
    let inst = Instance::uniform_clamped(&g, 2);
    let params = FractionalParams::new(3);
    let engine = solve_fractional(&inst, &params).unwrap();
    let synchronous = run_fractional_stack(&inst, &params, Stack::new())
        .unwrap()
        .0
        .solution;
    let rto = 2 * (4 + 1) + 1;
    let cfg = TransportConfig {
        rto,
        backoff_cap: rto.max(16),
        max_retransmits: 20,
    };
    let stack = Stack::new()
        .transport(cfg)
        .adversarial(AdversaryPlan::new(9).jitter(1.0, 4));
    let (asynchronous, _) = run_fractional_stack(&inst, &params, stack).unwrap();
    assert_eq!(engine, synchronous);
    assert_eq!(engine, asynchronous.solution);
}

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn udg_protocol_and_engine_agree_on_clustered_deployments() {
    let udg = generators::clustered_udg(250, 5, 10.0, 0.7, 1.0, 31);
    let config = UdgAlgorithm::new(2).seed(12);
    let (proto, _) = run_udg_stack(&udg, &config, Stack::new()).unwrap();
    // The in-memory engine, since deleted, computed exactly this run.
    let run = &proto.run;
    assert_eq!(run.active_history, [242, 234, 201, 134, 71, 55]);
    assert_eq!((run.part1_rounds, run.part2_iterations), (6, 0));
    assert_eq!(run.leaders, run.set);
    let members = run.set.as_members().iter().map(|&b| u8::from(b));
    assert_eq!(fnv1a(members), 0x72dd_8c15_5353_969c);
    // Communication stays within the model's budget.
    assert!(proto.metrics.max_message_bits <= UdgMsg::max_bits(250) as u64);
}

#[test]
fn serde_roundtrip_of_graphs_through_edge_lists() {
    let g = generators::barabasi_albert(60, 2, 8);
    let text = ftclust::graphs::io::write_edge_list(&g);
    let back = ftclust::graphs::io::read_edge_list(&text).unwrap();
    assert_eq!(g, back);
    // The round-tripped graph supports the full pipeline.
    let inst = Instance::uniform_clamped(&back, 2);
    let run = GeneralPipeline::new(2).run(&inst).unwrap();
    assert!(is_k_dominating_instance(
        &inst,
        &run.set,
        Semantics::CoverSelf
    ));
}

#[test]
fn per_node_demands_flow_through_everything() {
    let g = generators::gnp(60, 0.15, 14);
    let demands: Vec<u32> = g
        .nodes()
        .map(|v| (v.raw() % 3).min(g.degree(v) as u32 + 1))
        .collect();
    let inst = Instance::with_demands(&g, demands).unwrap();
    let run = GeneralPipeline::new(2).seed(3).run(&inst).unwrap();
    assert!(is_k_dominating_instance(
        &inst,
        &run.set,
        Semantics::CoverSelf
    ));
    let greedy = greedy_kmds(&inst, Semantics::CoverSelf);
    assert!(is_k_dominating_instance(
        &inst,
        &greedy,
        Semantics::CoverSelf
    ));
    let jrs = ftclust::core::baselines::jrs_kmds(&inst, Semantics::CoverSelf, 5);
    assert!(is_k_dominating_instance(
        &inst,
        &jrs.set,
        Semantics::CoverSelf
    ));
}

#[test]
fn disconnected_graphs_are_handled() {
    // Two components + isolated nodes.
    let mut b = ftclust::graphs::GraphBuilder::new(10);
    for (u, v) in [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6)] {
        b.add_edge(u, v).unwrap();
    }
    let g = b.build();
    let inst = Instance::uniform_clamped(&g, 2);
    let run = GeneralPipeline::new(2).run(&inst).unwrap();
    assert!(is_k_dominating_instance(
        &inst,
        &run.set,
        Semantics::CoverSelf
    ));
    // Isolated nodes must be in the set.
    for v in [3u32, 7, 8, 9] {
        assert!(run.set.contains(ftclust::graphs::NodeId::new(v)));
    }
}
