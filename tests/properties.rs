//! Property-based integration tests: random instances through every
//! algorithm, with the invariants the paper proves.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration-test helpers outside `#[test]` abort the test on failure"
)]

use ftclust::core::baselines::{exact_kmds, greedy_kmds, jrs_kmds};
use ftclust::core::fractional::{solve_fractional, FractionalParams};
use ftclust::core::prelude::*;
use ftclust::core::rounding::{round_fractional, RoundingParams};
use ftclust::core::udg::UdgAlgorithm;
use ftclust::geometry::Point;
use ftclust::graphs::{generators, Graph, UnitDiskGraph};
use ftclust::lp::solve as lp_solve;
use ftclust::netsim::exec::{Executor, Stack};
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::{
    AdversaryPlan, ChurnPlan, Context, Control, Inbox, Metrics, NodeLogic, Payload, Simulator,
    Topology,
};
use proptest::prelude::*;

/// One-bit chatter payload for the conservation-law tests.
#[derive(Clone, Debug)]
struct Ping;

impl Payload for Ping {
    fn bit_size(&self) -> usize {
        1
    }
}

/// Broadcasts every round for `ttl` rounds, then halts.
struct Chatter {
    ttl: u64,
}

impl NodeLogic for Chatter {
    type Payload = Ping;

    fn on_round(&mut self, _inbox: Inbox<'_, Ping>, ctx: &mut Context<'_, Ping>) -> Control {
        ctx.broadcast(Ping);
        if ctx.round() + 1 >= self.ttl {
            Control::Halt
        } else {
            Control::Continue
        }
    }
}

/// The transport-extended conservation law: every sent message is
/// delivered exactly once, suppressed as a duplicate, dropped by the
/// link, dead on arrival, or still in flight — and duplicates can only
/// come from retransmissions.
fn assert_conservation(m: &Metrics, in_flight: u64) {
    assert_eq!(
        m.messages,
        m.unique_delivered()
            + m.duplicates_suppressed
            + m.dropped_messages
            + m.dead_on_arrival
            + in_flight,
        "conservation law violated"
    );
    assert!(m.duplicates_suppressed <= m.retransmits);
    assert!(m.retransmits + m.acks <= m.messages);
}

fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (
        2u32..40,
        proptest::collection::vec((0u32..40, 0u32..40), 0..150),
    )
        .prop_map(|(n, edges)| {
            let mut b = ftclust::graphs::GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v && u < n && v < n {
                    b.add_edge(u, v).unwrap();
                }
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every algorithm produces a feasible set on arbitrary graphs, and
    /// the exact optimum is never beaten.
    #[test]
    fn all_algorithms_feasible_and_ordered(g in arbitrary_graph(), k in 1u32..4, seed in 0u64..1000) {
        let inst = Instance::uniform_clamped(&g, k);
        let greedy = greedy_kmds(&inst, Semantics::CoverSelf);
        prop_assert!(is_k_dominating_instance(&inst, &greedy, Semantics::CoverSelf));
        let jrs = jrs_kmds(&inst, Semantics::CoverSelf, seed);
        prop_assert!(is_k_dominating_instance(&inst, &jrs.set, Semantics::CoverSelf));
        let pipeline = GeneralPipeline::new(2).seed(seed).run(&inst).unwrap();
        prop_assert!(is_k_dominating_instance(&inst, &pipeline.set, Semantics::CoverSelf));
        if let Some(opt) = exact_kmds(&inst, Semantics::CoverSelf) {
            prop_assert!(is_k_dominating_instance(&inst, &opt, Semantics::CoverSelf));
            prop_assert!(opt.len() <= greedy.len());
            prop_assert!(opt.len() <= jrs.set.len());
            prop_assert!(opt.len() <= pipeline.set.len());
        }
    }

    /// The fractional solver's primal is feasible, its scaled dual is
    /// feasible, and the certified bound brackets the exact LP optimum.
    #[test]
    fn fractional_certificates_bracket_lp(g in arbitrary_graph(), k in 1u32..3, t in 1u32..5) {
        let inst = Instance::uniform_clamped(&g, k);
        let sol = solve_fractional(&inst, &FractionalParams::new(t)).unwrap();
        prop_assert!(sol.is_primal_feasible(&inst, 1e-7));
        prop_assert!(sol.is_scaled_dual_feasible(&inst, 1e-7));
        prop_assert_eq!(sol.lemma41_violations, 0);
        let lp_opt = lp_solve(&inst.to_lp()).unwrap().value;
        prop_assert!(sol.lower_bound <= lp_opt + 1e-6);
        prop_assert!(sol.value >= lp_opt - 1e-6);
        prop_assert!(sol.value <= sol.theorem_4_5_bound() * lp_opt.max(1e-12) + 1e-6);
    }

    /// Rounding with repair is always feasible, from any fractional vector.
    #[test]
    fn rounding_repair_always_feasible(
        g in arbitrary_graph(),
        k in 1u32..3,
        seed in 0u64..1000,
        scale in 0.0f64..1.0,
    ) {
        let inst = Instance::uniform_clamped(&g, k);
        let x = vec![scale; g.node_count()];
        let out = round_fractional(&inst, &x, g.max_degree(), seed, &RoundingParams::default());
        prop_assert!(is_k_dominating_instance(&inst, &out.set, Semantics::CoverSelf));
    }

    /// The UDG algorithm is strictly feasible on arbitrary point clouds.
    #[test]
    fn udg_algorithm_feasible_on_point_clouds(
        coords in proptest::collection::vec((0.0f64..8.0, 0.0f64..8.0), 1..80),
        k in 1u32..4,
        seed in 0u64..100,
    ) {
        let pts: Vec<Point> = coords.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let udg = UnitDiskGraph::build(pts, 1.0).unwrap();
        let run = UdgAlgorithm::new(k).seed(seed).run(&udg).unwrap();
        prop_assert!(is_k_dominating(udg.graph(), &run.set, k, Semantics::Strict));
        // Part I is a plain dominating set (Lemma 5.1).
        prop_assert!(is_k_dominating(udg.graph(), &run.leaders, 1, Semantics::Strict));
        // Monotone sparsification.
        for w in run.active_history.windows(2) {
            prop_assert!(w[1] <= w[0]);
        }
    }

    /// LP optimum ≤ integral optimum (relaxation), on tiny instances.
    #[test]
    fn lp_relaxation_lower_bounds_ilp(n in 2u32..12, p in 0.1f64..0.9, seed in 0u64..50, k in 1u32..3) {
        let g = generators::gnp(n, p, seed);
        let inst = Instance::uniform_clamped(&g, k);
        let lp_opt = lp_solve(&inst.to_lp()).unwrap().value;
        let ilp = exact_kmds(&inst, Semantics::CoverSelf).unwrap().len() as f64;
        prop_assert!(lp_opt <= ilp + 1e-6, "LP {lp_opt} > ILP {ilp}");
    }

    /// Coverage accounting: removing any member of a minimal-by-inclusion
    /// set breaks something — i.e. our validator actually discriminates.
    #[test]
    fn validator_detects_single_removals(g in arbitrary_graph(), seed in 0u64..100) {
        let inst = Instance::uniform_clamped(&g, 1);
        let mut set = greedy_kmds(&inst, Semantics::CoverSelf);
        // Prune to inclusion-minimality.
        let ids: Vec<_> = set.ids().collect();
        for v in ids {
            set.remove(v);
            if !is_k_dominating_instance(&inst, &set, Semantics::CoverSelf) {
                set.insert(v);
            }
        }
        // Now every single removal must be detected.
        let ids: Vec<_> = set.ids().collect();
        for v in ids {
            set.remove(v);
            prop_assert!(!is_k_dominating_instance(&inst, &set, Semantics::CoverSelf));
            set.insert(v);
        }
        let _ = seed;
    }

    /// The conservation law holds after every round under random node
    /// churn plus random message loss (raw simulator, no transport):
    /// transport counters stay zero and every message is delivered,
    /// dropped, dead on arrival, or in flight.
    #[test]
    fn message_conservation_under_churn_and_loss(
        g in arbitrary_graph(),
        p in 0.0f64..0.6,
        seed in 0u64..1000,
        events in proptest::collection::vec((0u32..40, 0u64..10, 1u64..6), 0..8),
    ) {
        let n = g.node_count() as u32;
        let mut plan = ChurnPlan::none();
        let mut scheduled = Vec::new();
        for (v, at, dur) in events {
            if v < n && !scheduled.contains(&v) {
                scheduled.push(v);
                plan = plan
                    .crash(ftclust::graphs::NodeId::new(v), at)
                    .recover(ftclust::graphs::NodeId::new(v), at + dur);
            }
        }
        let mut sim = Simulator::with_churn(
            Topology::from_graph(&g),
            |_| Chatter { ttl: 8 },
            seed,
            plan,
        );
        sim.set_loss(p);
        for _ in 0..40 {
            let running = sim.step();
            assert_conservation(sim.metrics(), sim.in_flight_messages());
            prop_assert_eq!(sim.metrics().retransmits, 0);
            prop_assert_eq!(sim.metrics().duplicates_suppressed, 0);
            if !running {
                break;
            }
        }
    }

    /// The conservation law extends to the reliable transport's counters
    /// under random loss and a partition: retransmissions and pure acks
    /// are metered messages, duplicates only arise from retransmissions,
    /// and the logical execution always completes its fixed round count.
    #[test]
    fn transport_conservation_under_loss(
        g in arbitrary_graph(),
        p in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let mut cut = AdversaryPlan::new(0);
        if let Some((u, _)) = g.edges().next() {
            cut = cut.partition(&[u], 2..8);
        }
        let stack = Stack::new()
            .lossy(p)
            .transport(TransportConfig::default())
            .adversarial(cut);
        let run = Executor::new(Topology::from_graph(&g), |_| Chatter { ttl: 4 }, seed)
            .stack(stack)
            .run(4)
            .unwrap();
        prop_assert_eq!(run.logical_rounds, 4);
        // The run stops on the all-done observation, so the only frames
        // possibly still in flight are ARQ traffic: retransmitted copies
        // of already-delivered data, or pure acks.
        let m = &run.metrics;
        let accounted = m.unique_delivered()
            + m.duplicates_suppressed
            + m.dropped_messages
            + m.dead_on_arrival;
        prop_assert!(accounted <= m.messages, "more messages accounted than sent");
        prop_assert!(m.messages - accounted <= m.retransmits + m.acks);
        prop_assert!(m.duplicates_suppressed <= m.retransmits);
        prop_assert!(m.retransmits + m.acks <= m.messages);
    }
}
