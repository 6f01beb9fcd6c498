//! Fault-tolerance integration tests: the motivation of the paper,
//! exercised across the stack (clustering outputs + failure models +
//! simulator-level fault injection).

use ftclust::core::fault::{guarantee_holds, survivability, FailureModel};
use ftclust::core::prelude::*;
use ftclust::core::udg::UdgAlgorithm;
use ftclust::graphs::{generators, NodeId};
use ftclust::netsim::{
    ChurnPlan, Context, Control, Inbox, NodeLogic, Payload, Simulator, Topology,
};

#[test]
fn k_fold_sets_survive_k_minus_1_adversarial_failures() {
    for k in [2u32, 3, 4] {
        let udg = generators::random_udg(250, 11.0, 1.0, k as u64 * 13);
        let run = UdgAlgorithm::new(k).seed(k as u64).run(&udg).unwrap();
        let inst = Instance::uniform_clamped(udg.graph(), k);
        assert!(
            guarantee_holds(&inst, &run.set, k, 300, 5),
            "guarantee violated at k={k}"
        );
    }
}

#[test]
fn survivability_improves_monotonically_with_k() {
    let udg = generators::random_udg(400, 10.0, 1.0, 17);
    let inst = Instance::uniform_clamped(udg.graph(), 1);
    let mut fully = Vec::new();
    for k in [1u32, 2, 3, 5] {
        let run = UdgAlgorithm::new(k).seed(3).run(&udg).unwrap();
        let rep = survivability(
            &inst,
            &run.set,
            FailureModel::IidNodeFailure { prob: 0.25 },
            60,
            k as u64,
        )
        .unwrap();
        fully.push(rep.mean_covered_fraction);
    }
    for w in fully.windows(2) {
        assert!(
            w[1] >= w[0] - 0.03,
            "survivability not improving with k: {fully:?}"
        );
    }
    assert!(fully[fully.len() - 1] > fully[0] - 0.01);
}

#[test]
fn greedy_backbones_also_benefit_from_k() {
    // The fault analysis is algorithm-agnostic: greedy k-fold sets show
    // the same ordering.
    let g = generators::gnp(300, 0.04, 7);
    let inst1 = Instance::uniform_clamped(&g, 1);
    let mut res = Vec::new();
    for k in [1u32, 3] {
        let inst = Instance::uniform_clamped(&g, k);
        let set = greedy_kmds(&inst, Semantics::CoverSelf);
        let rep = survivability(
            &inst1,
            &set,
            FailureModel::IidNodeFailure { prob: 0.3 },
            50,
            9,
        )
        .unwrap();
        res.push(rep.mean_covered_fraction);
    }
    assert!(res[1] >= res[0], "k=3 should beat k=1: {res:?}");
}

/// Simulator-level fault injection composes with application protocols: a
/// gossip protocol on a k-fold backbone still floods when < k backbone
/// nodes crash mid-run.
#[test]
fn netsim_crash_injection_with_backbone_gossip() {
    #[derive(Clone, Debug)]
    struct Token(#[allow(dead_code)] u32); // sender id, carried for realism
    impl Payload for Token {
        fn bit_size(&self) -> usize {
            32
        }
    }
    /// Relay logic: backbone nodes rebroadcast tokens; leaves listen.
    struct Relay {
        backbone: bool,
        heard: bool,
        rounds: u64,
    }
    impl NodeLogic for Relay {
        type Payload = Token;
        fn on_round(&mut self, inbox: Inbox<'_, Token>, ctx: &mut Context<'_, Token>) -> Control {
            if ctx.round() == 0 && ctx.me() == NodeId::new(0) {
                self.heard = true; // the source
            }
            if !inbox.is_empty() {
                self.heard = true;
            }
            if ctx.round() >= self.rounds {
                return Control::Halt;
            }
            if self.heard && (self.backbone || ctx.me() == NodeId::new(0)) {
                ctx.broadcast(Token(ctx.me().raw()));
            }
            Control::Continue
        }
    }

    let udg = generators::random_udg_in_square(300, 6.0, 1.0, 21);
    let g = udg.graph();
    // Keep to the largest connected component's reachability: we simply
    // check nodes reachable from the source in the full graph.
    let reachable = ftclust::graphs::traversal::bfs_distances(g, NodeId::new(0));
    let run = UdgAlgorithm::new(3).seed(2).run(&udg).unwrap();
    let backbone = run.set.clone();
    // Crash two backbone nodes early.
    let victims: Vec<NodeId> = backbone.ids().filter(|v| v.raw() != 0).take(2).collect();
    // Victims come in ascending id order, so the crash events are too.
    let mut churn = ChurnPlan::none();
    for &v in &victims {
        churn = churn.crash(v, 3);
    }
    let rounds = 2 * g.node_count() as u64;
    let topo = Topology::from_udg(&udg);
    let mut sim = Simulator::with_churn(
        topo,
        |v| Relay {
            backbone: backbone.contains(v),
            heard: false,
            rounds: 600,
        },
        0,
        churn,
    );
    sim.run(rounds.max(700)).unwrap();
    // Every reachable node adjacent to the (mostly alive) backbone hears
    // the token — allow the victims' immediate dependents to be the only
    // possible misses, and require at least 95% delivery.
    let mut heard = 0;
    let mut total = 0;
    for v in g.nodes() {
        if reachable[v.index()].is_some() && !victims.contains(&v) {
            total += 1;
            if sim.logic(v).heard {
                heard += 1;
            }
        }
    }
    assert!(
        heard as f64 >= 0.95 * total as f64,
        "flood reached only {heard}/{total} despite 3-fold backbone"
    );
}

#[test]
fn message_loss_degrades_gracefully_not_catastrophically() {
    // With a k=3 backbone and 10% message loss, a 3-round beacon exchange
    // still reaches nearly everyone (each client has ≥3 independent
    // chances per round).
    #[derive(Clone, Debug)]
    struct Beacon;
    impl Payload for Beacon {
        fn bit_size(&self) -> usize {
            1
        }
    }
    struct Head {
        is_head: bool,
        heard: u32,
    }
    impl NodeLogic for Head {
        type Payload = Beacon;
        fn on_round(&mut self, inbox: Inbox<'_, Beacon>, ctx: &mut Context<'_, Beacon>) -> Control {
            self.heard += inbox.len() as u32;
            if ctx.round() >= 4 {
                return Control::Halt;
            }
            if self.is_head {
                ctx.broadcast(Beacon);
            }
            Control::Continue
        }
    }
    let udg = generators::random_udg(400, 12.0, 1.0, 33);
    let run = UdgAlgorithm::new(3).seed(1).run(&udg).unwrap();
    let set = run.set.clone();
    let topo = Topology::from_udg(&udg);
    let mut sim = Simulator::new(
        topo,
        |v| Head {
            is_head: set.contains(v),
            heard: 0,
        },
        7,
    );
    sim.set_loss(0.10);
    sim.run(10).unwrap();
    let silent = udg
        .graph()
        .nodes()
        .filter(|&v| !set.contains(v) && sim.logic(v).heard == 0)
        .count();
    let clients = udg.graph().node_count() - set.len();
    assert!(
        (silent as f64) < 0.02 * clients as f64 + 2.0,
        "{silent}/{clients} clients heard nothing despite 3-fold redundancy"
    );
    assert!(
        sim.metrics().dropped_messages > 0,
        "loss injection did not fire"
    );
}
