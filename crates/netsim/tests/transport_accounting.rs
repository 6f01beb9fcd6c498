//! Regression tests for the transport's delivery/duplicate accounting.
//!
//! [`ftclust_netsim::Metrics::unique_delivered`] is a *plain*
//! subtraction `delivered - duplicates_suppressed`: the simulator
//! counts every suppressed duplicate as delivered in the same round it
//! is suppressed, so the difference can never go negative — per round,
//! not just at quiescence. These tests pin that invariant under the
//! nastiest producer of duplicates available: retransmission-heavy runs
//! with i.i.d. loss, a crash/recovery window, and random churn.

use ftclust_graphs::{generators, NodeId};
use ftclust_netsim::transport::{Reliable, TransportConfig};
use ftclust_netsim::{ChurnPlan, Context, Control, Inbox, NodeLogic, Payload, Simulator};
use ftclust_netsim::{Metrics, Topology};
use rand::Rng;

#[derive(Clone, Debug, PartialEq)]
struct Num(u64);
impl Payload for Num {
    fn bit_size(&self) -> usize {
        16
    }
}

/// Max-flood with per-round randomness, run for a fixed horizon.
#[derive(Debug, Clone, PartialEq)]
struct Recorder {
    best: u64,
    rounds: u64,
}

impl NodeLogic for Recorder {
    type Payload = Num;
    fn on_round(&mut self, inbox: Inbox<'_, Num>, ctx: &mut Context<'_, Num>) -> Control {
        for e in inbox {
            self.best = self.best.max(e.payload.0);
        }
        let _ = ctx.rng().random_range(0..100u64);
        if ctx.round() >= self.rounds {
            return Control::Halt;
        }
        ctx.broadcast(Num(self.best));
        Control::Continue
    }
}

/// The refined conservation law of a transport run, checked after every
/// physical round as well as at the end.
fn check_invariants(m: &Metrics, what: &str) {
    assert!(
        m.duplicates_suppressed <= m.delivered_messages,
        "{what}: duplicates_suppressed {} exceeds delivered {}",
        m.duplicates_suppressed,
        m.delivered_messages
    );
    assert_eq!(
        m.delivered_messages,
        m.unique_delivered() + m.duplicates_suppressed,
        "{what}: unique_delivered does not close the delivery split"
    );
    assert!(
        m.duplicates_suppressed <= m.retransmits,
        "{what}: only a retransmission can produce a duplicate"
    );
}

#[test]
fn unique_delivered_never_underflows_under_loss_and_churn() {
    let mut total_duplicates = 0u64;
    for seed in 0..24u64 {
        let g = generators::gnp(12, 0.3, seed);
        let churn = ChurnPlan::none()
            .crash(NodeId::new(1), 2)
            .recover(NodeId::new(1), 9)
            .random_churn(0.03, 0.4);
        let mut sim = Simulator::with_churn(
            Topology::from_graph(&g),
            |v| {
                Reliable::new(
                    Recorder {
                        best: u64::from(v.raw()),
                        rounds: 6,
                    },
                    TransportConfig::default(),
                )
            },
            seed,
            churn,
        );
        sim.set_loss(0.3);
        let mut rounds = 0u64;
        while sim.step() {
            rounds += 1;
            check_invariants(sim.metrics(), &format!("seed {seed} round {rounds}"));
            if sim.logics().all(Reliable::done) || rounds > 3000 {
                break;
            }
        }
        let m = sim.metrics();
        check_invariants(m, &format!("seed {seed} final"));
        total_duplicates += m.duplicates_suppressed;
    }
    assert!(
        total_duplicates > 0,
        "the sweep should actually exercise duplicate suppression"
    );
}
