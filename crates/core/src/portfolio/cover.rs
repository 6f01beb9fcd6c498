//! Shared cover-growth skeleton of the distributed portfolio protocols.
//!
//! Both [`super::pb`] and [`super::dkm`] grow a
//! [`crate::validate::Semantics::CoverSelf`] k-fold dominating set
//! through the same repeating **3-round iteration**, differing only in
//! the election rule:
//!
//! 1. **Status** — every active node folds the previous iteration's
//!    `Joined` announcements into its coverage count and broadcasts its
//!    residual demand.
//! 2. **Candidacy** — nodes refresh their neighbors' residuals from the
//!    statuses; a node whose closed neighborhood is fully satisfied
//!    halts. Non-members with positive *span* (number of still-needy
//!    closed neighbors they would newly cover) declare candidacy.
//! 3. **Election** — a candidate joins the set iff its election key
//!    beats every candidate neighbor's; joiners announce `Joined`.
//!
//! Since the globally extremal candidate always wins its neighborhood,
//! every iteration with a needy node adds at least one member, so the
//! protocol terminates within `n + 1` iterations; in practice many
//! independent local winners join per iteration. Halting is staggered —
//! a node may stop while distant regions keep growing — which the
//! simulator and the reliable transport both support: messages to a
//! halted node are delivered (and acknowledged) but never read, and
//! residuals are monotone, so a halted node can never be needed again.
//!
//! ### Message-size accounting
//!
//! Residuals and spans are bounded by `δ(v) + 1`, so both are metered
//! at their logarithmic width via [`bits_for_ids`]; candidacy
//! declarations without a bid and `Joined` announcements are 1-bit
//! beacons. No flat words are transmitted — the skeleton is
//! CONGEST-conformant with `O(log Δ)` bits per message
//! ([`CoverMsg::max_bits`]).

use crate::{DominatingSet, Instance, KmdsError};
use ftclust_graphs::NodeId;
use ftclust_netsim::exec::{Executor, Phase, Stack};
use ftclust_netsim::{
    bits_for_ids, Context, Control, EventLog, Inbox, NodeLogic, Payload, Topology,
};

use super::PortfolioRun;

/// Election rule distinguishing the distributed portfolio protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Election {
    /// Penso–Barbosa-style layered growth: the hashed-id local minimum
    /// among candidates wins, obliviously to coverage gain.
    LayeredId,
    /// Deurer–Kuhn–Maus-style greedy rounding: the local span maximum
    /// wins, hashed id as tie-break.
    GreedySpan,
}

/// Wire messages of the cover-growth skeleton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverMsg {
    /// A node's residual demand, broadcast each status round.
    Status {
        /// How many more closed-neighborhood members the sender needs.
        residual: u32,
    },
    /// Presence-only candidacy declaration (`Election::LayeredId`:
    /// the election key is the hashed sender id, which the receiver
    /// derives from the envelope).
    Candidate,
    /// Candidacy bid carrying the sender's span
    /// (`Election::GreedySpan`).
    SpanBid {
        /// Still-needy closed neighbors the sender would newly cover.
        span: u32,
    },
    /// The sender joined the dominating set this iteration.
    Joined,
}

impl CoverMsg {
    /// The CONGEST bound on every message in a graph of maximum degree
    /// `delta`: a residual or a span is at most `δ(v) + 1`, metered as
    /// one of `delta + 3` values.
    pub fn max_bits(delta: usize) -> usize {
        bits_for_ids(delta + 3)
    }
}

impl Payload for CoverMsg {
    fn bit_size(&self) -> usize {
        match self {
            CoverMsg::Status { residual } => bits_for_ids(*residual as usize + 2),
            CoverMsg::Candidate => 1,
            CoverMsg::SpanBid { span } => bits_for_ids(*span as usize + 2),
            CoverMsg::Joined => 1,
        }
    }
}

/// `SplitMix64` finalizer used as the election priority. Raw node ids are
/// adversarial on grid-like families (row-major ids make the layered
/// election degenerate into a Θ(n) sequential sweep); hashing restores
/// the expected wide independent layers on every family, and keeps the
/// run deterministic — the priority depends on the id alone.
fn mix(v: NodeId) -> u64 {
    let mut z = (v.index() as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-node state of the cover-growth skeleton.
#[derive(Debug)]
pub(crate) struct CoverNode {
    election: Election,
    demand: u32,
    /// Whether this node is in the dominating set.
    pub(crate) member: bool,
    /// Members observed in the closed neighborhood (self included once
    /// joined).
    covered: u32,
    /// Last-known residual per sorted neighbor. Halted neighbors stop
    /// broadcasting, but their final status was 0 and residuals are
    /// monotone non-increasing, so the stale value stays correct.
    nres: Vec<u32>,
    /// Whether this node declared candidacy in the current iteration.
    bidding: bool,
    /// The span bid backing the declaration.
    my_span: u32,
}

impl CoverNode {
    fn new(election: Election, demand: u32) -> Self {
        CoverNode {
            election,
            demand,
            member: false,
            covered: 0,
            nres: Vec::new(),
            bidding: false,
            my_span: 0,
        }
    }

    fn residual(&self) -> u32 {
        self.demand.saturating_sub(self.covered)
    }

    /// `true` iff this node's key beats the rival's — a strict total
    /// order (ids are distinct), so adjacent candidates always agree on
    /// their relative rank.
    fn beats(&self, me: NodeId, rival: NodeId, rival_span: u32) -> bool {
        match self.election {
            Election::LayeredId => (mix(me), me.index()) < (mix(rival), rival.index()),
            Election::GreedySpan => {
                (
                    self.my_span,
                    std::cmp::Reverse(mix(me)),
                    std::cmp::Reverse(me.index()),
                ) > (
                    rival_span,
                    std::cmp::Reverse(mix(rival)),
                    std::cmp::Reverse(rival.index()),
                )
            }
        }
    }
}

impl NodeLogic for CoverNode {
    type Payload = CoverMsg;

    fn on_round(&mut self, inbox: Inbox<'_, CoverMsg>, ctx: &mut Context<'_, CoverMsg>) -> Control {
        match ctx.round() % 3 {
            0 => {
                // Status round: fold in the joins announced last
                // election round, then broadcast the updated residual.
                if ctx.round() == 0 {
                    self.nres = vec![u32::MAX; ctx.degree()];
                } else {
                    for env in inbox {
                        match *env.payload {
                            CoverMsg::Joined => self.covered += 1,
                            _ => unreachable!("status round expects Joined"),
                        }
                    }
                }
                ctx.broadcast(CoverMsg::Status {
                    residual: self.residual(),
                });
                Control::Continue
            }
            1 => {
                // Candidacy round: refresh neighbor residuals, halt on
                // a fully satisfied closed neighborhood, else bid.
                for env in inbox {
                    match *env.payload {
                        CoverMsg::Status { residual } => {
                            // The simulator only delivers along topology edges.
                            let Ok(o) = ctx.neighbors().binary_search(&env.from) else {
                                unreachable!("status from a non-neighbor");
                            };
                            self.nres[o] = residual;
                        }
                        _ => unreachable!("candidacy round expects Status"),
                    }
                }
                if self.residual() == 0 && self.nres.iter().all(|&r| r == 0) {
                    return Control::Halt;
                }
                self.my_span = u32::from(self.residual() > 0)
                    + self
                        .nres
                        .iter()
                        .filter(|&&r| r > 0 && r != u32::MAX)
                        .count() as u32;
                self.bidding = !self.member && self.my_span > 0;
                if self.bidding {
                    match self.election {
                        Election::LayeredId => ctx.broadcast(CoverMsg::Candidate),
                        Election::GreedySpan => {
                            ctx.broadcast(CoverMsg::SpanBid { span: self.my_span });
                        }
                    }
                }
                Control::Continue
            }
            _ => {
                // Election round: a candidate joins iff it beats every
                // rival candidate in its neighborhood.
                if self.bidding {
                    let me = ctx.me();
                    let wins = inbox.iter().all(|env| match *env.payload {
                        CoverMsg::Candidate => self.beats(me, env.from, 0),
                        CoverMsg::SpanBid { span } => self.beats(me, env.from, span),
                        _ => unreachable!("election round expects bids"),
                    });
                    if wins {
                        self.member = true;
                        self.covered += 1;
                        ctx.broadcast(CoverMsg::Joined);
                    }
                    self.bidding = false;
                }
                Control::Continue
            }
        }
    }
}

/// Shared stack driver behind [`super::run_pb_stack`] and
/// [`super::run_dkm_stack`]: builds the skeleton with the given
/// election rule, runs it through the composable executor, and
/// assembles the set from the final member flags.
pub(crate) fn run_cover_stack(
    inst: &Instance<'_>,
    election: Election,
    span_name: &'static str,
    what: &str,
    stack: Stack,
) -> Result<(PortfolioRun, Option<EventLog>), KmdsError> {
    let g = inst.graph();
    let n = g.node_count() as u64;
    let transported = stack.engages_transport();
    // At least one join per 3-round iteration until every demand is
    // met (at most n joins), plus the all-quiet detection iteration.
    let budget = 3 * (n + 2) + 3;
    let run = Executor::new(
        Topology::from_graph(g),
        |v: NodeId| CoverNode::new(election, inst.demand(v)),
        0,
    )
    .stack(stack)
    .phases(vec![Phase::repeat(span_name, 3)])
    .run(budget)?;
    let set = DominatingSet::from_members(run.logics.iter().map(|l| l.member).collect());
    if cfg!(debug_assertions) {
        assert!(
            crate::validate::is_k_dominating_instance(
                inst,
                &set,
                crate::validate::Semantics::CoverSelf
            ),
            "{what}: assembled set violates CoverSelf demands"
        );
        if transported {
            let (lossless, _) = run_cover_stack(inst, election, span_name, what, Stack::new())?;
            crate::audit::loss_transparent(what, &set, &lossless.set);
        } else {
            crate::audit::congest(what, &run.metrics, CoverMsg::max_bits(g.max_degree()));
        }
    }
    Ok((
        PortfolioRun {
            set,
            metrics: run.metrics,
            logical_rounds: run.logical_rounds,
        },
        run.log,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_fit_their_congest_bound() {
        for n in [4usize, 1 << 20] {
            // Δ = n − 1, a complete graph: a residual or a span reaches
            // δ(v) + 1 = n.
            let delta = n - 1;
            let top = n as u32;
            for msg in [
                CoverMsg::Status { residual: top },
                CoverMsg::Candidate,
                CoverMsg::SpanBid { span: top },
                CoverMsg::Joined,
            ] {
                assert!(
                    msg.bit_size() <= CoverMsg::max_bits(delta),
                    "n = {n}: {msg:?}"
                );
            }
        }
    }
}
