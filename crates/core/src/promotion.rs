//! The promotion loop: the epoch state machine that grows a seed set until
//! every non-member has `k` members among its neighbours.
//!
//! Algorithm 3's Part II ("extend the leader set to a k-fold dominating
//! set") and the coverage repair of [`crate::repair`] are this one loop
//! with different seeds: Part II starts from Part I's leaders, repair from
//! the surviving members. Loop round 0 is a [`PromotionMsg::Status`]
//! broadcast from every node, from which each node counts the members in
//! its closed neighbourhood (`cov`). Then iterations of three rounds
//! repeat:
//!
//! 1. *Needy* — a non-member with `cov < k` broadcasts
//!    [`PromotionMsg::Needy`].
//! 2. *Re-election* — every member promotes the `k` lowest-id needy
//!    neighbours it heard (all of them if fewer; the paper's line 20
//!    leaves the choice open); a needy node with degree `< k` or with no
//!    member neighbour (`cov = 0`) marks itself to join. A node that is
//!    not needy and heard no needy neighbour halts: membership only
//!    grows, so nothing around it can change again.
//! 3. *Join* — promoted and self-marked nodes become members and
//!    broadcast [`PromotionMsg::Join`]; the next needy round counts it.
//!
//! Only new members announce themselves after round 0, so a quiet
//! neighbourhood costs nothing, and the loop draws no randomness. The
//! loop ends: a needy node either has no member neighbour (it joins
//! itself) or has one, and a member that hears a needy neighbour promotes
//! at least one, so every iteration with a needy node adds a member.
//!
//! The join-itself rule is not in the paper's Part II, which assumes that
//! Part I's leaders dominate (Lemma 5.1). With the θ schedule they need
//! not: a node can end Part I with no leader within one hop, and no
//! leader could ever promote it or a connected cluster of such nodes
//! (DESIGN §5).
//!
//! Message sizes: every message is 1 bit ([`PromotionMsg::MAX_BITS`]).
//! A receiver tells the four apart by the round it arrives in (and a
//! `Status` by its one bit), so no tag goes on the wire. Algorithm 3
//! wraps these messages in its own payload without a tag bit; the
//! coverage repair sends them as they are. The continuous repair service
//! reuses the status, needy, re-election and join steps inside its
//! 4-round probe cycle.

use ftclust_graphs::NodeId;
use ftclust_netsim::{Context, Control, Inbox, Payload};

/// Wire messages of the promotion loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionMsg {
    /// Round-0 announcement of the sender's membership.
    Status {
        /// Whether the sender is in the set.
        member: bool,
    },
    /// "I am needy": the sender has fewer than `k` members around it.
    Needy,
    /// Promotion order from a member to a needy neighbour.
    Promote,
    /// New-member announcement (promoted or self-elected).
    Join,
}

impl PromotionMsg {
    /// The CONGEST bound on every message, at any `n`: one bit.
    pub const MAX_BITS: usize = 1;
}

impl Payload for PromotionMsg {
    fn bit_size(&self) -> usize {
        1
    }
}

/// A protocol payload that carries the loop's messages.
pub(crate) trait CarriesPromotion: Payload + From<PromotionMsg> {
    /// The loop message inside this payload, if it is one.
    fn promotion(&self) -> Option<PromotionMsg>;
}

/// The coverage repair sends the loop's messages bare.
impl CarriesPromotion for PromotionMsg {
    fn promotion(&self) -> Option<PromotionMsg> {
        Some(*self)
    }
}

/// The promotion targets among the (ascending) needy neighbours: the `k`
/// lowest ids, or all of them if fewer.
pub(crate) fn select_promotions(needy: &[NodeId], k: usize) -> &[NodeId] {
    &needy[..needy.len().min(k)]
}

/// One node's state in the promotion loop.
#[derive(Debug)]
pub(crate) struct PromotionLoop {
    k: u32,
    /// Whether this node is in the set.
    pub(crate) member: bool,
    /// Members in the closed neighbourhood.
    pub(crate) cov: u32,
    /// Whether this node announced itself needy in the last needy round.
    needy: bool,
    /// Set by the join-itself rule, consumed by the next join step.
    join: bool,
    /// Whether this node joined the set during the loop.
    pub(crate) joined: bool,
}

impl PromotionLoop {
    /// A node of a loop computing a `k`-fold dominating set, seeded with
    /// `member`.
    pub(crate) fn new(k: u32, member: bool) -> Self {
        PromotionLoop {
            k,
            member,
            cov: 0,
            needy: false,
            join: false,
            joined: false,
        }
    }

    /// Runs loop round `t` (0 is the status round).
    pub(crate) fn on_round<P: CarriesPromotion>(
        &mut self,
        t: u64,
        inbox: Inbox<'_, P>,
        ctx: &mut Context<'_, P>,
    ) -> Control {
        if t == 0 {
            self.cov = u32::from(self.member);
            let member = self.member;
            ctx.broadcast_with(|| PromotionMsg::Status { member }.into());
            return Control::Continue;
        }
        match t % 3 {
            1 => {
                self.cov += inbox
                    .iter()
                    .filter(|e| {
                        matches!(
                            e.payload.promotion(),
                            Some(PromotionMsg::Status { member: true } | PromotionMsg::Join)
                        )
                    })
                    .count() as u32;
                self.announce_need(ctx);
                Control::Continue
            }
            2 => {
                let heard_needy = self.reelect(inbox, ctx);
                if self.needy || heard_needy {
                    Control::Continue
                } else {
                    Control::Halt
                }
            }
            _ => {
                if self.join(inbox) {
                    ctx.broadcast_with(|| PromotionMsg::Join.into());
                }
                Control::Continue
            }
        }
    }

    /// The needy step, once `cov` is current: a non-member short of `k`
    /// members announces that it is needy.
    pub(crate) fn announce_need<P: CarriesPromotion>(&mut self, ctx: &mut Context<'_, P>) {
        self.needy = !self.member && self.cov < self.k;
        if self.needy {
            ctx.broadcast_with(|| PromotionMsg::Needy.into());
        }
    }

    /// This node's coverage deficit `k − cov` as of the last needy step
    /// (0 unless needy).
    pub(crate) fn deficit(&self) -> u32 {
        if self.needy {
            self.k - self.cov
        } else {
            0
        }
    }

    /// The re-election step: a member promotes up to `k` of the needy
    /// neighbours in `inbox` (duplicates count once); a needy node with
    /// degree `< k` or no member neighbour marks itself to join. Returns
    /// whether any needy neighbour was heard.
    pub(crate) fn reelect<P: CarriesPromotion>(
        &mut self,
        inbox: Inbox<'_, P>,
        ctx: &mut Context<'_, P>,
    ) -> bool {
        let mut needy: Vec<NodeId> = inbox
            .iter()
            .filter(|e| matches!(e.payload.promotion(), Some(PromotionMsg::Needy)))
            .map(|e| e.from)
            .collect();
        needy.sort_unstable();
        needy.dedup();
        if self.member {
            for &w in select_promotions(&needy, self.k as usize) {
                ctx.send(w, PromotionMsg::Promote.into());
            }
        }
        // A non-member's `cov` counts only its member neighbours.
        if self.needy && (ctx.degree() < self.k as usize || self.cov == 0) {
            self.join = true;
        }
        !needy.is_empty()
    }

    /// The join step: a node promoted in `inbox` or marked by the
    /// join-itself rule enters the set. Returns whether it joined now.
    pub(crate) fn join<P: CarriesPromotion>(&mut self, inbox: Inbox<'_, P>) -> bool {
        let promoted = inbox
            .iter()
            .any(|e| e.payload.promotion() == Some(PromotionMsg::Promote));
        let joins = (self.join || promoted) && !self.member;
        self.join = false;
        if joins {
            self.member = true;
            self.joined = true;
            self.cov += 1;
        }
        joins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_have_their_metered_sizes() {
        use PromotionMsg::{Join, Needy, Promote, Status};
        for msg in [
            Status { member: false },
            Status { member: true },
            Needy,
            Promote,
            Join,
        ] {
            // No field scales with n, so this covers n = 4 and n = 2²⁰.
            assert_eq!(msg.bit_size(), PromotionMsg::MAX_BITS, "{msg:?}");
            // Algorithm 3 wraps the loop's messages without a tag bit.
            let udg = crate::udg::protocol::UdgMsg::Loop(msg);
            assert_eq!(udg.bit_size(), 1, "{msg:?}");
        }
    }

    #[test]
    fn select_promotions_takes_the_lowest_ids() {
        let needy: Vec<NodeId> = [1u32, 2, 3, 4].into_iter().map(NodeId::new).collect();
        assert_eq!(select_promotions(&needy, 2), &needy[..2]);
        // Fewer needy than k: take all.
        assert_eq!(select_promotions(&needy, 9), &needy[..]);
    }
}
