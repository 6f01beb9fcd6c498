use crate::metrics::TransportCounters;
use crate::topology::seek;
use crate::trace::TraceEvent;
use crate::{Envelope, Payload, Topology};
use ftclust_graphs::NodeId;
use rand::rngs::StdRng;

/// What a node wants to do after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep participating in subsequent rounds.
    Continue,
    /// Stop: the node will not be scheduled again (its sent messages from
    /// this round are still delivered).
    Halt,
    /// Keep participating, but there is nothing to do before round
    /// `until` unless a message arrives: the simulator does not call the
    /// node in a round before `until` in which its inbox is empty
    /// (`u64::MAX` waits for a message alone). See the idle contract on
    /// [`NodeLogic`].
    Idle {
        /// The first round in which the node must run even with an empty
        /// inbox.
        until: u64,
    },
}

/// The per-node protocol state machine.
///
/// One instance runs at every node. Each simulator round calls
/// [`NodeLogic::on_round`] with an [`Inbox`] of the messages delivered
/// this round (those sent by neighbors in the *previous* round; empty in
/// round 0) and a [`Context`] for sending, randomness and local
/// knowledge. The inbox is a view: it reads the payloads where the
/// simulator stored them, so a logic that needs a message beyond the
/// round clones it.
///
/// A pseudocode step of the form *"send X to neighbors; use the received
/// X's"* therefore spans **two** simulator rounds — exactly the accounting
/// the paper uses ("every iteration of the inner loop can be computed in 2
/// rounds", proof of Theorem 4.5).
///
/// # Idle rounds
///
/// A node that returns [`Control::Idle`] is not called again before round
/// `until` unless a message arrives for it. The contract is the caller's:
/// every round skipped this way must be one in which `on_round` would
/// have been a no-op — no send, no random draw, no state change, no
/// `note_*` call — and would have returned `Idle` again. Then skipping it
/// changes nothing anybody can observe, and a run is the same whether
/// the simulator calls the node or not. A logic that is unsure returns
/// [`Control::Continue`], which is always correct.
///
/// Logic instances are `Send`: the simulator shards nodes across worker
/// threads within a round (each instance is only ever touched by one
/// thread at a time). Protocol state machines are plain data, so this is
/// automatic.
pub trait NodeLogic: Send {
    /// The message type this protocol exchanges.
    type Payload: Payload;

    /// Executes one synchronous round at this node.
    fn on_round(
        &mut self,
        inbox: Inbox<'_, Self::Payload>,
        ctx: &mut Context<'_, Self::Payload>,
    ) -> Control;
}

/// One delivered message, read in place: the sender and a borrow of the
/// payload.
#[derive(Debug)]
pub struct Msg<'a, P> {
    /// The sending node.
    pub from: NodeId,
    /// The message content.
    pub payload: &'a P,
}

impl<P> Clone for Msg<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for Msg<'_, P> {}

/// The messages delivered to one node in one round, in ascending sender
/// order and, per sender, in send order.
///
/// The view copies nothing. It reads the receiver's envelopes (unicasts,
/// self-sends and materialized broadcasts) from the simulator's inbox
/// arena and merges in the neighbours' published broadcasts (see
/// [`Context::broadcast`]) from their slots, walking the sorted
/// neighbour list. Layers that assemble an inbox themselves wrap it with
/// [`Inbox::from_slice`].
#[derive(Debug)]
pub struct Inbox<'a, P> {
    /// Envelopes addressed to the receiver, sorted by sender whenever
    /// `neighbors` is non-empty.
    direct: &'a [Envelope<P>],
    /// The receiver's sorted neighbours when some sender published this
    /// round; empty otherwise.
    neighbors: &'a [NodeId],
    /// Publication slots indexed by sender id (see
    /// [`Context::broadcast`]). A publisher has no envelopes in `direct`.
    published: &'a [Option<P>],
}

impl<P> Clone for Inbox<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P> Copy for Inbox<'_, P> {}

impl<'a, P> Inbox<'a, P> {
    /// An inbox holding exactly `envelopes`, in slice order.
    pub fn from_slice(envelopes: &'a [Envelope<P>]) -> Self {
        Inbox {
            direct: envelopes,
            neighbors: &[],
            published: &[],
        }
    }

    /// The arena slice `direct` merged with the slots of the `neighbors`
    /// that published.
    pub(crate) fn merged(
        direct: &'a [Envelope<P>],
        neighbors: &'a [NodeId],
        published: &'a [Option<P>],
    ) -> Self {
        Inbox {
            direct,
            neighbors,
            published,
        }
    }

    /// The messages in delivery order.
    #[inline]
    pub fn iter(&self) -> InboxIter<'a, P> {
        let mut it = InboxIter {
            direct: self.direct,
            neighbors: self.neighbors.iter(),
            published: self.published,
            next_published: None,
        };
        it.next_published = it.find_published();
        it
    }

    /// Number of messages. Costs O(degree) when neighbours published.
    pub fn len(&self) -> usize {
        let published = self
            .neighbors
            .iter()
            .filter(|u| self.published[u.index()].is_some())
            .count();
        self.direct.len() + published
    }

    /// Whether no message was delivered.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl<'a, P> IntoIterator for Inbox<'a, P> {
    type Item = Msg<'a, P>;
    type IntoIter = InboxIter<'a, P>;

    #[inline]
    fn into_iter(self) -> InboxIter<'a, P> {
        self.iter()
    }
}

/// Iterator over an [`Inbox`]: a two-way merge of the envelope slice and
/// the published neighbours, both ascending by sender.
#[derive(Debug)]
pub struct InboxIter<'a, P> {
    direct: &'a [Envelope<P>],
    neighbors: std::slice::Iter<'a, NodeId>,
    published: &'a [Option<P>],
    /// The next publication not yet yielded.
    next_published: Option<Msg<'a, P>>,
}

impl<'a, P> InboxIter<'a, P> {
    /// Advances the neighbour cursor to the next publisher.
    #[inline]
    fn find_published(&mut self) -> Option<Msg<'a, P>> {
        let published = self.published;
        self.neighbors.find_map(|&u| {
            published[u.index()]
                .as_ref()
                .map(|payload| Msg { from: u, payload })
        })
    }
}

impl<'a, P> Iterator for InboxIter<'a, P> {
    type Item = Msg<'a, P>;

    #[inline]
    fn next(&mut self) -> Option<Msg<'a, P>> {
        let (env, rest) = match self.next_published {
            None => self.direct.split_first()?,
            Some(published) => match self.direct.split_first() {
                Some((env, rest)) if env.from < published.from => (env, rest),
                _ => {
                    self.next_published = self.find_published();
                    return Some(published);
                }
            },
        };
        self.direct = rest;
        Some(Msg {
            from: env.from,
            payload: &env.payload,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let pending = self.direct.len() + usize::from(self.next_published.is_some());
        (pending, Some(pending + self.neighbors.len()))
    }
}

/// Local knowledge and actions available to a node during a round.
///
/// Mirrors the paper's model: a node knows its own identifier, its
/// neighbors, `n` (and through configuration, `Δ`), can draw local random
/// bits, and — on geometric topologies — senses distances to neighbors.
#[derive(Debug)]
pub struct Context<'a, P> {
    pub(crate) me: NodeId,
    pub(crate) round: u64,
    pub(crate) topo: Topology<'a>,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) outbox: &'a mut Vec<Envelope<P>>,
    /// What else happens to this node's output this round: publication
    /// or position recording, or neither.
    pub(crate) outlet: Outlet<'a, P>,
    /// Transport-layer event counters for this worker shard, folded into
    /// [`crate::Metrics`] on the sequential merge path.
    pub(crate) transport: &'a mut TransportCounters,
    /// Whether a recording tracer is attached (hoisted so the `note_*`
    /// hot paths pay one branch, not a virtual call).
    pub(crate) tracing: bool,
    /// Per-worker-shard trace event buffer; the simulator drains the
    /// buffers in shard index order on the sequential merge path, so
    /// recorded traces are independent of the worker count.
    pub(crate) trace: &'a mut Vec<TraceEvent>,
    /// Position in [`Context::neighbors`] of the last [`Context::send`]
    /// peer, where the next send's neighbour check starts.
    pub(crate) send_hint: usize,
}

/// What a [`Context`] does with a node's output besides appending it to
/// the outbox as envelopes. Publication and recording never meet: the
/// simulator publishes only when no per-envelope layer is engaged, and
/// the layers that record are per-envelope ones.
#[derive(Debug)]
pub(crate) enum Outlet<'a, P> {
    /// Nothing else.
    Envelopes,
    /// This node's publication slot for the round (see
    /// [`Context::broadcast`]); it closes, turning into `Envelopes`, once
    /// the node produces any output other than a single broadcast.
    Publish(&'a mut Option<P>),
    /// Where each envelope in the outbox is headed, in step with it: the
    /// recipient's position in [`Context::neighbors`], or [`SELF_LINK`]
    /// for a self-send. Recorded only for a layer that reads it (the
    /// adversary's link streams, the transport's per-link bundles), so
    /// that layer does not search the neighbour list again.
    Record(&'a mut Vec<u32>),
}

/// The recorded position ([`Outlet::Record`]) of a self-send.
pub(crate) const SELF_LINK: u32 = u32::MAX;

impl<'a, P: Payload> Context<'a, P> {
    /// This node's identifier.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Total number of nodes in the network (global knowledge `n`, assumed
    /// by the paper's algorithms).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.topo.graph().node_count()
    }

    /// This node's neighbors (sorted).
    #[inline]
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.topo.graph().neighbors(self.me)
    }

    /// This node's degree.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors().len()
    }

    /// Sensed distance to `v`, on geometric topologies.
    #[inline]
    pub fn distance_to(&self, v: NodeId) -> Option<f64> {
        self.topo.distance(self.me, v)
    }

    /// This node's private random stream (deterministic per master seed and
    /// node id).
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Records one transport-layer retransmission, metered into
    /// [`crate::Metrics::retransmits`]. Intended for reliability layers
    /// such as [`crate::transport`]; ordinary protocol logic has no
    /// reason to call it.
    #[inline]
    pub fn note_retransmit(&mut self) {
        self.transport.retransmits += 1;
        if self.tracing {
            self.trace.push(TraceEvent::Retransmit { node: self.me });
        }
    }

    /// Records one pure acknowledgment frame, metered into
    /// [`crate::Metrics::acks`].
    #[inline]
    pub fn note_ack(&mut self) {
        self.transport.acks += 1;
        if self.tracing {
            self.trace.push(TraceEvent::Ack { node: self.me });
        }
    }

    /// Records one received duplicate discarded by a reliability layer,
    /// metered into [`crate::Metrics::duplicates_suppressed`].
    #[inline]
    pub fn note_duplicate_suppressed(&mut self) {
        self.transport.duplicates_suppressed += 1;
        if self.tracing {
            self.trace
                .push(TraceEvent::DuplicateSuppressed { node: self.me });
        }
    }

    /// Sends `payload` to neighbor `to` (or to `self.me()`: self-delivery
    /// next round, used e.g. by the UDG algorithm's self-election).
    ///
    /// # Panics
    ///
    /// Panics if `to` is neither a neighbor nor the node itself — sending
    /// beyond the communication graph is a protocol bug, not a runtime
    /// condition.
    pub fn send(&mut self, to: NodeId, payload: P) {
        if to != self.me {
            // Protocols mostly unicast in ascending neighbour order, so the
            // check first tries the neighbour after the previous send's.
            let found = seek(self.neighbors(), to, self.send_hint);
            assert!(
                found.is_some(),
                "{} attempted to send to non-neighbor {}",
                self.me,
                to
            );
            self.send_hint = found.unwrap_or_default();
            self.push(to, self.send_hint, payload);
        } else {
            self.push(to, SELF_LINK as usize, payload);
        }
    }

    /// Sends `payload` to `to`, neighbor number `pos` of
    /// [`Context::neighbors`]: [`Context::send`] for a caller that already
    /// holds the neighbor and its position, so it needs no edge lookup.
    pub(crate) fn send_to_neighbor(&mut self, to: NodeId, pos: usize, payload: P) {
        debug_assert_eq!(self.neighbors()[pos], to);
        self.push(to, pos, payload);
    }

    /// Appends one envelope, to neighbor number `pos` (or [`SELF_LINK`]),
    /// after closing the publication slot or recording the position.
    #[inline]
    fn push(&mut self, to: NodeId, pos: usize, payload: P) {
        match &mut self.outlet {
            Outlet::Envelopes => {}
            Outlet::Publish(_) => self.demote(),
            Outlet::Record(positions) => positions.push(pos as u32),
        }
        self.outbox.push(Envelope {
            from: self.me,
            to,
            payload,
        });
    }

    /// Sends a copy of `payload` to every neighbor.
    ///
    /// When no per-envelope layer (tracer, churn, loss, adversary) is
    /// engaged, a broadcast that is the node's first output of the round
    /// is *published*: the payload is stored once in the node's slot and
    /// receivers read it through the adjacency,
    /// instead of `deg` cloned envelopes being sorted. Any later `send`
    /// or `broadcast` in the same round first turns the published
    /// broadcast back into envelopes at its original position, so what
    /// each receiver sees, in what order, and what is metered are the
    /// same either way.
    pub fn broadcast(&mut self, payload: P) {
        if let Outlet::Publish(slot) = &mut self.outlet {
            if slot.is_none() {
                **slot = Some(payload);
                return;
            }
        }
        self.demote();
        self.materialize(payload);
    }

    /// Closes the publication slot for the rest of the round, turning a
    /// payload already published back into envelopes.
    fn demote(&mut self) {
        if let Outlet::Publish(slot) = &mut self.outlet {
            let published = slot.take();
            self.outlet = Outlet::Envelopes;
            if let Some(payload) = published {
                self.materialize(payload);
            }
        }
    }

    /// Appends one envelope of `payload` per neighbor to the outbox.
    fn materialize(&mut self, payload: P) {
        let neighbors = self.neighbors();
        if let Outlet::Record(positions) = &mut self.outlet {
            positions.extend(0..neighbors.len() as u32);
        }
        self.outbox.reserve(neighbors.len());
        for &v in neighbors {
            self.outbox.push(Envelope {
                from: self.me,
                to: v,
                payload: payload.clone(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftclust_graphs::generators;
    use rand::SeedableRng;

    #[derive(Clone, Debug)]
    struct Ping;
    impl Payload for Ping {
        fn bit_size(&self) -> usize {
            1
        }
    }

    fn ctx_fixture<'a>(
        topo: Topology<'a>,
        rng: &'a mut StdRng,
        outbox: &'a mut Vec<Envelope<Ping>>,
        transport: &'a mut TransportCounters,
        trace: &'a mut Vec<TraceEvent>,
    ) -> Context<'a, Ping> {
        Context {
            me: NodeId::new(0),
            round: 3,
            topo,
            rng,
            outbox,
            outlet: Outlet::Envelopes,
            transport,
            tracing: false,
            trace,
            send_hint: 0,
        }
    }

    #[test]
    fn context_exposes_local_view() {
        let g = generators::star(4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        assert_eq!(ctx.me(), NodeId::new(0));
        assert_eq!(ctx.round(), 3);
        assert_eq!(ctx.node_count(), 4);
        assert_eq!(ctx.degree(), 3);
        assert!(ctx.distance_to(NodeId::new(1)).is_none());
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let g = generators::star(4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.broadcast(Ping);
        assert_eq!(outbox.len(), 3);
        let mut tos: Vec<u32> = outbox.iter().map(|e| e.to.raw()).collect();
        tos.sort_unstable();
        assert_eq!(tos, vec![1, 2, 3]);
    }

    #[test]
    fn recorded_positions_stay_in_step_with_the_outbox() {
        // Unicasts out of order and repeated, self-sends, a send by known
        // position, and a broadcast after unicasts: one position per
        // envelope, naming the envelope's recipient.
        let g = generators::star(6);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut positions = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.outlet = Outlet::Record(&mut positions);
        let v = NodeId::new;
        ctx.send(v(4), Ping);
        ctx.send(v(0), Ping);
        ctx.send(v(2), Ping);
        ctx.send(v(2), Ping);
        ctx.send(v(5), Ping);
        ctx.send_to_neighbor(v(1), 0, Ping);
        ctx.broadcast(Ping);
        ctx.send(v(0), Ping);
        ctx.send(v(3), Ping);
        let neighbors = g.neighbors(v(0));
        assert_eq!(
            positions,
            [3, SELF_LINK, 1, 1, 4, 0, 0, 1, 2, 3, 4, SELF_LINK, 2]
        );
        assert_eq!(positions.len(), outbox.len());
        for (env, &pos) in outbox.iter().zip(&positions) {
            let to = if pos == SELF_LINK {
                v(0)
            } else {
                neighbors[pos as usize]
            };
            assert_eq!(env.to, to);
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Tag(u8);
    impl Payload for Tag {
        fn bit_size(&self) -> usize {
            8
        }
    }

    /// Runs `act` on node 0 of a 4-star with an open publication slot;
    /// returns what is left in the slot and the `(to, tag)` outbox.
    fn publishing(act: impl FnOnce(&mut Context<'_, Tag>)) -> (Option<Tag>, Vec<(u32, u8)>) {
        let g = generators::star(4);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut slot = None;
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = Context {
            me: NodeId::new(0),
            round: 0,
            topo: Topology::from_graph(&g),
            rng: &mut rng,
            outbox: &mut outbox,
            outlet: Outlet::Publish(&mut slot),
            transport: &mut tc,
            tracing: false,
            trace: &mut tr,
            send_hint: 0,
        };
        act(&mut ctx);
        let sent = outbox.iter().map(|e| (e.to.raw(), e.payload.0)).collect();
        (slot, sent)
    }

    #[test]
    fn lone_broadcast_is_published_and_later_output_demotes_it() {
        let b = |t| [(1, t), (2, t), (3, t)];
        assert_eq!(publishing(|c| c.broadcast(Tag(1))), (Some(Tag(1)), vec![]));
        // A second broadcast, a send or a self-send after a published
        // broadcast: the broadcast's envelopes come first.
        let (slot, sent) = publishing(|c| {
            c.broadcast(Tag(1));
            c.broadcast(Tag(2));
        });
        assert_eq!(slot, None);
        assert_eq!(sent, [b(1), b(2)].concat());
        let (slot, sent) = publishing(|c| {
            c.broadcast(Tag(1));
            c.send(NodeId::new(2), Tag(2));
            c.send(NodeId::new(0), Tag(3));
        });
        assert_eq!(slot, None);
        assert_eq!(sent, [&b(1)[..], &[(2, 2), (0, 3)]].concat());
        // A send first closes the slot, so the broadcast is materialized.
        let (slot, sent) = publishing(|c| {
            c.send(NodeId::new(3), Tag(1));
            c.broadcast(Tag(2));
        });
        assert_eq!(slot, None);
        assert_eq!(sent, [&[(3, 1)][..], &b(2)].concat());
    }

    #[test]
    fn self_send_is_allowed() {
        let g = generators::star(2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.send(NodeId::new(0), Ping);
        assert_eq!(outbox[0].to, NodeId::new(0));
    }

    #[test]
    fn note_methods_tally_transport_counters() {
        let g = generators::star(2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.note_retransmit();
        ctx.note_retransmit();
        ctx.note_ack();
        ctx.note_duplicate_suppressed();
        assert_eq!(
            tc,
            TransportCounters {
                retransmits: 2,
                acks: 1,
                duplicates_suppressed: 1,
            }
        );
    }

    #[test]
    fn note_methods_emit_trace_events_only_when_tracing() {
        let g = generators::star(2);
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        {
            let mut ctx = ctx_fixture(
                Topology::from_graph(&g),
                &mut rng,
                &mut outbox,
                &mut tc,
                &mut tr,
            );
            ctx.note_retransmit(); // tracing = false: counted, not traced
            ctx.tracing = true;
            ctx.note_retransmit();
            ctx.note_ack();
            ctx.note_duplicate_suppressed();
        }
        let me = NodeId::new(0);
        assert_eq!(tc.retransmits, 2);
        assert_eq!(
            tr,
            vec![
                TraceEvent::Retransmit { node: me },
                TraceEvent::Ack { node: me },
                TraceEvent::DuplicateSuppressed { node: me },
            ]
        );
    }

    /// Node 0 of `g` sends to `earlier` in order, then to `stray`;
    /// returns whether the last send panicked.
    fn stray_send_panics(g: &ftclust_graphs::Graph, earlier: &[u32], stray: u32) -> bool {
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        for &v in earlier {
            ctx.send(NodeId::new(v), Ping);
        }
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx.send(NodeId::new(stray), Ping);
        }))
        .is_err()
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn send_to_non_neighbor_panics() {
        // Node 0's neighbours are the even ids 2..=40, with gaps between
        // them for a stray id to fall into.
        let edges: Vec<(u32, u32)> = (1..=20).map(|i| (0, 2 * i)).collect();
        let g = ftclust_graphs::Graph::from_edges(42, &edges).unwrap();
        let evens: Vec<u32> = (1..=20).map(|i| 2 * i).collect();
        // A stray id between, before and after earlier in-order sends,
        // near the last send and far past it.
        for (earlier, stray) in [
            (&evens[..3], 5),
            (&evens[..3], 7),
            (&evens[..3], 1),
            (&evens[..3], 33),
            (&evens[..3], 41),
            (&evens[..], 41),
            (&evens[..], 21),
            (&evens[..], 1),
            (&evens[10..12], 23),
            (&evens[10..12], 39),
        ] {
            assert!(
                stray_send_panics(&g, earlier, stray),
                "send to {stray} after {earlier:?} passed"
            );
        }
        // The same checks accept every neighbour from any position.
        for &last in &evens {
            for &next in &evens {
                assert!(!stray_send_panics(&g, &[last], next), "{last} then {next}");
            }
        }
        let g = generators::path(3); // 0-1-2: 0 and 2 not adjacent
        let mut rng = StdRng::seed_from_u64(0);
        let mut outbox = Vec::new();
        let mut tc = TransportCounters::default();
        let mut tr = Vec::new();
        let mut ctx = ctx_fixture(
            Topology::from_graph(&g),
            &mut rng,
            &mut outbox,
            &mut tc,
            &mut tr,
        );
        ctx.send(NodeId::new(2), Ping);
    }
}
