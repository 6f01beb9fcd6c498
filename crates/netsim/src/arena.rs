//! Arena-backed CSR inbox storage: contiguous per-round message delivery.
//!
//! The simulator's merge phase used to push every surviving envelope into
//! a per-recipient `Vec` — a random-access write into one of `n` separate
//! heap buffers per message, which starts missing the cache as soon as
//! the bucket headers outgrow L2 (a few tens of thousands of nodes). This
//! module replaces that with a *sorted scatter*: survivors are
//! partitioned into recipient **blocks** of [`BLOCK_WIDTH`] nodes (so a
//! block's counting array is L1-resident and its envelope bucket roughly
//! L2-sized), then each block is counting-sorted in place and appended to
//! one contiguous arena. A CSR-style offset table indexes each node's
//! inbox as a slice of that arena, so delivery in the next round is pure
//! slicing — no per-node buffers exist at all.
//!
//! The grouping is **stable**: within one recipient, envelopes keep the
//! global traversal order (shard outboxes in index order, push order
//! within a shard — exactly the order the serial engine produces), so the
//! delivered inbox slices are bit-for-bit identical at every
//! `FTCLUST_THREADS`. All buffers are recycled across rounds; steady-state
//! rounds allocate nothing beyond what message volume itself demands.
//!
//! Broadcasts need not go through the sorter at all. Next to the arena,
//! each [`InboxArena`] holds one **publication slot** per sender: a node
//! whose only output in a round was one broadcast leaves its payload
//! there instead of `deg` envelopes, and [`InboxArena::view`] hands a
//! receiver an [`Inbox`] that merges its arena slice with the slots of
//! its sorted neighbour list in place (see `DESIGN.md` §12, "Publication
//! fast path").
//!
//! Scatters, one payload per neighbour, stay envelopes, but a round
//! whose envelopes are all lone scatters skips the sort: each sender's
//! run in the outbox lies in its neighbour order, so visiting receivers
//! in id order with one cursor per sender ([`DeliverySorter::gather`])
//! yields every receiver's messages in ascending sender order.

use crate::{Envelope, Inbox};
use ftclust_graphs::{Graph, NodeId};

/// Recipients per partition block: 2¹³ = 8192 nodes, a 32 KiB counting
/// array. See the [module docs](self) for why blocking matters.
const BLOCK_SHIFT: u32 = 13;

/// Number of recipient ids covered by one sorter block.
const BLOCK_WIDTH: usize = 1 << BLOCK_SHIFT;

/// One round's deliverable messages, grouped by recipient: node `i`'s
/// envelopes are the contiguous slice `arena[offsets[i]..offsets[i + 1]]`,
/// and every neighbour `u` with `published[u]` set adds one more message
/// from `u`.
///
/// The simulator keeps two of these (the round being read and the round
/// being built) and swaps them, so the backing allocations live for the
/// whole simulation.
pub(crate) struct InboxArena<P> {
    /// All envelopes of one delivery round, recipient-contiguous.
    arena: Vec<Envelope<P>>,
    /// `n + 1` ascending CSR offsets into `arena`.
    offsets: Vec<u32>,
    /// Per-sender publication slots: `Some(p)` stands for one copy of
    /// `p` to every neighbour of the sender. Only senders with at least
    /// one neighbour publish.
    published: Vec<Option<P>>,
    /// Messages the publication slots stand for (the publishers'
    /// degrees summed); 0 exactly when every slot is empty.
    published_total: u64,
}

impl<P> InboxArena<P> {
    /// An empty arena for `n` recipients.
    pub(crate) fn new(n: usize) -> Self {
        InboxArena {
            arena: Vec::new(),
            offsets: vec![0; n + 1],
            published: std::iter::repeat_with(|| None).take(n).collect(),
            published_total: 0,
        }
    }

    /// Node `i`'s arena slice: its unicasts, self-sends and materialized
    /// broadcasts, without publications.
    #[inline]
    pub(crate) fn inbox(&self, i: usize) -> &[Envelope<P>] {
        &self.arena[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Node `i`'s inbox, in the order the envelope path delivers it:
    /// ascending sender id, each sender's messages in send order.
    ///
    /// With no publication pending this is the arena slice itself.
    /// Otherwise the view merges the slots of the sorted `neighbors` that
    /// published with the arena slice, which is then sorted by sender
    /// (senders run in id order, the sorter is stable, and only the
    /// adversary's held envelopes, which disable publishing, are staged
    /// out of order).
    #[inline]
    pub(crate) fn view<'s>(&'s self, i: usize, neighbors: &'s [NodeId]) -> Inbox<'s, P> {
        if self.published_total == 0 {
            Inbox::from_slice(self.inbox(i))
        } else {
            Inbox::merged(self.inbox(i), neighbors, &self.published)
        }
    }

    /// Number of messages queued for node `i`, whose sorted neighbour
    /// list is `neighbors`.
    #[inline]
    pub(crate) fn count(&self, i: usize, neighbors: &[NodeId]) -> u64 {
        self.view(i, neighbors).len() as u64
    }

    /// Total messages held, publications included.
    pub(crate) fn total(&self) -> u64 {
        u64::from(self.offsets.last().copied().unwrap_or(0)) + self.published_total
    }

    /// Empties the publication slots left from the last round this arena
    /// was built in, and hands them to the senders of the round being
    /// built (each shard takes its own contiguous range). Rounds that
    /// published nothing leave nothing to clear.
    pub(crate) fn open_slots(&mut self) -> &mut [Option<P>] {
        if self.published_total > 0 {
            self.published.fill_with(|| None);
            self.published_total = 0;
        }
        &mut self.published
    }

    /// Records how many messages the slots written this round stand for.
    pub(crate) fn set_published_total(&mut self, total: u64) {
        self.published_total = total;
    }

    /// Retained envelope capacity (white-box recycling tests).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// The publication slots' allocation (white-box recycling tests).
    #[cfg(test)]
    pub(crate) fn slots_ptr(&self) -> *const Option<P> {
        self.published.as_ptr()
    }
}

/// Recycled scratch of the sorted scatter that builds an [`InboxArena`].
///
/// `push` partitions staged envelopes by recipient block; `finish`
/// counting-sorts each block in place (stably) and appends it to the
/// arena. Total work is `O(messages + n)` per round with every
/// random-access structure cache-blocked, and envelopes only ever move —
/// they are never cloned.
pub(crate) struct DeliverySorter<P> {
    /// Per-block staging buckets (`block = recipient >> BLOCK_SHIFT`).
    blocks: Vec<Vec<Envelope<P>>>,
    /// Per-recipient counting array for the block being finished
    /// (block-local indices; doubles as the scatter cursor array).
    counts: Vec<u32>,
    /// Destination index of each bucket entry while a block is permuted;
    /// per-sender cursor into the outbox while [`DeliverySorter::gather`]
    /// runs.
    target: Vec<u32>,
}

impl<P> DeliverySorter<P> {
    /// Scratch sized for `n` recipients.
    pub(crate) fn new(n: usize) -> Self {
        let block_count = n.div_ceil(BLOCK_WIDTH);
        DeliverySorter {
            blocks: (0..block_count).map(|_| Vec::new()).collect(),
            counts: vec![0; n.min(BLOCK_WIDTH)],
            target: Vec::new(),
        }
    }

    /// Retained staging capacity; 0 until an envelope is first staged
    /// (white-box tests).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.blocks.iter().map(Vec::capacity).sum()
    }

    /// Stages one surviving envelope for delivery.
    ///
    /// # Panics
    ///
    /// Panics if the recipient id is out of range for the `n` this
    /// sorter was built for.
    #[inline]
    pub(crate) fn push(&mut self, env: Envelope<P>) {
        self.blocks[env.to.index() >> BLOCK_SHIFT].push(env);
    }

    /// Sorts everything staged since the last `finish` stably by
    /// recipient into `out`, rebuilding its offset table. Leaves the
    /// sorter empty (buckets keep their capacity).
    pub(crate) fn finish(&mut self, n: usize, out: &mut InboxArena<P>) {
        debug_assert_eq!(out.offsets.len(), n + 1);
        let staged: usize = self.blocks.iter().map(Vec::len).sum();
        assert!(
            staged <= u32::MAX as usize,
            "one round's message volume overflows the u32 inbox offset table"
        );
        out.arena.clear();
        let mut pos: u32 = 0;
        for (b, block) in self.blocks.iter_mut().enumerate() {
            let base = b << BLOCK_SHIFT;
            let width = (n - base).min(BLOCK_WIDTH);
            let counts = &mut self.counts[..width];
            counts.fill(0);
            for env in block.iter() {
                counts[env.to.index() - base] += 1;
            }
            // Exclusive prefix: publish global offsets, leave block-local
            // scatter cursors behind in `counts`.
            let mut run: u32 = 0;
            for (v, c) in counts.iter_mut().enumerate() {
                out.offsets[base + v] = pos + run;
                let here = *c;
                *c = run;
                run += here;
            }
            // Destination of every staged envelope, assigned in traversal
            // order — the cursor increments make the grouping stable.
            self.target.clear();
            self.target.extend(block.iter().map(|env| {
                let cursor = &mut counts[env.to.index() - base];
                let t = *cursor;
                *cursor += 1;
                t
            }));
            // Apply the permutation in place by cycle chasing: O(len)
            // swaps total, no clones.
            for f in 0..block.len() {
                while self.target[f] as usize != f {
                    let t = self.target[f] as usize;
                    block.swap(f, t);
                    self.target.swap(f, t);
                }
            }
            pos += block.len() as u32;
            out.arena.append(block);
        }
        out.offsets[n] = pos;
    }

    /// Builds `out`'s arena, without a sort, from a round whose envelopes
    /// are all lone scatters: the shard `outboxes`, in shard order, hold
    /// each sender's `degree` envelopes in its neighbour order, senders
    /// ascending. Leaves the outboxes empty.
    ///
    /// One pass sets each sender's cursor to the start of its run. Then
    /// receivers are visited in id order, so each sender's run is met in
    /// its own order: for every neighbour `u` of receiver `v`, the
    /// envelope at `u`'s cursor is the one from `u` to `v`. Each receiver
    /// thus gets its messages in ascending sender order, which is the
    /// stable sort's.
    pub(crate) fn gather<'o>(
        &mut self,
        graph: &Graph,
        outboxes: impl IntoIterator<Item = &'o mut Vec<Envelope<P>>>,
        out: &mut InboxArena<P>,
    ) where
        P: Clone + 'o,
    {
        /// The cursor of a sender that scattered nothing.
        const NO_RUN: u32 = u32::MAX;
        let mut outboxes = outboxes.into_iter();
        let Some(all) = outboxes.next() else {
            return;
        };
        for rest in outboxes {
            all.append(rest);
        }
        assert!(
            all.len() < NO_RUN as usize,
            "one round's message volume overflows the u32 inbox offset table"
        );
        let n = graph.node_count();
        let cursor = &mut self.target;
        cursor.clear();
        cursor.resize(n, NO_RUN);
        let mut at = 0;
        while let Some(env) = all.get(at) {
            cursor[env.from.index()] = at as u32;
            at += graph.degree(env.from);
        }
        out.arena.clear();
        out.arena.reserve(all.len());
        for v in graph.nodes() {
            out.offsets[v.index()] = out.arena.len() as u32;
            for &u in graph.neighbors(v) {
                let at = &mut cursor[u.index()];
                if *at != NO_RUN {
                    let env = &all[*at as usize];
                    debug_assert_eq!((env.from, env.to), (u, v));
                    out.arena.push(env.clone());
                    *at += 1;
                }
            }
        }
        out.offsets[n] = out.arena.len() as u32;
        all.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn env(from: u32, to: u32, tag: u32) -> Envelope<u32> {
        Envelope {
            from: NodeId::new(from),
            to: NodeId::new(to),
            payload: tag,
        }
    }

    /// Reference grouping: per-recipient Vec pushes in traversal order.
    fn naive(n: usize, envs: &[Envelope<u32>]) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); n];
        for e in envs {
            out[e.to.index()].push(e.payload);
        }
        out
    }

    fn check_matches(n: usize, envs: Vec<Envelope<u32>>) {
        let expect = naive(n, &envs);
        let mut sorter = DeliverySorter::new(n);
        let mut arena = InboxArena::new(n);
        for e in envs {
            sorter.push(e);
        }
        sorter.finish(n, &mut arena);
        for (i, want) in expect.iter().enumerate() {
            let got: Vec<u32> = arena.inbox(i).iter().map(|e| e.payload).collect();
            assert_eq!(&got, want, "inbox of node {i} diverged");
            assert_eq!(arena.count(i, &[]), want.len() as u64);
        }
        assert_eq!(
            arena.total(),
            expect.iter().map(|v| v.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn grouping_is_stable_and_complete() {
        // Interleaved recipients with repeated senders: within a
        // recipient, payload tags must come out in push order.
        let envs = vec![
            env(0, 2, 10),
            env(1, 0, 11),
            env(2, 2, 12),
            env(3, 1, 13),
            env(0, 2, 14),
            env(1, 1, 15),
            env(2, 0, 16),
        ];
        check_matches(4, envs);
    }

    #[test]
    fn crosses_block_boundaries() {
        // Recipients straddling several 8192-wide blocks, pushed in a
        // deliberately block-hostile order.
        let n = 2 * BLOCK_WIDTH + 17;
        let mut envs = Vec::new();
        for i in 0..200u32 {
            let to = (i as usize * 991) % n;
            envs.push(env(0, to as u32, i));
            envs.push(env(1, (n - 1) as u32, 1000 + i));
        }
        check_matches(n, envs);
    }

    #[test]
    fn empty_round_and_degree_zero_recipients() {
        let mut sorter = DeliverySorter::<u32>::new(5);
        let mut arena = InboxArena::<u32>::new(5);
        sorter.finish(5, &mut arena);
        assert_eq!(arena.total(), 0);
        for i in 0..5 {
            assert!(arena.inbox(i).is_empty());
        }
        // Zero recipients is legal too.
        let mut sorter = DeliverySorter::<u32>::new(0);
        let mut arena = InboxArena::<u32>::new(0);
        sorter.finish(0, &mut arena);
        assert_eq!(arena.total(), 0);
    }

    /// `(sender, tag)` of every message the view yields.
    fn viewed(arena: &InboxArena<u32>, i: usize, neighbors: &[NodeId]) -> Vec<(u32, u32)> {
        arena
            .view(i, neighbors)
            .iter()
            .map(|m| (m.from.raw(), *m.payload))
            .collect()
    }

    #[test]
    fn view_merges_publications_by_sender() {
        // Node 3 hears unicasts from 1 and 5 and a self-send through the
        // arena, and publications from its neighbours 2 and 4; 6 and 7
        // published too, but are not its neighbours.
        let n = 8;
        let mut sorter = DeliverySorter::new(n);
        let mut arena = InboxArena::new(n);
        for e in [env(1, 3, 10), env(1, 3, 11), env(3, 3, 12), env(5, 3, 13)] {
            sorter.push(e);
        }
        sorter.finish(n, &mut arena);
        for (u, tag) in [(2, 20), (4, 21), (6, 22), (7, 23)] {
            arena.open_slots()[u] = Some(tag);
        }
        arena.set_published_total(4);
        let neighbors: Vec<NodeId> = [1, 2, 4, 5].map(NodeId::new).to_vec();
        assert_eq!(
            viewed(&arena, 3, &neighbors),
            [(1, 10), (1, 11), (2, 20), (3, 12), (4, 21), (5, 13)]
        );
        assert_eq!(arena.view(3, &neighbors).len(), 6);
        assert_eq!(arena.count(3, &neighbors), 6);
        assert_eq!(arena.total(), 8);
        // The payloads are read in place, not copied.
        let first_published = arena.view(3, &neighbors).iter().nth(2).unwrap();
        assert!(std::ptr::eq(
            first_published.payload,
            arena.published[2].as_ref().unwrap()
        ));
        // No published neighbour: just the arena slice.
        assert_eq!(viewed(&arena, 1, &[NodeId::new(5)]), []);
        assert!(arena.view(1, &[NodeId::new(5)]).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The view yields exactly the reference inbox: each publication
        /// from a neighbour materialized as an envelope, then everything
        /// stable-sorted by sender. `len` agrees with it.
        #[test]
        fn view_equals_stable_sorted_materialization(
            n in 1usize..=64,
            adjacency in proptest::collection::vec(0u64..u64::MAX, 64),
            publishers in 0u64..u64::MAX,
            sends in proptest::collection::vec((0usize..64, 0usize..64), 0..256),
        ) {
            let publishes = |u: usize| (publishers >> u) & 1 == 1;
            let neighbors: Vec<Vec<NodeId>> = (0..n)
                .map(|i| {
                    (0..n)
                        .filter(|&u| u != i && (adjacency[i] >> u) & 1 == 1)
                        .map(|u| NodeId::new(u as u32))
                        .collect()
                })
                .collect();
            // Arena traffic from non-publishers, staged in sender order
            // as the merge stages the shard outboxes.
            let mut staged: Vec<Envelope<u32>> = sends
                .iter()
                .enumerate()
                .filter(|&(_, &(from, to))| from < n && to < n && !publishes(from))
                .map(|(tag, &(from, to))| env(from as u32, to as u32, tag as u32))
                .collect();
            staged.sort_by_key(|e| e.from);
            let mut sorter = DeliverySorter::new(n);
            let mut arena = InboxArena::new(n);
            for e in &staged {
                sorter.push(e.clone());
            }
            sorter.finish(n, &mut arena);
            let slots = arena.open_slots();
            for (u, slot) in slots.iter_mut().enumerate() {
                if publishes(u) {
                    *slot = Some(1000 + u as u32);
                }
            }
            let published: u64 = neighbors
                .iter()
                .map(|nb| nb.iter().filter(|u| publishes(u.index())).count() as u64)
                .sum();
            arena.set_published_total(published);
            for (i, nb) in neighbors.iter().enumerate() {
                let mut want: Vec<(u32, u32)> = nb
                    .iter()
                    .filter(|u| publishes(u.index()))
                    .map(|u| (u.raw(), 1000 + u.raw()))
                    .chain(
                        staged
                            .iter()
                            .filter(|e| e.to.index() == i)
                            .map(|e| (e.from.raw(), e.payload)),
                    )
                    .collect();
                want.sort_by_key(|&(from, _)| from);
                prop_assert_eq!(viewed(&arena, i, nb), want.clone());
                prop_assert_eq!(arena.view(i, nb).len(), want.len());
                prop_assert_eq!(arena.view(i, nb).is_empty(), want.is_empty());
            }
            prop_assert_eq!(arena.total(), staged.len() as u64 + published);
        }
    }

    /// A graph on `n <= 64` nodes from one adjacency bit row per node.
    fn graph_from_bits(n: usize, adjacency: &[u64]) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|i| {
                (i + 1..n)
                    .filter(move |&u| (adjacency[i] >> u) & 1 == 1)
                    .map(move |u| (i as u32, u as u32))
            })
            .collect();
        Graph::from_edges(n as u32, &edges).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Gathering a round of lone scatters from 1–4 shard outboxes
        /// builds exactly the offsets and envelope order the sorter builds
        /// from the same envelopes, and empties the outboxes.
        #[test]
        fn gathered_scatters_equal_sorted_envelopes(
            n in 1usize..=64,
            adjacency in proptest::collection::vec(0u64..u64::MAX, 64),
            scatterers in 0u64..u64::MAX,
            shards in 1usize..=4,
        ) {
            let g = graph_from_bits(n, &adjacency);
            let scatters = |u: usize| (scatterers >> u) & 1 == 1;
            let mut outboxes: Vec<Vec<Envelope<u32>>> = ftclust_par::split_ranges(n, shards)
                .into_iter()
                .map(|r| {
                    r.filter(|&u| scatters(u))
                        .flat_map(|u| {
                            let u = NodeId::new(u as u32);
                            g.neighbors(u)
                                .iter()
                                .enumerate()
                                .map(move |(o, &v)| env(u.raw(), v.raw(), 100 * u.raw() + o as u32))
                        })
                        .collect()
                })
                .collect();
            let mut sorter = DeliverySorter::new(n);
            let mut want = InboxArena::new(n);
            for e in outboxes.iter().flatten() {
                sorter.push(e.clone());
            }
            sorter.finish(n, &mut want);
            let mut got = InboxArena::new(n);
            sorter.gather(&g, &mut outboxes, &mut got);
            prop_assert_eq!(&got.offsets, &want.offsets);
            let seen = |a: &InboxArena<u32>| {
                a.arena.iter().map(|e| (e.from, e.to, e.payload)).collect::<Vec<_>>()
            };
            prop_assert_eq!(seen(&got), seen(&want));
            prop_assert!(outboxes.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn buffers_recycle_without_reallocation() {
        let n = 6;
        let mut sorter = DeliverySorter::new(n);
        let mut arena = InboxArena::new(n);
        for round in 0..3u32 {
            for i in 0..n as u32 {
                sorter.push(env(i, (i + 1) % n as u32, round));
            }
            sorter.finish(n, &mut arena);
            assert_eq!(arena.total(), n as u64);
        }
        let cap = arena.capacity();
        assert!(cap >= n);
        for i in 0..n as u32 {
            sorter.push(env(i, 0, 9));
        }
        sorter.finish(n, &mut arena);
        assert_eq!(arena.capacity(), cap, "steady state must not reallocate");
        assert_eq!(arena.count(0, &[]), n as u64);
    }
}
