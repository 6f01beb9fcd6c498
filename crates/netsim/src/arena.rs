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
//! Scatters, one payload per neighbour, skip the outbox and the sorter
//! too. A node whose only output in a round was one scatter leaves its
//! payloads in its row of the [`LinkTable`], one cell per directed CSR
//! slot (`Graph::slot_range`), written through the [`LinkRows`] its
//! shard owns for the round. After the round the table delivers them: a
//! receiver's messages are the cells at its reverse slots
//! (`Graph::reverse_slots`), which lie in ascending sender order, so the
//! arena is built receiver by receiver with no sort at all.

use crate::{Envelope, Inbox};
use ftclust_graphs::{Graph, NodeId};
use std::ops::Range;

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

/// The link table: one cell per directed CSR slot, `Some(p)` at the
/// slot of `(u → v)` holding `u`'s scattered message to `v`. Allocated
/// the first time a round scatters. Delivering a round's scatters
/// empties every cell again, so the table needs no clearing.
pub(crate) struct LinkTable<P> {
    /// The cells; empty until the first scatter.
    cells: Vec<Option<P>>,
    /// Delivery scratch: per sender, its next directed slot.
    cursor: Vec<usize>,
}

impl<P> LinkTable<P> {
    /// A table with nothing allocated.
    pub(crate) fn new() -> Self {
        LinkTable {
            cells: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Swaps the cells with those of the rows of a one-shard round:
    /// before the round, to lend the table, whose allocation may still be
    /// empty; after it, to take the table back, sized by the shard's first
    /// scatter if that was this round.
    pub(crate) fn lend(&mut self, rows: &mut LinkRows<P>) {
        std::mem::swap(&mut self.cells, &mut rows.cells);
    }

    /// Moves the payloads several shards scattered this round from their
    /// own rows into the table, which holds `slots` cells and is allocated
    /// here on first use. The shards' rows are left empty of payloads,
    /// ready for their next scatter.
    pub(crate) fn gather<'r>(
        &mut self,
        slots: usize,
        shards: impl Iterator<Item = &'r mut LinkRows<P>>,
    ) where
        P: 'r,
    {
        self.cells.resize_with(slots, || None);
        for rows in shards {
            let table = &mut self.cells[rows.base..rows.base + rows.cells.len()];
            for (cell, payload) in table.iter_mut().zip(&mut rows.cells) {
                if payload.is_some() {
                    *cell = payload.take();
                }
            }
        }
    }

    /// Builds `out`'s arena from this round's scatters, which are all of
    /// the round's messages besides publications: receiver by receiver,
    /// the cells at its reverse slots, in its neighbour order, which is
    /// ascending sender order. `count` is the number of scattered
    /// payloads. Empties the cells.
    ///
    /// The reverse slots are those of `Graph::reverse_slots`, found the
    /// way it finds them: receivers are visited in ascending id order, so
    /// each sender's row is met in its own sorted order, and one cursor
    /// per sender hands out its slots without a table or a search.
    pub(crate) fn deliver(&mut self, graph: &Graph, count: usize, out: &mut InboxArena<P>) {
        let n = graph.node_count();
        debug_assert_eq!(out.offsets.len(), n + 1);
        assert!(
            count <= u32::MAX as usize,
            "one round's message volume overflows the u32 inbox offset table"
        );
        // A one-shard round leaves the cells of trailing rows that never
        // scattered unallocated.
        self.cells.resize_with(graph.slot_count(), || None);
        self.cursor.clear();
        self.cursor
            .extend(graph.nodes().map(|u| graph.slot_range(u).start));
        out.arena.clear();
        out.arena.reserve(count);
        for v in graph.nodes() {
            out.offsets[v.index()] = out.arena.len() as u32;
            for &from in graph.neighbors(v) {
                let slot = &mut self.cursor[from.index()];
                debug_assert_eq!(
                    graph.neighbors(from)[*slot - graph.slot_range(from).start],
                    v
                );
                let cell = &mut self.cells[*slot];
                *slot += 1;
                if let Some(payload) = cell.take() {
                    out.arena.push(Envelope {
                        from,
                        to: v,
                        payload,
                    });
                }
            }
        }
        out.offsets[n] = out.arena.len() as u32;
    }

    /// Stages the scatters of the senders in `senders`, in id order, as
    /// envelopes: the path of a round whose scatters share the sorter
    /// with other envelopes. Empties their cells.
    pub(crate) fn stage(
        &mut self,
        graph: &Graph,
        senders: Range<usize>,
        sorter: &mut DeliverySorter<P>,
    ) {
        if self.cells.is_empty() {
            return;
        }
        for u in senders {
            let u = NodeId::new(u as u32);
            let row = graph.slot_range(u);
            // Rows past the cells' end were never written.
            let Some(cells) = self.cells.get_mut(row) else {
                return;
            };
            for (&to, cell) in graph.neighbors(u).iter().zip(cells) {
                if let Some(payload) = cell.take() {
                    sorter.push(Envelope {
                        from: u,
                        to,
                        payload,
                    });
                }
            }
        }
    }

    /// The cells' allocation and length (white-box recycling tests).
    #[cfg(test)]
    pub(crate) fn buffer(&self) -> (*const Option<P>, usize) {
        (self.cells.as_ptr(), self.cells.len())
    }
}

/// A shard's writable rows of the link table, owned for the round: the
/// cells of the directed slots `base..base + len` its nodes own, in the
/// table's layout. A one-shard round is lent the table itself
/// ([`LinkTable::lend`]); with several shards each writes to cells of its
/// own, which the table gathers after the round ([`LinkTable::gather`]).
/// The cells grow row by row as the shard's nodes scatter, so a round
/// that allocates them writes each cell once.
#[derive(Debug)]
pub(crate) struct LinkRows<P> {
    /// The shard's first directed slot (0 for a single shard, which is
    /// lent the whole table).
    base: usize,
    /// The shard's slot count.
    len: usize,
    /// The cells from `base` on; shorter than `len` until the rows of the
    /// shard's last nodes are written.
    cells: Vec<Option<P>>,
}

impl<P> LinkRows<P> {
    /// Rows owning no slots yet.
    pub(crate) fn new() -> Self {
        LinkRows {
            base: 0,
            len: 0,
            cells: Vec::new(),
        }
    }

    /// Sets the directed slots the shard's nodes own this round.
    pub(crate) fn own(&mut self, slots: Range<usize>) {
        self.base = slots.start;
        self.len = slots.len();
    }

    /// The row of the directed slots `slots` if it holds a scatter
    /// (white-box tests).
    #[cfg(test)]
    pub(crate) fn scattered(&self, slots: Range<usize>) -> Option<&[Option<P>]> {
        let row = self
            .cells
            .get(slots.start - self.base..slots.end - self.base)?;
        row.first()?.as_ref().map(|_| row)
    }

    /// The cells of the directed slots `slots`, one node's row, growing
    /// the cells to it on first use.
    #[inline]
    pub(crate) fn row(&mut self, slots: Range<usize>) -> &mut [Option<P>] {
        let (start, end) = (slots.start - self.base, slots.end - self.base);
        if self.cells.len() < end {
            self.cells.reserve_exact(self.len - self.cells.len());
            self.cells.resize_with(end, || None);
        }
        &mut self.cells[start..end]
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
    /// Destination index of each bucket entry while a block is permuted.
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

    /// Writes `tag(u, o)` into the row of every scatterer `u` of `g`
    /// through `shards` shards' rows, the way a round does (one shard
    /// is lent the table, several are gathered), and returns the table
    /// with the payload count.
    fn scatter_into_table(
        g: &Graph,
        shards: usize,
        scatters: impl Fn(usize) -> bool,
        tag: impl Fn(usize, usize) -> u32,
    ) -> (LinkTable<u32>, usize) {
        let mut table = LinkTable::new();
        let ranges = ftclust_par::split_ranges(g.node_count(), shards);
        let mut rows: Vec<LinkRows<u32>> = ranges.iter().map(|_| LinkRows::new()).collect();
        if let [only] = &mut rows[..] {
            table.lend(only);
        }
        let mut count = 0;
        for (r, rows) in ranges.iter().zip(&mut rows) {
            let first = g.slot_range(NodeId::new(r.start as u32)).start;
            let last = g.slot_range(NodeId::new(r.end as u32 - 1)).end;
            rows.own(first..last);
            for u in r.clone().filter(|&u| scatters(u)) {
                let slots = g.slot_range(NodeId::new(u as u32));
                for (o, cell) in rows.row(slots.clone()).iter_mut().enumerate() {
                    *cell = Some(tag(u, o));
                    count += 1;
                }
                assert!(rows.scattered(slots).is_some() || g.degree(NodeId::new(u as u32)) == 0);
            }
        }
        if let [only] = &mut rows[..] {
            table.lend(only);
        } else {
            table.gather(g.slot_count(), rows.iter_mut());
        }
        (table, count)
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

    #[test]
    fn link_rows_grow_row_by_row() {
        // A shard owning slots 4..12: rows are written in node order and
        // the cells grow to each row's end, once for all of them.
        let mut rows = LinkRows::<u32>::new();
        rows.own(4..12);
        assert!(rows.scattered(4..6).is_none());
        rows.row(6..9).copy_from_slice(&[Some(1), Some(2), Some(3)]);
        assert_eq!(rows.cells.len(), 5);
        assert!(rows.cells.capacity() >= 8);
        assert!(rows.scattered(4..6).is_none());
        assert_eq!(rows.scattered(6..9), Some(&[Some(1), Some(2), Some(3)][..]));
        assert!(rows.scattered(9..12).is_none());
        rows.row(10..12)[1] = Some(4);
        assert_eq!(rows.cells.len(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Delivering a round of scatters builds exactly the arena the
        /// sorter builds from the scatters' envelopes, at every shard
        /// count, and empties the table.
        #[test]
        fn delivered_scatters_equal_sorted_envelopes(
            n in 1usize..=64,
            adjacency in proptest::collection::vec(0u64..u64::MAX, 64),
            scatterers in 0u64..u64::MAX,
            shards in 1usize..=4,
        ) {
            let g = graph_from_bits(n, &adjacency);
            let scatters = |u: usize| (scatterers >> u) & 1 == 1;
            let tag = |u: usize, o: usize| 100 * u as u32 + o as u32;
            let (mut table, count) = scatter_into_table(&g, shards, scatters, tag);
            let mut arena = InboxArena::new(n);
            table.deliver(&g, count, &mut arena);
            let mut sorter = DeliverySorter::new(n);
            let mut want = InboxArena::new(n);
            for u in g.nodes().filter(|u| scatters(u.index())) {
                for (o, &v) in g.neighbors(u).iter().enumerate() {
                    sorter.push(env(u.raw(), v.raw(), tag(u.index(), o)));
                }
            }
            sorter.finish(n, &mut want);
            let seen = |a: &InboxArena<u32>, i: usize| {
                a.inbox(i).iter().map(|e| (e.from, e.to, e.payload)).collect::<Vec<_>>()
            };
            for i in 0..n {
                prop_assert_eq!(seen(&arena, i), seen(&want, i), "inbox of node {}", i);
            }
            prop_assert_eq!(arena.total(), count as u64);
            prop_assert!(table.cells.iter().all(Option::is_none));
        }

        /// Scatters staged between other senders' envelopes, in sender
        /// order, sort into the inboxes the envelopes alone would have
        /// given.
        #[test]
        fn staged_scatters_keep_sender_order(
            n in 1usize..=64,
            adjacency in proptest::collection::vec(0u64..u64::MAX, 64),
            scatterers in 0u64..u64::MAX,
            sends in proptest::collection::vec((0usize..64, 0usize..64), 0..128),
            shards in 1usize..=4,
        ) {
            let g = graph_from_bits(n, &adjacency);
            let scatters = |u: usize| (scatterers >> u) & 1 == 1;
            let tag = |u: usize, o: usize| 100 * u as u32 + o as u32;
            let (mut table, _) = scatter_into_table(&g, shards, scatters, tag);
            let mut others: Vec<Envelope<u32>> = sends
                .iter()
                .enumerate()
                .filter(|&(_, &(from, to))| from < n && to < n && !scatters(from))
                .map(|(k, &(from, to))| env(from as u32, to as u32, 10_000 + k as u32))
                .collect();
            others.sort_by_key(|e| e.from);
            let mut all = others.clone();
            for u in g.nodes().filter(|u| scatters(u.index())) {
                for (o, &v) in g.neighbors(u).iter().enumerate() {
                    all.push(env(u.raw(), v.raw(), tag(u.index(), o)));
                }
            }
            all.sort_by_key(|e| e.from);
            let mut sorter = DeliverySorter::new(n);
            let mut next = 0;
            for e in others {
                table.stage(&g, next..e.from.index(), &mut sorter);
                next = e.from.index();
                sorter.push(e);
            }
            table.stage(&g, next..n, &mut sorter);
            let mut arena = InboxArena::new(n);
            sorter.finish(n, &mut arena);
            let expect = naive(n, &all);
            for (i, want) in expect.iter().enumerate() {
                let got: Vec<u32> = arena.inbox(i).iter().map(|e| e.payload).collect();
                prop_assert_eq!(&got, want, "inbox of node {}", i);
            }
            prop_assert!(table.cells.iter().all(Option::is_none));
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
