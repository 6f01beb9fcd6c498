//! NOT COMPILED — lint self-test fixture seeding `merge-order`
//! violations shaped like arena-merge misuse: building the CSR inbox
//! arena's offsets or contents from inside a parallel call site with
//! shared mutable state. The real arena (`crates/netsim/src/arena.rs`)
//! merges per-shard outboxes **sequentially** in shard-index order; any
//! of these "optimizations" would make delivery order depend on the
//! scheduler. `cargo xtask lint` fails if either seed goes
//! undetected.

/// Seeded: `merge-order` — allocating arena offsets with an atomic
/// `fetch_add` inside a parallel call site hands out envelope slots in
/// scheduler order, so the arena layout differs run to run.
pub fn seeded_arena_offset_fetch_add(
    shards: &[Vec<Envelope<P>>],
    cursor: &AtomicUsize,
) -> Vec<usize> {
    par_map_range(shards.len(), |s| {
        cursor.fetch_add(shards[s].len(), Ordering::Relaxed)
    })
}

/// Seeded: `merge-order` — pushing envelopes into a shared locked arena
/// from inside a parallel call site interleaves shards in completion
/// order instead of shard-index order.
pub fn seeded_arena_locked_merge(shards: &mut [Vec<Envelope<P>>], arena: &Mutex<Vec<Envelope<P>>>) {
    par_each_mut(shards, |shard| {
        arena.lock().expect("arena lock").append(shard);
    });
}
