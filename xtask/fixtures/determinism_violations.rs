//! NOT COMPILED — lint self-test fixture seeding one violation of every
//! determinism-auditor rule. `cargo xtask lint` fails if any
//! of these goes undetected.

/// Seeded: `hashmap-iteration` — order-sensitive drain of a hash map
/// with no sorted path in sight.
pub fn seeded_hashmap_iteration(pairs: &[(u32, u64)]) -> u64 {
    let mut m: HashMap<u32, u64> = HashMap::new();
    for &(k, v) in pairs {
        m.insert(k, v);
    }
    let mut total = 0;
    for (_k, v) in &m {
        total += v;
    }
    total
}

/// Seeded: `wall-clock` — reads ambient machine time.
pub fn seeded_wall_clock() -> std::time::Instant {
    Instant::now()
}

/// Seeded: `env-read` — ambient environment read outside the sanctioned
/// `FTCLUST_THREADS` site.
pub fn seeded_env_read() -> Option<String> {
    std::env::var("FTCLUST_FIXTURE").ok()
}

/// Seeded: `unseeded-rng` — RNG constructed from ambient entropy.
pub fn seeded_unseeded_rng() -> u64 {
    let mut rng = rand::thread_rng();
    rng.random()
}

/// Seeded: `unsafe-without-safety` — no safety justification comment
/// anywhere near the block.
pub fn seeded_unsafe(ptr: *const u32) -> u32 {
    unsafe { *ptr }
}

/// Seeded: `merge-order` — an atomic merge inside a parallel call site
/// completes in scheduler order.
pub fn seeded_merge_order(counter: &AtomicUsize) -> Vec<usize> {
    par_map_range(64, |_i| counter.fetch_add(1, Ordering::Relaxed))
}
