//! Adversarial-delivery integration tests: the conservation law extended
//! with the adversary's fault counters under random churn × loss ×
//! adversary mixes, the fail-fast guarantee (a permanent partition
//! surfaces `DeliveryFailed` naming the cut link — never a hang),
//! corruption masked on an asynchronous network, and byte-identical
//! event logs across `FTCLUST_THREADS` for an adversarial traced run.

use ftclust::core::fractional::protocol::run_fractional_stack;
use ftclust::core::fractional::FractionalParams;
use ftclust::core::udg::protocol::run_udg_stack;
use ftclust::core::udg::UdgAlgorithm;
use ftclust::core::{Instance, KmdsError};
use ftclust::graphs::{generators, NodeId};
use ftclust::netsim::exec::Stack;
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::{
    AdversaryPlan, ChurnPlan, Context, Control, EventLog, Inbox, NodeLogic, Payload, SimError,
    Simulator, Topology,
};
use ftclust_par::with_threads;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The adversary-extended conservation law at the simulator level:
    /// every sent message (including injected network duplicates, which
    /// are metered as sends) is delivered, dropped by loss or a
    /// partition cut, dead on arrival, erased by corruption, or still
    /// held in the adversary's delay queue.
    #[test]
    fn conservation_holds_under_chaos(
        n in 4u32..40,
        edge_p in 0.05f64..0.3,
        drop in 0.0f64..0.25,
        corrupt in 0.0f64..0.25,
        dup in 0.0f64..0.25,
        jitter in 0.0f64..0.25,
        max_delay in 1u64..4,
        crashes in proptest::collection::vec((0u32..40, 1u64..8, 1u64..6), 0..3),
        seed in 0u64..1_000,
    ) {
        let g = generators::gnp(n, edge_p, seed);
        let mut churn = ChurnPlan::none();
        for (v, down, dur) in crashes {
            if v < n {
                churn = churn
                    .crash(NodeId::new(v), down)
                    .recover(NodeId::new(v), down + dur);
            }
        }
        let plan = AdversaryPlan::new(seed ^ 0xC4A05)
            .jitter(jitter, max_delay)
            .duplicate(dup)
            .corrupt(corrupt);
        let mut sim = Simulator::with_churn(
            Topology::from_graph(&g),
            |_| Chatter { ttl: 6 },
            seed,
            churn,
        );
        sim.set_loss(drop);
        sim.set_adversary(plan);
        sim.run(200).unwrap();
        let m = sim.metrics();
        let in_flight = sim.in_flight_messages();
        prop_assert_eq!(
            m.messages,
            m.unique_delivered()
                + m.duplicates_suppressed
                + m.dropped_messages
                + m.dead_on_arrival
                + m.corrupted
                + in_flight,
            "conservation law violated"
        );
        // No transport below the simulator: nothing suppresses, so the
        // duplicate sources bound is trivially the suppressed count.
        prop_assert_eq!(m.duplicates_suppressed, 0);
        prop_assert!(m.retransmits == 0 && m.acks == 0);
    }

    /// The same law through the reliable transport: the receiver
    /// suppresses duplicates, which now come from **two** sources —
    /// retransmissions and the adversary's injected copies — and the
    /// computed solution still matches the fault-free run whenever the
    /// transport survives.
    #[test]
    fn transport_conservation_holds_under_chaos(
        corrupt in 0.0f64..0.2,
        dup in 0.0f64..0.2,
        jitter in 0.0f64..0.2,
        seed in 0u64..1_000,
    ) {
        let g = generators::gnp(40, 0.12, 11);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let (clean, _) = run_fractional_stack(&inst, &params, Stack::new()).unwrap();
        let plan = AdversaryPlan::new(seed)
            .jitter(jitter, 3)
            .duplicate(dup)
            .corrupt(corrupt);
        let stack = Stack::new()
            .adversarial(plan)
            .transport(TransportConfig::default());
        match run_fractional_stack(&inst, &params, stack) {
            Ok((run, _)) => {
                prop_assert_eq!(&run.solution, &clean.solution, "chaos changed the result");
                let m = &run.metrics;
                let accounted = m.unique_delivered()
                    + m.duplicates_suppressed
                    + m.dropped_messages
                    + m.dead_on_arrival
                    + m.corrupted;
                prop_assert!(accounted <= m.messages, "more messages accounted than sent");
                prop_assert!(
                    m.duplicates_suppressed <= m.retransmits + m.net_duplicated,
                    "more duplicates suppressed than retransmissions + injected copies"
                );
            }
            // Legitimate fail-fast under extreme sustained loss: the
            // retransmit budget is finite by design.
            Err(KmdsError::Sim(SimError::DeliveryFailed { .. })) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}

/// A permanent partition cannot be masked: the transport exhausts one
/// frame's retransmit budget and names the cut link — it never hangs.
#[test]
fn permanent_partition_fails_fast_naming_the_cut_link() {
    let g = generators::gnp(60, 0.1, 5);
    let inst = Instance::uniform_clamped(&g, 2);
    let side: Vec<NodeId> = (0..15).map(NodeId::new).collect();
    let cfg = TransportConfig::default();
    let stack = Stack::new()
        .adversarial(AdversaryPlan::new(9).partition(&side, 0..u64::MAX))
        .transport(cfg);
    match run_fractional_stack(&inst, &FractionalParams::new(2), stack) {
        Err(KmdsError::Sim(SimError::DeliveryFailed {
            from, to, attempts, ..
        })) => {
            assert_ne!(
                side.contains(&from),
                side.contains(&to),
                "reported link {from:?} -> {to:?} does not cross the partition"
            );
            assert_eq!(
                attempts,
                cfg.max_retransmits + 1,
                "budget must be fully exhausted before giving up"
            );
        }
        Ok(_) => panic!("the transport masked a permanent partition"),
        Err(e) => panic!("expected DeliveryFailed, got: {e}"),
    }
}

/// Corruption on an asynchronous network is masked: with every frame
/// delayed by 1..=4 rounds and 40% of them checksum-erased, the
/// transport retransmits until each round's frames are through, and
/// Algorithm 1 computes exactly its synchronous solution.
#[test]
fn async_with_corruption_is_masked() {
    let g = generators::gnp(80, 0.06, 7);
    let inst = Instance::uniform_clamped(&g, 2);
    let params = FractionalParams::new(2);
    let rto = 2 * (4 + 1) + 1;
    let cfg = TransportConfig {
        rto,
        backoff_cap: rto.max(16),
        max_retransmits: 20,
    };
    let stack = Stack::new()
        .transport(cfg)
        .adversarial(AdversaryPlan::new(3).jitter(1.0, 4).corrupt(0.4));
    let (run, _) = run_fractional_stack(&inst, &params, stack).unwrap();
    let (sync, _) = run_fractional_stack(&inst, &params, Stack::new()).unwrap();
    assert_eq!(
        run.solution, sync.solution,
        "corruption leaked into the result"
    );
    assert!(run.metrics.corrupted > 0, "no frame was corrupted");
    assert!(
        run.metrics.retransmits > 0,
        "corruption was not retransmitted"
    );
}

/// An adversarial traced transport run is deterministic to the byte:
/// identical results and `EventLog` JSONL at 1, 2 and 7 threads.
#[test]
fn adversarial_traced_log_is_byte_identical_across_threads() {
    let g = generators::gnp(80, 0.08, 13);
    let inst = Instance::uniform_clamped(&g, 2);
    let params = FractionalParams::new(2);
    let stack = || {
        Stack::new()
            .adversarial(
                AdversaryPlan::new(0xADF0)
                    .jitter(0.15, 3)
                    .duplicate(0.1)
                    .corrupt(0.1),
            )
            .transport(TransportConfig::default())
            .traced()
    };
    let runs: Vec<_> = [1usize, 2, 7]
        .into_iter()
        .map(|t| with_threads(t, || run_fractional_stack(&inst, &params, stack()).unwrap()))
        .collect();
    let (base, base_log) = &runs[0];
    let base_log = base_log.as_ref().expect("traced stack records a log");
    base_log.reconcile(&base.metrics).unwrap();
    assert!(base.metrics.corrupted > 0, "chaos run saw no corruption");
    assert!(
        base.metrics.net_duplicated > 0,
        "chaos run saw no injected duplicates"
    );
    for (t, (run, log)) in [2usize, 7].into_iter().zip(&runs[1..]) {
        assert_eq!(
            &base.solution, &run.solution,
            "results diverged at {t} threads"
        );
        assert_eq!(
            base_log.to_jsonl(),
            log.as_ref().unwrap().to_jsonl(),
            "event log diverged at {t} threads"
        );
    }
}

/// FNV-1a over a byte stream, for pinning long outputs by digest.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the *physical* frame schedule of a chaos run, not only its
/// result. The transport masks timing by design, so a change that moves
/// one retransmit by one round leaves every inner state intact; it shows
/// only in the metered counters, the per-round message profile and the
/// event log, all pinned here against recorded values.
#[test]
fn chaos_frame_schedule_is_pinned() {
    let s = 7u64;
    let udg = generators::random_udg(300, 12.0, 1.0, s);
    let config = UdgAlgorithm::new(2).seed(s);
    let stack = || {
        Stack::new().lossy(0.1).adversarial(
            AdversaryPlan::new(s)
                .jitter(0.05, 3)
                .duplicate(0.05)
                .corrupt(0.05),
        )
    };
    let (run, _) = run_udg_stack(&udg, &config, stack()).unwrap();
    let (traced, log) = run_udg_stack(&udg, &config, stack().traced()).unwrap();
    assert_eq!(traced.metrics, run.metrics, "tracing changed the schedule");
    let m = &run.metrics;
    assert_eq!(
        [
            m.messages,
            m.total_bits,
            m.max_message_bits,
            m.retransmits,
            m.acks
        ],
        [111_201, 825_643, 47, 16_132, 44_196]
    );
    assert_eq!(
        [
            m.duplicates_suppressed,
            m.dropped_messages,
            m.corrupted,
            m.net_duplicated
        ],
        [9_685, 10_723, 4_885, 4_574]
    );
    assert_eq!([m.delivered_messages, m.rounds], [95_593, 333]);
    let profile = fnv1a(m.per_round_messages.iter().flat_map(|x| x.to_le_bytes()));
    assert_eq!(
        profile, 0x1c63_a91d_88e7_eaa8,
        "per-round message profile moved"
    );
    // Algorithm 3 executes 2 rounds per Part I iteration and a 3-round
    // cycle per Part II iteration plus the final quiet one.
    let (part1, part2) = (run.run.part1_rounds, run.run.part2_iterations);
    assert_eq!((part1, part2), (6, 1));
    assert_eq!(2 * part1 + 3 * (part2 + 1), 18, "logical rounds");
    let log = log.expect("traced stack records a log");
    assert_eq!(
        fnv1a(log.to_jsonl().into_bytes()),
        0x67b7_bdab_feae_4daa,
        "event log moved"
    );
}

/// Pins the frame schedule of a heavily jittered lossy run: delays of up
/// to 4 rounds on half the frames reorder data and acks, so acks are
/// often owed on links out of arrival order, and peers run several
/// rounds past neighbours whose inner logic has already halted.
#[test]
fn jittered_frame_schedule_is_pinned() {
    let s = 11u64;
    let udg = generators::random_udg(200, 12.0, 1.0, s);
    let config = UdgAlgorithm::new(2).seed(s);
    let stack = Stack::new()
        .lossy(0.2)
        .adversarial(AdversaryPlan::new(s).jitter(0.5, 4));
    let (run, _) = run_udg_stack(&udg, &config, stack).unwrap();
    let m = &run.metrics;
    assert_eq!(
        [m.messages, m.acks, m.retransmits, m.duplicates_suppressed],
        [93_600, 36_963, 26_484, 15_065]
    );
    let profile = fnv1a(m.per_round_messages.iter().flat_map(|x| x.to_le_bytes()));
    assert_eq!(
        profile, 0xe9f3_5be9_9eab_32b7,
        "per-round message profile moved"
    );
}

/// Pins the raw channel's fault order on a bare simulator, with no
/// transport to mask it: random churn and i.i.d. loss interleave on the
/// simulator's shared fault stream, a scheduled crash and recovery
/// change who receives, loss is drawn ahead of a partition window that
/// cuts some of the same links, and corruption, duplication and jitter
/// draw from the per-link streams of the envelopes that survive both.
/// The counters, the per-round message profile and the event log are
/// pinned against recorded values.
#[test]
fn raw_channel_fault_order_is_pinned() {
    let g = generators::gnp(60, 0.1, 21);
    let side: Vec<NodeId> = (0..20).map(NodeId::new).collect();
    let churn = ChurnPlan::none()
        .random_churn(0.02, 0.4)
        .crash(NodeId::new(7), 3)
        .recover(NodeId::new(7), 9);
    let plan = AdversaryPlan::new(0x5EED)
        .jitter(0.2, 3)
        .duplicate(0.1)
        .corrupt(0.1)
        .partition(&side, 4..10);
    let mut sim =
        Simulator::with_churn(Topology::from_graph(&g), |_| Chatter { ttl: 14 }, 5, churn);
    sim.set_loss(0.15);
    sim.set_adversary(plan);
    sim.set_event_log(EventLog::new());
    sim.run(500).unwrap();
    let m = sim.metrics().clone();
    let log = sim.take_event_log().expect("the log was attached");
    log.reconcile(&m).unwrap();
    assert_eq!(
        [m.messages, m.total_bits, m.delivered_messages, m.rounds],
        [4_872, 4_872, 3_099, 17]
    );
    assert_eq!(
        [
            m.dropped_messages,
            m.dead_on_arrival,
            m.corrupted,
            m.net_duplicated,
            sim.in_flight_messages()
        ],
        [1_304, 131, 320, 319, 18]
    );
    let profile = fnv1a(m.per_round_messages.iter().flat_map(|x| x.to_le_bytes()));
    assert_eq!(
        profile, 0x3ed5_5974_9e71_386d,
        "per-round message profile moved"
    );
    assert_eq!(
        fnv1a(log.to_jsonl().into_bytes()),
        0x95c0_5b5e_1498_a0cf,
        "event log moved"
    );
}
