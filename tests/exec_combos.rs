//! Layer-composition tests for the executor stack of
//! `ftclust_netsim::exec`: the combinations the pre-executor driver
//! matrix never offered — **lossy+traced** and **churned+lossy** (with
//! tracing stacked on top, so all three layers compose) — run Algorithm
//! 1 and the coverage repair with results identical to the lossless
//! runs, byte-identical [`EventLog`]s at every `FTCLUST_THREADS`
//! setting, and metrics satisfying the transport-extended conservation
//! law. The portfolio protocols (`pb`, `dkm`, `cgreedy`) go through the
//! same layers at the bottom of this file: fixed-seed thread
//! invariance, lossy parity up to p = 0.2, and a churned+adversarial
//! smoke per algorithm. Asynchrony is one more combination — the
//! transport under full delay jitter — and Algorithms 1, 2, 3 and the
//! repair compute their synchronous results on it, also under loss.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration-test helpers outside `#[test]` abort the test on failure"
)]

use ftclust::core::fractional::protocol::run_fractional_stack;
use ftclust::core::fractional::{FractionalParams, FractionalSolution};
use ftclust::core::portfolio::{run_cgreedy_stack, run_dkm_stack, run_pb_stack, PortfolioRun};
use ftclust::core::repair::{run_repair_stack, RepairOutcome};
use ftclust::core::rounding::protocol::run_rounding_stack;
use ftclust::core::rounding::{RoundingOutcome, RoundingParams};
use ftclust::core::udg::protocol::run_udg_stack;
use ftclust::core::udg::{UdgAlgorithm, UdgRun};
use ftclust::core::validate::{is_k_dominating_instance, Semantics};
use ftclust::core::Instance;
use ftclust::graphs::generators;
use ftclust::graphs::NodeId;
use ftclust::netsim::exec::Stack;
use ftclust::netsim::trace::{REGISTERED_SPANS, UNSPANNED};
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::{AdversaryPlan, ChurnPlan, EventLog, Metrics};
use ftclust_par::with_threads;

/// Thread counts compared against the single-thread reference.
const THREADS: &[usize] = &[2, 7];

/// Asserts `log` uses only registered span names and reconciles against
/// the run's metrics.
fn check_log(log: &EventLog, metrics: &Metrics, what: &str) {
    log.reconcile(metrics)
        .unwrap_or_else(|e| panic!("{what}: rollups diverged from Metrics: {e}"));
    for r in log.rollups() {
        assert!(
            r.name == UNSPANNED || REGISTERED_SPANS.contains(&r.name),
            "{what}: unregistered span {:?}",
            r.name
        );
    }
}

/// The transport-extended conservation law.
fn check_conservation(m: &Metrics, what: &str) {
    assert_eq!(
        m.delivered_messages,
        m.unique_delivered() + m.duplicates_suppressed,
        "{what}: delivered ≠ unique + suppressed duplicates"
    );
    assert!(
        m.duplicates_suppressed <= m.retransmits,
        "{what}: more duplicates than retransmissions"
    );
    assert!(
        m.delivered_messages + m.dropped_messages + m.dead_on_arrival <= m.messages,
        "{what}: more messages accounted than sent"
    );
}

/// Transport + i.i.d. loss + tracing: the lossy+traced combination.
fn lossy_traced(p: f64) -> Stack {
    Stack::new().lossy(p).traced()
}

/// Transport + i.i.d. loss + a scheduled crash/recovery window +
/// tracing: the churned+lossy combination (all three layers composed).
fn churned_lossy_traced(p: f64, victim: u32, down: u64, up: u64) -> Stack {
    Stack::new()
        .lossy(p)
        .churned(
            ChurnPlan::none()
                .crash(NodeId::new(victim), down)
                .recover(NodeId::new(victim), up),
        )
        .traced()
}

#[test]
fn alg1_lossy_traced_is_thread_invariant_and_reconciles() {
    for &seed in &[5u64, 29] {
        let g = generators::gnp(40, 0.15, seed);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let (lossless, _) = run_fractional_stack(&inst, &params, Stack::new()).expect("lossless");
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) =
                run_fractional_stack(&inst, &params, lossy_traced(0.1)).expect("lossy+traced");
            let log = log.expect("traced stack records a log");
            check_log(&log, &run.metrics, "Alg 1 lossy+traced");
            check_conservation(&run.metrics, "Alg 1 lossy+traced");
            (run, log)
        });
        assert_eq!(
            ref_run.solution, lossless.solution,
            "loss changed Algorithm 1's solution at seed {seed}"
        );
        assert!(
            ref_run.metrics.retransmits > 0,
            "no loss was exercised at seed {seed}"
        );
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) =
                    run_fractional_stack(&inst, &params, lossy_traced(0.1)).expect("lossy+traced");
                (run, log.expect("traced stack records a log"))
            });
            assert_eq!(ref_run.solution, run.solution, "seed={seed} t={t}");
            assert_eq!(ref_run.metrics, run.metrics, "seed={seed} t={t}");
            assert_eq!(ref_log, log, "log diverged seed={seed} t={t}");
            assert_eq!(
                ref_log.to_jsonl(),
                log.to_jsonl(),
                "jsonl diverged seed={seed} t={t}"
            );
        }
    }
}

#[test]
fn alg1_churned_lossy_is_thread_invariant_and_reconciles() {
    for &seed in &[5u64, 29] {
        let g = generators::gnp(40, 0.15, seed);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let (lossless, _) = run_fractional_stack(&inst, &params, Stack::new()).expect("lossless");
        // Node 3 goes down for physical rounds 2..7; the ARQ retransmits
        // until it is back, so the solution cannot change.
        let stack = || churned_lossy_traced(0.05, 3, 2, 7);
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) = run_fractional_stack(&inst, &params, stack()).expect("churned+lossy");
            let log = log.expect("traced stack records a log");
            check_log(&log, &run.metrics, "Alg 1 churned+lossy");
            check_conservation(&run.metrics, "Alg 1 churned+lossy");
            (run, log)
        });
        assert_eq!(
            ref_run.solution, lossless.solution,
            "churn+loss changed Algorithm 1's solution at seed {seed}"
        );
        assert!(
            ref_run.metrics.dead_on_arrival > 0 || ref_run.metrics.retransmits > 0,
            "no churn or loss was exercised at seed {seed}"
        );
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) =
                    run_fractional_stack(&inst, &params, stack()).expect("churned+lossy");
                (run, log.expect("traced stack records a log"))
            });
            assert_eq!(ref_run.solution, run.solution, "seed={seed} t={t}");
            assert_eq!(ref_run.metrics, run.metrics, "seed={seed} t={t}");
            assert_eq!(ref_log, log, "log diverged seed={seed} t={t}");
        }
    }
}

/// Repair fixture: an engine-built clustering with ten members killed.
fn repair_fixture() -> (
    ftclust::graphs::UnitDiskGraph,
    ftclust::core::DominatingSet,
    Vec<bool>,
) {
    let udg = generators::random_udg(150, 9.0, 1.0, 12);
    let base = UdgAlgorithm::new(2).seed(7).run(&udg).expect("udg engine");
    let mut alive = vec![true; udg.graph().node_count()];
    for v in base.set.ids().take(10) {
        alive[v.index()] = false;
    }
    (udg, base.set, alive)
}

#[test]
fn repair_lossy_traced_is_thread_invariant_and_reconciles() {
    let (udg, set, alive) = repair_fixture();
    let g = udg.graph();
    let (lossless, _) = run_repair_stack(g, &set, &alive, 2, Stack::new()).expect("lossless");
    assert!(
        !lossless.outcome.added.is_empty(),
        "fixture repairs nothing"
    );
    let (ref_run, ref_log) = with_threads(1, || {
        let (run, log) =
            run_repair_stack(g, &set, &alive, 2, lossy_traced(0.1)).expect("lossy+traced");
        let log = log.expect("traced stack records a log");
        check_log(&log, &run.metrics, "repair lossy+traced");
        check_conservation(&run.metrics, "repair lossy+traced");
        (run, log)
    });
    assert_eq!(ref_run.outcome, lossless.outcome, "loss changed the repair");
    assert!(ref_run.metrics.retransmits > 0, "no loss was exercised");
    for &t in THREADS {
        let (run, log) = with_threads(t, || {
            let (run, log) =
                run_repair_stack(g, &set, &alive, 2, lossy_traced(0.1)).expect("lossy+traced");
            (run, log.expect("traced stack records a log"))
        });
        assert_eq!(ref_run.outcome, run.outcome, "t={t}");
        assert_eq!(ref_run.metrics, run.metrics, "t={t}");
        assert_eq!(ref_log, log, "log diverged t={t}");
        assert_eq!(ref_log.to_jsonl(), log.to_jsonl(), "jsonl diverged t={t}");
    }
}

#[test]
fn repair_churned_lossy_is_thread_invariant_and_reconciles() {
    let (udg, set, alive) = repair_fixture();
    let g = udg.graph();
    let (lossless, _) = run_repair_stack(g, &set, &alive, 2, Stack::new()).expect("lossless");
    // Subgraph node 5 goes down for physical rounds 2..8.
    let stack = || churned_lossy_traced(0.05, 5, 2, 8);
    let (ref_run, ref_log) = with_threads(1, || {
        let (run, log) = run_repair_stack(g, &set, &alive, 2, stack()).expect("churned+lossy");
        let log = log.expect("traced stack records a log");
        check_log(&log, &run.metrics, "repair churned+lossy");
        check_conservation(&run.metrics, "repair churned+lossy");
        (run, log)
    });
    assert_eq!(
        ref_run.outcome, lossless.outcome,
        "churn+loss changed the repair"
    );
    for &t in THREADS {
        let (run, log) = with_threads(t, || {
            let (run, log) = run_repair_stack(g, &set, &alive, 2, stack()).expect("churned+lossy");
            (run, log.expect("traced stack records a log"))
        });
        assert_eq!(ref_run.outcome, run.outcome, "t={t}");
        assert_eq!(ref_run.metrics, run.metrics, "t={t}");
        assert_eq!(ref_log, log, "log diverged t={t}");
    }
}

// ---------------------------------------------------------------------
// Portfolio protocols through the same layer combinations.
// ---------------------------------------------------------------------

/// The three portfolio protocols, dispatched by stable name.
const PORTFOLIO: [&str; 3] = ["pb", "dkm", "cgreedy"];

fn run_portfolio(
    name: &str,
    inst: &Instance<'_>,
    stack: Stack,
) -> (PortfolioRun, Option<EventLog>) {
    match name {
        "pb" => run_pb_stack(inst, stack),
        "dkm" => run_dkm_stack(inst, stack),
        "cgreedy" => run_cgreedy_stack(inst, stack),
        other => unreachable!("unknown portfolio protocol {other}"),
    }
    .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Fixed-seed determinism: every portfolio protocol, run lossy+traced,
/// is bit-for-bit identical (set, metrics, event log, rendered JSONL)
/// at 1, 2 and 7 worker threads.
#[test]
fn portfolio_protocols_are_thread_invariant() {
    let g = generators::gnp(60, 0.12, 21);
    let inst = Instance::uniform_clamped(&g, 2);
    for name in PORTFOLIO {
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) = run_portfolio(name, &inst, lossy_traced(0.1));
            let log = log.expect("traced stack records a log");
            check_log(&log, &run.metrics, name);
            check_conservation(&run.metrics, name);
            (run, log)
        });
        assert!(
            is_k_dominating_instance(&inst, &ref_run.set, Semantics::CoverSelf),
            "{name}: invalid set"
        );
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) = run_portfolio(name, &inst, lossy_traced(0.1));
                (run, log.expect("traced stack records a log"))
            });
            assert_eq!(ref_run.set, run.set, "{name}: set diverged t={t}");
            assert_eq!(
                ref_run.metrics, run.metrics,
                "{name}: metrics diverged t={t}"
            );
            assert_eq!(ref_log, log, "{name}: log diverged t={t}");
            assert_eq!(
                ref_log.to_jsonl(),
                log.to_jsonl(),
                "{name}: jsonl diverged t={t}"
            );
        }
    }
}

/// Lossy parity: the transport masks i.i.d. loss up to p = 0.2 for the
/// portfolio protocols exactly as for the paper's algorithms — same
/// set, same logical round count, loss actually exercised.
#[test]
fn portfolio_protocols_survive_loss_unchanged() {
    let g = generators::gnp(60, 0.12, 33);
    let inst = Instance::uniform_clamped(&g, 2);
    for name in PORTFOLIO {
        let (lossless, _) = run_portfolio(name, &inst, Stack::new());
        for p in [0.05, 0.2] {
            let (lossy, _) = run_portfolio(name, &inst, lossy_traced(p));
            assert_eq!(
                lossy.set, lossless.set,
                "{name}: loss changed the set at p={p}"
            );
            assert_eq!(
                lossy.logical_rounds, lossless.logical_rounds,
                "{name}: loss stretched logical rounds at p={p}"
            );
            assert!(
                lossy.metrics.retransmits > 0,
                "{name}: no loss exercised at p={p}"
            );
        }
    }
}

/// Churned+adversarial smoke: a crash/recovery window plus a
/// duplicating/corrupting adversary under the transport leaves every
/// portfolio protocol's set unchanged and its books balanced.
#[test]
fn portfolio_protocols_survive_churn_and_adversary() {
    let g = generators::gnp(60, 0.12, 44);
    let inst = Instance::uniform_clamped(&g, 2);
    let chaos = || {
        Stack::new()
            .lossy(0.05)
            .churned(
                ChurnPlan::none()
                    .crash(NodeId::new(3), 2)
                    .recover(NodeId::new(3), 8),
            )
            .adversarial(AdversaryPlan::new(0xC0).duplicate(0.05).corrupt(0.05))
            .traced()
    };
    for name in PORTFOLIO {
        let (lossless, _) = run_portfolio(name, &inst, Stack::new());
        let (run, log) = run_portfolio(name, &inst, chaos());
        let log = log.expect("traced stack records a log");
        check_log(&log, &run.metrics, name);
        check_conservation(&run.metrics, name);
        assert_eq!(run.set, lossless.set, "{name}: chaos changed the set");
        assert!(
            is_k_dominating_instance(&inst, &run.set, Semantics::CoverSelf),
            "{name}: invalid set under chaos"
        );
    }
}

// ---------------------------------------------------------------------
// Asynchrony: the transport with every frame delayed.
// ---------------------------------------------------------------------

/// An asynchronous network with delay bound `max_delay`: every frame is
/// delayed by `1..=max_delay` rounds, the transport's timeout covers a
/// full delayed round trip, and i.i.d. loss `p` comes on top.
fn asynchronous(max_delay: u64, p: f64) -> Stack {
    let rto = 2 * (max_delay + 1) + 1;
    let cfg = TransportConfig {
        rto,
        backoff_cap: rto.max(16),
        max_retransmits: 20,
    };
    Stack::new()
        .transport(cfg)
        .adversarial(AdversaryPlan::new(0xA5).jitter(1.0, max_delay))
        .lossy(p)
}

/// The results of Algorithms 1, 2 and 3 and of the repair.
type Results = (FractionalSolution, RoundingOutcome, UdgRun, RepairOutcome);

/// Algorithms 1, 2 and 3 and the repair on one stack: their results
/// and, separately, their metrics.
fn run_all(stack: impl Fn() -> Stack) -> (Results, Vec<Metrics>) {
    let g = generators::gnp(60, 0.1, 17);
    let inst = Instance::uniform_clamped(&g, 2);
    let (alg1, _) = run_fractional_stack(&inst, &FractionalParams::new(2), stack()).expect("alg 1");
    let x = &alg1.solution.x;
    let params = RoundingParams::default();
    let (alg2, _) =
        run_rounding_stack(&inst, x, alg1.solution.delta, 4, &params, stack()).expect("alg 2");
    let udg = generators::random_udg(100, 8.0, 1.0, 12);
    let (alg3, _) = run_udg_stack(&udg, &UdgAlgorithm::new(2).seed(7), stack()).expect("alg 3");
    let mut alive = vec![true; udg.node_count()];
    for v in alg3.run.set.ids().take(8) {
        alive[v.index()] = false;
    }
    let (repair, _) =
        run_repair_stack(udg.graph(), &alg3.run.set, &alive, 2, stack()).expect("repair");
    let metrics = vec![alg1.metrics, alg2.metrics, alg3.metrics, repair.metrics];
    let results = (alg1.solution, alg2.outcome, alg3.run, repair.outcome);
    (results, metrics)
}

/// Every algorithm computes its synchronous result on an asynchronous
/// network, with delay bounds 1, 4 and 8, with and without 10% loss,
/// identically at 1 and 2 worker threads.
#[test]
fn asynchronous_runs_equal_synchronous_runs() {
    let (sync, _) = run_all(Stack::new);
    assert!(
        !sync.3.added.is_empty(),
        "the repair fixture repairs nothing"
    );
    for max_delay in [1u64, 4, 8] {
        for p in [0.0, 0.1] {
            let (ref_results, ref_metrics) =
                with_threads(1, || run_all(|| asynchronous(max_delay, p)));
            assert_eq!(
                ref_results, sync,
                "asynchrony changed a result at max_delay={max_delay} p={p}"
            );
            // The timeout covers every delayed round trip, so only loss
            // causes retransmissions.
            assert!(
                ref_metrics.iter().all(|m| (m.retransmits > 0) == (p > 0.0)),
                "retransmits do not track loss at max_delay={max_delay} p={p}"
            );
            let (results, metrics) = with_threads(2, || run_all(|| asynchronous(max_delay, p)));
            assert_eq!(
                results, ref_results,
                "results diverged at 2 threads, max_delay={max_delay} p={p}"
            );
            assert_eq!(
                metrics, ref_metrics,
                "max_delay={max_delay} p={p}: metrics diverged at 2 threads"
            );
        }
    }
}
