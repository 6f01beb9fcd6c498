//! Integration tests for the reliable transport: every protocol stack —
//! Algorithms 1+2, Algorithm 3, and the coverage repair — computes sets
//! identical to its lossless run at drop probabilities up to 0.2, and the
//! whole lossy execution (results *and* metered metrics) is bit-for-bit
//! identical at every `FTCLUST_THREADS` setting.
//!
//! All tests drive the composable executor stack directly
//! (`run_*_stack` with `.churned(..).transport(..)`).

use ftclust::core::fractional::protocol::{run_fractional_protocol, run_fractional_stack};
use ftclust::core::fractional::FractionalParams;
use ftclust::core::repair::{run_repair_protocol, run_repair_stack, RepairConfig};
use ftclust::core::rounding::protocol::{run_rounding_protocol, run_rounding_stack};
use ftclust::core::rounding::RoundingParams;
use ftclust::core::udg::protocol::{run_udg_protocol, run_udg_stack};
use ftclust::core::udg::UdgAlgorithm;
use ftclust::core::Instance;
use ftclust::graphs::generators;
use ftclust::netsim::exec::Stack;
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::{ChurnPlan, Metrics};
use ftclust_par::with_threads;

const DROPS: [f64; 3] = [0.01, 0.05, 0.2];

fn lossy(p: f64) -> ChurnPlan {
    ChurnPlan::none().drop_probability(p)
}

/// Transport over i.i.d. loss: the canonical lossy stack.
fn lossy_stack(p: f64) -> Stack {
    Stack::new()
        .churned(lossy(p))
        .transport(TransportConfig::default())
}

/// The fields of [`Metrics`] that must agree bit-for-bit across thread
/// counts (all of them).
fn fingerprint(m: &Metrics) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        m.rounds,
        m.messages,
        m.total_bits,
        m.delivered_messages,
        m.dropped_messages,
        m.dead_on_arrival,
        m.retransmits,
        m.acks,
        m.duplicates_suppressed,
    )
}

#[test]
fn algorithms_1_and_2_survive_loss_unchanged() {
    let g = generators::gnp(60, 0.12, 5);
    let inst = Instance::uniform_clamped(&g, 2);
    let fparams = FractionalParams::new(2);
    let rparams = RoundingParams::default();
    let frac = run_fractional_protocol(&inst, &fparams).unwrap();
    let rounded =
        run_rounding_protocol(&inst, &frac.solution.x, frac.solution.delta, 3, &rparams).unwrap();
    for p in DROPS {
        let (f, _) = run_fractional_stack(&inst, &fparams, lossy_stack(p)).unwrap();
        assert_eq!(f.solution, frac.solution, "Algorithm 1 diverged at p = {p}");
        let (r, _) = run_rounding_stack(
            &inst,
            &f.solution.x,
            f.solution.delta,
            3,
            &rparams,
            lossy_stack(p),
        )
        .unwrap();
        assert_eq!(
            r.outcome, rounded.outcome,
            "Algorithm 2 diverged at p = {p}"
        );
        assert!(
            f.metrics.retransmits > 0,
            "no loss was exercised at p = {p}"
        );
    }
}

#[test]
fn algorithm_3_survives_loss_unchanged() {
    let udg = generators::random_udg(180, 9.0, 1.0, 31);
    let config = UdgAlgorithm::new(2).seed(7);
    let direct = run_udg_protocol(&udg, &config).unwrap();
    for p in DROPS {
        let (r, _) = run_udg_stack(&udg, &config, lossy_stack(p)).unwrap();
        assert_eq!(r.run, direct.run, "Algorithm 3 diverged at p = {p}");
    }
}

#[test]
fn repair_survives_loss_unchanged() {
    let udg = generators::random_udg(180, 9.0, 1.0, 31);
    let base = UdgAlgorithm::new(2).seed(7).run(&udg).unwrap();
    let g = udg.graph();
    let mut alive = vec![true; g.node_count()];
    for v in base.set.ids().take(10) {
        alive[v.index()] = false;
    }
    let cfg = RepairConfig::new(3);
    let direct = run_repair_protocol(g, &base.set, &alive, 2, &cfg).unwrap();
    assert!(!direct.added.is_empty(), "fixture repairs nothing");
    for p in DROPS {
        let (r, _) = run_repair_stack(g, &base.set, &alive, 2, &cfg, lossy_stack(p)).unwrap();
        assert_eq!(r.set, direct.set, "repair set diverged at p = {p}");
        assert_eq!(
            r.added, direct.added,
            "repair additions diverged at p = {p}"
        );
        assert_eq!(r.iterations, direct.iterations);
    }
}

#[test]
fn lossy_executions_are_thread_invariant() {
    let udg = generators::random_udg(150, 9.0, 1.0, 12);
    let g = udg.graph();
    let inst = Instance::uniform_clamped(g, 2);
    let fparams = FractionalParams::new(2);
    let config = UdgAlgorithm::new(2).seed(5);
    let run_all = || {
        let (f, _) = run_fractional_stack(&inst, &fparams, lossy_stack(0.1)).unwrap();
        let (u, _) = run_udg_stack(&udg, &config, lossy_stack(0.1)).unwrap();
        let mut alive = vec![true; g.node_count()];
        for v in u.run.set.ids().take(8) {
            alive[v.index()] = false;
        }
        let (r, _) = run_repair_stack(
            g,
            &u.run.set,
            &alive,
            2,
            &RepairConfig::new(1),
            lossy_stack(0.1),
        )
        .unwrap();
        (
            f.solution,
            fingerprint(&f.metrics),
            u.run,
            fingerprint(&u.metrics),
            r.set,
            r.added,
            fingerprint(&r.metrics),
        )
    };
    let baseline = with_threads(1, run_all);
    for threads in [2usize, 7] {
        let got = with_threads(threads, run_all);
        assert_eq!(
            got, baseline,
            "lossy execution diverged at {threads} threads"
        );
    }
}
