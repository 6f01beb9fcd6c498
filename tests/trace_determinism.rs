//! Cross-thread determinism of the structured trace layer.
//!
//! The observability contract extends `ftclust-par`'s guarantee: not
//! only must every protocol's *outputs* be bit-for-bit identical at any
//! worker count, the recorded [`EventLog`] — every event, in order,
//! with its logical timestamp — must be too. These tests run the three
//! protocol stacks (Algorithm 1 + rounding, Algorithm 3, repair) traced
//! at 1, 2, and 7 threads across multiple seeds and compare both the
//! in-memory logs and the rendered JSONL byte-for-byte, then reconcile
//! each log's rollups against the run's `Metrics` conservation law.
//!
//! All tests drive the composable executor stack directly
//! (`run_*_stack` with `.traced()`). The layer-composition combinations the old drivers never offered
//! (lossy+traced, churned+lossy) are covered in `tests/exec_combos.rs`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration-test helpers outside `#[test]` abort the test on failure"
)]

use ftclust::core::fractional::protocol::run_fractional_stack;
use ftclust::core::fractional::FractionalParams;
use ftclust::core::portfolio::run_cgreedy_stack;
use ftclust::core::repair::run_repair_stack;
use ftclust::core::rounding::protocol::run_rounding_stack;
use ftclust::core::rounding::RoundingParams;
use ftclust::core::udg::protocol::run_udg_stack;
use ftclust::core::udg::UdgAlgorithm;
use ftclust::core::Instance;
use ftclust::graphs::generators;
use ftclust::netsim::exec::Stack;
use ftclust::netsim::trace::{REGISTERED_SPANS, UNSPANNED};
use ftclust::netsim::EventLog;
use ftclust_par::with_threads;

/// Thread counts compared against the single-thread reference.
const THREADS: &[usize] = &[2, 7];

/// Master seeds for graph generation.
const SEEDS: &[u64] = &[5, 29];

/// Asserts `log` uses only registered span names and reconciles.
fn check_log(log: &EventLog, metrics: &ftclust::netsim::Metrics, what: &str) {
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

/// Algorithm 1 + Algorithm 2: traced LP solve then traced rounding,
/// logs byte-identical across worker counts.
#[test]
fn fractional_and_rounding_traces_are_thread_invariant() {
    for &seed in SEEDS {
        let g = generators::gnp(40, 0.15, seed);
        let inst = Instance::uniform_clamped(&g, 2);
        let params = FractionalParams::new(2);
        let traced = || Stack::new().traced();
        let (ref_run, ref_lp_log, ref_round_log) = with_threads(1, || {
            let (run, lp_log) = run_fractional_stack(&inst, &params, traced()).expect("lp");
            let lp_log = lp_log.expect("traced stack must produce a log");
            let (round, round_log) = run_rounding_stack(
                &inst,
                &run.solution.x,
                run.solution.delta,
                seed,
                &RoundingParams::default(),
                traced(),
            )
            .expect("rounding");
            let round_log = round_log.expect("traced stack must produce a log");
            check_log(&lp_log, &run.metrics, "lp");
            check_log(&round_log, &round.metrics, "rounding");
            (run, lp_log, round_log)
        });
        for &t in THREADS {
            let (run, lp_log, round_log) = with_threads(t, || {
                let (run, lp_log) = run_fractional_stack(&inst, &params, traced()).expect("lp");
                let (_round, round_log) = run_rounding_stack(
                    &inst,
                    &run.solution.x,
                    run.solution.delta,
                    seed,
                    &RoundingParams::default(),
                    traced(),
                )
                .expect("rounding");
                (run, lp_log.unwrap(), round_log.unwrap())
            });
            assert_eq!(ref_run.solution, run.solution, "seed={seed} t={t}");
            assert_eq!(ref_lp_log, lp_log, "lp log diverged seed={seed} t={t}");
            assert_eq!(
                ref_lp_log.to_jsonl(),
                lp_log.to_jsonl(),
                "lp jsonl diverged seed={seed} t={t}"
            );
            assert_eq!(
                ref_round_log, round_log,
                "rounding log diverged seed={seed} t={t}"
            );
        }
    }
}

/// Algorithm 3 on unit-disk graphs: trace equality at odd worker
/// counts, where shard boundaries never align with grid structure.
#[test]
fn udg_traces_are_thread_invariant() {
    for &seed in SEEDS {
        let udg = generators::random_udg(120, 8.0, 1.0, seed);
        let config = UdgAlgorithm::new(2).seed(seed);
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) = run_udg_stack(&udg, &config, Stack::new().traced()).expect("udg");
            let log = log.expect("traced stack must produce a log");
            check_log(&log, &run.metrics, "udg");
            (run, log)
        });
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) = run_udg_stack(&udg, &config, Stack::new().traced()).expect("udg");
                (run, log.unwrap())
            });
            assert_eq!(ref_run.run, run.run, "seed={seed} t={t}");
            assert_eq!(ref_run.metrics, run.metrics, "seed={seed} t={t}");
            assert_eq!(ref_log, log, "udg log diverged seed={seed} t={t}");
            assert_eq!(
                ref_log.to_jsonl(),
                log.to_jsonl(),
                "udg jsonl diverged seed={seed} t={t}"
            );
        }
    }
}

/// Repair after member failures: the traced driver's event stream and
/// healed set must not depend on the worker count.
#[test]
fn repair_traces_are_thread_invariant() {
    for &seed in SEEDS {
        let udg = generators::random_udg(200, 9.0, 1.0, seed);
        let g = udg.graph();
        let base = UdgAlgorithm::new(2).seed(seed).run(&udg).expect("base");
        // Kill a deterministic spread of members to open deficits.
        let mut alive = vec![true; g.node_count()];
        for (i, v) in base.set.ids().enumerate() {
            if i % 3 == 0 {
                alive[v.index()] = false;
            }
        }
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) =
                run_repair_stack(g, &base.set, &alive, 2, Stack::new().traced()).expect("repair");
            let log = log.expect("traced stack must produce a log");
            check_log(&log, &run.metrics, "repair");
            (run, log)
        });
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) = run_repair_stack(g, &base.set, &alive, 2, Stack::new().traced())
                    .expect("repair");
                (run, log.unwrap())
            });
            assert_eq!(ref_run, run, "seed={seed} t={t}");
            assert_eq!(ref_log, log, "repair log diverged seed={seed} t={t}");
            assert_eq!(
                ref_log.to_jsonl(),
                log.to_jsonl(),
                "repair jsonl diverged seed={seed} t={t}"
            );
        }
    }
}

/// The traced fractional stack returns the same run as the untraced
/// one — tracing is observation, never perturbation.
#[test]
fn traced_runs_equal_untraced_runs() {
    let g = generators::gnp(40, 0.15, 5);
    let inst = Instance::uniform_clamped(&g, 2);
    let params = FractionalParams::new(2);
    let (untraced, _) = run_fractional_stack(&inst, &params, Stack::new()).expect("untraced");
    let (traced, log) =
        run_fractional_stack(&inst, &params, Stack::new().traced()).expect("traced");
    assert!(log.is_some());
    assert_eq!(untraced.solution, traced.solution);
    assert_eq!(untraced.metrics, traced.metrics);
}

/// FNV-1a over a byte stream, for pinning long outputs by digest.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Pins the synchronous traced logs byte for byte: the JSONL digests of
/// plain `.traced()` runs of Algorithms 1, 2 and 3, the repair, and the
/// centralized greedy (whose plan, like Algorithm 1's, ends in a
/// quiescence tail after fixed-length spans). The thread-count tests
/// above only compare runs with each other; these values were recorded
/// once and must not move when the executor's span walker changes.
#[test]
fn synchronous_traced_logs_are_pinned() {
    let digest = |log: Option<EventLog>| fnv1a(log.expect("traced").to_jsonl().into_bytes());
    let traced = || Stack::new().traced();

    let g = generators::gnp(40, 0.15, 5);
    let inst = Instance::uniform_clamped(&g, 2);
    let (lp, lp_log) = run_fractional_stack(&inst, &FractionalParams::new(2), traced()).unwrap();
    let (_, round_log) = run_rounding_stack(
        &inst,
        &lp.solution.x,
        lp.solution.delta,
        5,
        &RoundingParams::default(),
        traced(),
    )
    .unwrap();
    let (_, greedy_log) = run_cgreedy_stack(&inst, traced()).unwrap();

    let udg = generators::random_udg(120, 8.0, 1.0, 29);
    let config = UdgAlgorithm::new(2).seed(29);
    let (base, udg_log) = run_udg_stack(&udg, &config, traced()).unwrap();
    let mut alive = vec![true; udg.node_count()];
    for v in base.run.set.ids().step_by(3) {
        alive[v.index()] = false;
    }
    let (_, repair_log) =
        run_repair_stack(udg.graph(), &base.run.set, &alive, 2, traced()).unwrap();

    assert_eq!(
        [
            digest(lp_log),
            digest(round_log),
            digest(udg_log),
            digest(repair_log),
            digest(greedy_log),
        ],
        [
            0xd6c8_e7a9_00a0_36fb,
            0xfcf6_7d29_d727_b375,
            0x1025_c07c_0784_77d0,
            0x2466_26a1_d09f_9a9e,
            0x2103_45d3_0f78_b11a,
        ],
        "a synchronous traced log moved"
    );
}
