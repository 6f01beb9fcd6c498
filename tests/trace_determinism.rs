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

use ftclust::core::fractional::protocol::{run_fractional_protocol, run_fractional_stack};
use ftclust::core::fractional::FractionalParams;
use ftclust::core::repair::{run_repair_stack, RepairConfig};
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
        let cfg = RepairConfig::new(5);
        let (ref_run, ref_log) = with_threads(1, || {
            let (run, log) = run_repair_stack(g, &base.set, &alive, 2, &cfg, Stack::new().traced())
                .expect("repair");
            let log = log.expect("traced stack must produce a log");
            check_log(&log, &run.metrics, "repair");
            (run, log)
        });
        for &t in THREADS {
            let (run, log) = with_threads(t, || {
                let (run, log) =
                    run_repair_stack(g, &base.set, &alive, 2, &cfg, Stack::new().traced())
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
    let untraced = run_fractional_protocol(&inst, &params).expect("untraced");
    let (traced, log) =
        run_fractional_stack(&inst, &params, Stack::new().traced()).expect("traced");
    assert!(log.is_some());
    assert_eq!(untraced.solution, traced.solution);
    assert_eq!(untraced.metrics, traced.metrics);
}
