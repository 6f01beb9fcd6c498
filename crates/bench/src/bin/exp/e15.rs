//! **E15 — lossy links**: protocol execution over unreliable channels via
//! the composable executor stack of `ftclust_netsim::exec`.
//!
//! Sweeps the per-message drop probability over {0, 0.01, 0.05, 0.2} for
//! three protocol stacks — Algorithms 1+2 (fractional + rounding),
//! Algorithm 3 (UDG clustering), and the coverage repair — and for each
//! setting asserts that the computed sets are **identical** to the direct
//! (transport-free) run: the ARQ layer masks loss completely, it never
//! changes results. What loss *does* cost is reported as physical-round
//! and bit inflation, with the retransmit / pure-ack / suppressed-
//! duplicate counters metered as first-class CONGEST traffic.
//!
//! The `p = 0` transport row doubles as the zero-overhead check: with
//! lossless links the transport retransmits nothing and suppresses
//! nothing. A final section composes the transport *and* trace layers in
//! one run — the combination the pre-executor driver matrix never
//! offered — and reconciles its per-phase rollups against the metrics
//! conservation law.
//!
//! `--smoke` is the CI-sized run; `--trace <p>` writes Algorithm 1's
//! event log to `p` (JSONL) and beside it as a Chrome trace.

use crate::write_output;
use crate::{check_conservation, Cost};
use ftclust_bench::families::udg_workload;
use ftclust_bench::table::Table;
use ftclust_core::fractional::protocol::run_fractional_stack;
use ftclust_core::fractional::FractionalParams;
use ftclust_core::repair::run_repair_stack;
use ftclust_core::rounding::protocol::run_rounding_stack;
use ftclust_core::rounding::RoundingParams;
use ftclust_core::udg::protocol::run_udg_stack;
use ftclust_core::udg::UdgAlgorithm;
use ftclust_core::Instance;
use ftclust_netsim::exec::Stack;
use ftclust_netsim::transport::TransportConfig;
use ftclust_netsim::EventLog;

const DROPS: [f64; 4] = [0.0, 0.01, 0.05, 0.2];

/// Asserts the lossless transport run added zero ARQ overhead.
fn check_zero_overhead(c: &Cost, what: &str) {
    assert_eq!(c.retx, 0, "{what}: retransmissions on lossless links");
    assert_eq!(c.dups, 0, "{what}: duplicates on lossless links");
}

fn row(label: &str, c: &Cost, base: &Cost, identical: bool) -> Vec<String> {
    vec![
        label.to_string(),
        c.rounds.to_string(),
        c.msgs.to_string(),
        c.bits.to_string(),
        c.retx.to_string(),
        c.acks.to_string(),
        c.dups.to_string(),
        format!("{:.2}", c.rounds as f64 / base.rounds as f64),
        format!("{:.2}", c.bits as f64 / base.bits as f64),
        if identical { "yes" } else { "NO" }.to_string(),
    ]
}

const HEADERS: [&str; 10] = [
    "link",
    "rounds",
    "msgs",
    "bits",
    "retx",
    "acks",
    "dup",
    "rounds x",
    "bits x",
    "identical",
];

/// Appends one stack's per-phase rollups to the breakdown table.
fn rollup_rows(table: &mut Table, stack: &str, log: &EventLog) {
    for r in log.rollups() {
        table.push_row(vec![
            stack.to_string(),
            r.name.to_string(),
            r.rounds.to_string(),
            r.messages.to_string(),
            r.bits.to_string(),
            r.max_message_bits.to_string(),
        ]);
    }
}

pub(crate) fn run(opts: &crate::Opts) -> std::io::Result<()> {
    let smoke = opts.smoke;
    let (n, kills): (u32, usize) = if smoke { (150, 18) } else { (500, 40) };
    println!("E15: protocols over lossy links, n={n}, drop p in {DROPS:?}");
    println!("each stack: direct (no transport) baseline, then the reliable transport");
    println!("at each drop rate; computed sets must be identical in every cell,");
    println!("loss shows up only as metered retransmit/ack/duplicate traffic.");
    println!();

    let udg = udg_workload(n, 12.0, 77);
    let g = udg.graph();
    let lossy = |p: f64| Stack::new().lossy(p).transport(TransportConfig::default());
    let mut inflation: Vec<(&str, f64, f64)> = Vec::new();

    // --- Algorithms 1 + 2: fractional LP then randomized rounding. ------
    let inst = Instance::uniform_clamped(g, 2);
    let fparams = FractionalParams::new(2);
    let rparams = RoundingParams::default();
    let (frac, frac_log) =
        run_fractional_stack(&inst, &fparams, Stack::new().traced()).expect("fractional protocol");
    let frac_log = frac_log.expect("traced stack records a log");
    let (rounded, round_log) = run_rounding_stack(
        &inst,
        &frac.solution.x,
        frac.solution.delta,
        5,
        &rparams,
        Stack::new().traced(),
    )
    .expect("rounding protocol");
    let round_log = round_log.expect("traced stack records a log");
    let base12 = Cost::default().add(&frac.metrics).add(&rounded.metrics);
    println!(
        "Algorithms 1+2 (t=2, k=2): |S| = {}, kappa = {:.3}",
        rounded.outcome.set.len(),
        frac.solution.kappa
    );
    let mut t12 = Table::new(&HEADERS);
    t12.push_row(row("direct", &base12, &base12, true));
    for p in DROPS {
        let (f, _) = run_fractional_stack(&inst, &fparams, lossy(p)).expect("lossy fractional");
        let (r, _) = run_rounding_stack(
            &inst,
            &f.solution.x,
            f.solution.delta,
            5,
            &rparams,
            lossy(p),
        )
        .expect("lossy rounding");
        check_conservation(&f.metrics, "Alg 1");
        check_conservation(&r.metrics, "Alg 2");
        let c = Cost::default().add(&f.metrics).add(&r.metrics);
        let identical = f.solution == frac.solution && r.outcome == rounded.outcome;
        assert!(identical, "Algorithms 1+2 diverged at p = {p}");
        if p == 0.0 {
            check_zero_overhead(&c, "Algorithms 1+2");
        } else {
            inflation.push((
                "Alg 1+2",
                c.rounds as f64 / base12.rounds as f64,
                c.bits as f64 / base12.bits as f64,
            ));
        }
        t12.push_row(row(&format!("p={p:.2}"), &c, &base12, identical));
    }
    t12.print();
    println!();

    // --- Algorithm 3: UDG clustering. -----------------------------------
    let config = UdgAlgorithm::new(2).seed(4);
    let (direct3, udg_log) =
        run_udg_stack(&udg, &config, Stack::new().traced()).expect("udg protocol");
    let udg_log = udg_log.expect("traced stack records a log");
    let base3 = Cost::default().add(&direct3.metrics);
    println!(
        "Algorithm 3 (k=2): |S| = {}, {} leaders, {} part-II iterations",
        direct3.run.set.len(),
        direct3.run.leaders.len(),
        direct3.run.part2_iterations
    );
    let mut t3 = Table::new(&HEADERS);
    t3.push_row(row("direct", &base3, &base3, true));
    for p in DROPS {
        let (r, _) = run_udg_stack(&udg, &config, lossy(p)).expect("lossy udg");
        check_conservation(&r.metrics, "Alg 3");
        let c = Cost::default().add(&r.metrics);
        let identical = r.run == direct3.run;
        assert!(identical, "Algorithm 3 diverged at p = {p}");
        if p == 0.0 {
            check_zero_overhead(&c, "Algorithm 3");
        } else {
            inflation.push((
                "Alg 3",
                c.rounds as f64 / base3.rounds as f64,
                c.bits as f64 / base3.bits as f64,
            ));
        }
        t3.push_row(row(&format!("p={p:.2}"), &c, &base3, identical));
    }
    t3.print();
    println!();

    // --- Coverage repair after member failures. --------------------------
    let mut alive = vec![true; g.node_count()];
    for v in direct3.run.set.ids().take(kills) {
        alive[v.index()] = false;
    }
    let (directr, repair_log) =
        run_repair_stack(g, &direct3.run.set, &alive, 2, Stack::new().traced())
            .expect("repair protocol");
    let repair_log = repair_log.expect("traced stack records a log");
    let baser = Cost::default().add(&directr.metrics);
    println!(
        "repair (k=2, {kills} members killed): {} added, {} iterations, peak deficit {}",
        directr.outcome.added.len(),
        directr.outcome.iterations,
        directr.outcome.peak_deficit
    );
    let mut tr = Table::new(&HEADERS);
    tr.push_row(row("direct", &baser, &baser, true));
    for p in DROPS {
        let (r, _) =
            run_repair_stack(g, &direct3.run.set, &alive, 2, lossy(p)).expect("lossy repair");
        check_conservation(&r.metrics, "repair");
        let c = Cost::default().add(&r.metrics);
        let identical = r.outcome == directr.outcome;
        assert!(identical, "repair diverged at p = {p}");
        if p == 0.0 {
            check_zero_overhead(&c, "repair");
        } else {
            inflation.push((
                "repair",
                c.rounds as f64 / baser.rounds as f64,
                c.bits as f64 / baser.bits as f64,
            ));
        }
        tr.push_row(row(&format!("p={p:.2}"), &c, &baser, identical));
    }
    tr.print();
    println!();

    // --- Per-phase breakdown from the structured traces. -----------------
    println!("per-phase breakdown (direct runs, from the structured trace; rollups");
    println!("reconcile exactly with the Metrics conservation law):");
    let mut tp = Table::new(&["stack", "phase", "rounds", "msgs", "bits", "max bits"]);
    for (stack, log, metrics) in [
        ("Alg 1", &frac_log, &frac.metrics),
        ("Alg 2", &round_log, &rounded.metrics),
        ("Alg 3", &udg_log, &direct3.metrics),
        ("repair", &repair_log, &directr.metrics),
    ] {
        if let Err(e) = log.reconcile(metrics) {
            panic!("{stack}: trace rollups diverged from Metrics: {e}");
        }
        rollup_rows(&mut tp, stack, log);
    }
    tp.print();
    println!();

    // --- Layer composition: transport + tracing in one run. --------------
    println!("lossy+traced composition (p=0.20): the transport and trace layers");
    println!("compose in one executor run; the per-phase rollups — now counting");
    println!("retransmissions and acks inside their phases — still reconcile");
    println!("exactly against the run's Metrics:");
    let mut tc = Table::new(&["stack", "phase", "rounds", "msgs", "bits", "max bits"]);
    let (lt_frac, lt_frac_log) =
        run_fractional_stack(&inst, &fparams, lossy(0.2).traced()).expect("lossy+traced Alg 1");
    let lt_frac_log = lt_frac_log.expect("traced stack records a log");
    assert_eq!(
        lt_frac.solution, frac.solution,
        "lossy+traced Algorithm 1 diverged from the direct run"
    );
    check_conservation(&lt_frac.metrics, "Alg 1 lossy+traced");
    if let Err(e) = lt_frac_log.reconcile(&lt_frac.metrics) {
        panic!("Alg 1 lossy+traced: trace rollups diverged from Metrics: {e}");
    }
    rollup_rows(&mut tc, "Alg 1 p=0.20", &lt_frac_log);
    let (lt_rep, lt_rep_log) =
        run_repair_stack(g, &direct3.run.set, &alive, 2, lossy(0.2).traced())
            .expect("lossy+traced repair");
    let lt_rep_log = lt_rep_log.expect("traced stack records a log");
    assert_eq!(
        lt_rep.outcome, directr.outcome,
        "lossy+traced repair diverged from the direct run"
    );
    check_conservation(&lt_rep.metrics, "repair lossy+traced");
    if let Err(e) = lt_rep_log.reconcile(&lt_rep.metrics) {
        panic!("repair lossy+traced: trace rollups diverged from Metrics: {e}");
    }
    rollup_rows(&mut tc, "repair p=0.20", &lt_rep_log);
    tc.print();
    println!();

    if let Some(path) = &opts.trace {
        write_output(path, "Alg-1 trace", &frac_log.to_jsonl())?;
        let chrome = path.with_extension("chrome.json");
        write_output(&chrome, "Alg-1 Chrome trace", &frac_log.to_chrome_trace())?;
    }

    let worst_rounds = inflation.iter().map(|&(_, r, _)| r).fold(0.0, f64::max);
    let worst_bits = inflation.iter().map(|&(_, _, b)| b).fold(0.0, f64::max);
    println!("all cells identical to the direct runs; worst-case inflation at p<=0.2:");
    println!("rounds x{worst_rounds:.2}, bits x{worst_bits:.2}");
    println!();
    println!("expected shape: the 'identical' column is all-yes (the transport masks");
    println!("loss, never alters results), the p=0.00 transport row shows zero");
    println!("retransmissions and duplicates (lossless path pays nothing beyond acks),");
    println!("and inflation grows smoothly with p: each dropped frame costs one");
    println!("backoff-spaced retransmission, so rounds stretch while per-frame bit");
    println!("budgets stay O(log n).");
    Ok(())
}
