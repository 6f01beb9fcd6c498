//! Running the synchronous algorithms on an asynchronous network.
//!
//! The paper's model note (Section 3): *"at the cost of higher message
//! complexity, every synchronous message-passing algorithm can be turned
//! into an asynchronous algorithm with the same time complexity"*
//! (Awerbuch's synchronizers). This example demonstrates the reduction
//! concretely: Algorithm 1 runs on a network where every message suffers a
//! random delay of 1 to 9 rounds, coordinated by the reliable transport
//! (the α-synchronizer: a node advances to round `r` only once every
//! neighbor's round-`r − 1` frame has arrived) — and produces
//! **bit-identical** output to the synchronous execution and to the
//! in-memory engine, also when 10% of all frames are lost on top.
//!
//! Run with: `cargo run --release --example asynchronous`

use ftclust::core::fractional::protocol::run_fractional_stack;
use ftclust::core::fractional::{solve_fractional, FractionalParams};
use ftclust::core::prelude::*;
use ftclust::graphs::generators;
use ftclust::netsim::exec::Stack;
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::AdversaryPlan;

fn main() -> Result<(), KmdsError> {
    let g = generators::gnp(200, 0.05, 42);
    let inst = Instance::uniform_clamped(&g, 2);
    let params = FractionalParams::new(3);
    println!("network: {g}, k = 2, t = 3");
    println!();

    // 1. The in-memory engine (no messages at all).
    let engine = solve_fractional(&inst, &params)?;
    println!("engine:        Σx = {:.4}", engine.value);

    // 2. The synchronous protocol (the paper's model).
    let (sync, _) = run_fractional_stack(&inst, &params, Stack::new())?;
    println!(
        "synchronous:   Σx = {:.4}   ({} rounds, {} messages)",
        sync.solution.value, sync.metrics.rounds, sync.metrics.messages
    );

    // 3. The asynchronous executions: every frame is delayed by 1–9
    //    rounds. A frame's ack returns at most 2·(9 + 1) rounds after
    //    it was sent, so that is the retransmission timeout: on a
    //    lossless network nothing is resent.
    let max_delay = 9;
    let rto = 2 * (max_delay + 1) + 1;
    let cfg = TransportConfig {
        rto,
        backoff_cap: rto.max(16),
        max_retransmits: 20,
    };
    let asynchronous = |loss: f64| {
        let stack = Stack::new()
            .transport(cfg)
            .adversarial(AdversaryPlan::new(42).jitter(1.0, max_delay))
            .lossy(loss);
        run_fractional_stack(&inst, &params, stack).map(|(run, _)| run)
    };
    let runs = [(0.0, asynchronous(0.0)?), (0.1, asynchronous(0.1)?)];
    for (loss, run) in &runs {
        println!(
            "asynchronous:  Σx = {:.4}   (delays up to {max_delay} rounds, {:.0}% loss: \
             {} rounds, {} retransmits)",
            run.solution.value,
            loss * 100.0,
            run.metrics.rounds,
            run.metrics.retransmits
        );
    }

    assert_eq!(engine, sync.solution, "sync protocol must equal the engine");
    for (loss, run) in &runs {
        assert_eq!(
            engine, run.solution,
            "async execution at {loss} loss must equal the engine"
        );
    }
    assert_eq!(
        runs[0].1.metrics.retransmits, 0,
        "timeout below the delay bound"
    );
    println!();
    println!("all executions are bit-identical — the synchronizer reduction");
    println!("of Section 3, demonstrated end-to-end.");
    Ok(())
}
