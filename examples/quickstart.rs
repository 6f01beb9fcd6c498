//! Quickstart: fault-tolerant clustering in 60 lines.
//!
//! Builds a random sensor deployment, clusters it with both of the paper's
//! algorithms, validates the results and prints what happened.
//!
//! Run with: `cargo run --release --example quickstart`

use ftclust::core::prelude::*;
use ftclust::core::udg::protocol::run_udg_stack;
use ftclust::core::udg::UdgAlgorithm;
use ftclust::graphs::generators;
use ftclust::netsim::exec::Stack;

fn main() -> Result<(), KmdsError> {
    // 1. A deployment: 800 sensors, communication radius 1, average ~10
    //    neighbors each.
    let udg = generators::random_udg(800, 10.0, 1.0, 42);
    let g = udg.graph();
    println!("deployment: {g}");

    // 2. Fault tolerance level: every sensor should hear k = 3 cluster
    //    heads, so the backbone survives any 2 head failures.
    let k = 3;

    // 3. The O(log log n) UDG algorithm (Algorithm 3 of the paper).
    let run = UdgAlgorithm::new(k).seed(7).run(&udg)?;
    assert!(is_k_dominating(g, &run.set, k, Semantics::Strict));
    println!(
        "UDG algorithm: {} leaders after part I, {} cluster heads after part II \
         ({} part-I rounds, {} part-II iterations)",
        run.leaders.len(),
        run.set.len(),
        run.part1_rounds,
        run.part2_iterations,
    );

    // The same algorithm as a message-passing protocol, with communication
    // metering:
    let (metered, _) = run_udg_stack(&udg, &UdgAlgorithm::new(k).seed(7), Stack::new())?;
    assert_eq!(metered.run.set, run.set); // identical, seed-for-seed
    println!(
        "  as a protocol: {} rounds, {} messages, max message {} bits",
        metered.metrics.rounds, metered.metrics.messages, metered.metrics.max_message_bits,
    );

    // 4. The general-graph pipeline (Algorithms 1 + 2): works on any
    //    topology, no geometry needed.
    let inst = Instance::uniform_clamped(g, k);
    let pipeline = GeneralPipeline::new(4).seed(11).run(&inst)?;
    assert!(is_k_dominating_instance(
        &inst,
        &pipeline.set,
        Semantics::CoverSelf
    ));
    println!(
        "LP pipeline (t=4): fractional value {:.1}, rounded to {} heads \
         (certified ≤ {:.2}× the LP optimum)",
        pipeline.fractional.value,
        pipeline.set.len(),
        pipeline.certified_ratio().unwrap_or(f64::NAN),
    );

    // 5. Yardsticks.
    let greedy = greedy_kmds(&inst, Semantics::CoverSelf);
    let local = local_heuristic(&inst);
    println!(
        "baselines: greedy {} heads, one-round local heuristic {} heads, trivial {}",
        greedy.len(),
        local.len(),
        g.node_count(),
    );
    Ok(())
}
