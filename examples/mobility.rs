//! Re-clustering a mobile ad hoc network.
//!
//! Mobility "is a key issue in ad hoc networks" (Section 1): a clustering
//! computed at time 0 erodes as nodes move. Because Algorithm 3 runs in
//! `O(log log n)` rounds, it is cheap enough to re-run periodically. This
//! example moves nodes with the library's random-waypoint model
//! ([`ftclust::graphs::mobility::RandomWaypoint`]), measures how coverage
//! decays between re-clusterings, and shows the fix: periodic
//! re-clustering keeps coverage pinned at 1.0.
//!
//! Run with: `cargo run --release --example mobility`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "an example asserts its own results and aborts when one fails"
)]

use ftclust::core::prelude::*;
use ftclust::core::udg::UdgAlgorithm;
use ftclust::core::validate::covered_fraction;
use ftclust::graphs::mobility::RandomWaypoint;

const N: u32 = 500;
const SIDE: f64 = 12.0;
const RADIUS: f64 = 1.0;
const SPEED: f64 = 0.25; // distance per tick
const TICKS: u64 = 30;

fn main() -> Result<(), KmdsError> {
    println!("random-waypoint mobility: {N} nodes, {SIDE}×{SIDE} field, speed {SPEED}/tick");
    println!();
    println!("fraction of nodes still dominated (≥1 head in range) after t ticks");
    println!("without re-clustering:");
    println!();
    print!("{:>4} {:>7}", "k", "|S|");
    for t in (0..=TICKS).step_by(5) {
        print!(" {:>7}", format!("t={t}"));
    }
    println!();

    for k in [1u32, 2, 4] {
        // Same trajectories for every k: the world seed is fixed.
        let mut world = RandomWaypoint::new(N, SIDE, SPEED, 7);
        let udg0 = world.udg(RADIUS).expect("valid UDG");
        let run = UdgAlgorithm::new(k).seed(k as u64).run(&udg0)?;
        assert!(is_k_dominating(
            udg0.graph(),
            &run.set,
            k,
            Semantics::Strict
        ));
        print!("{:>4} {:>7}", k, run.set.len());
        for t in 0..=TICKS {
            if t % 5 == 0 {
                let udg = world.udg(RADIUS).expect("valid UDG");
                print!(" {:>7.3}", covered_fraction(udg.graph(), &run.set, 1));
            }
            world.step();
        }
        println!();
    }

    println!();
    println!("re-clustering with Algorithm 3 every 10 ticks (k = 2):");
    let mut world = RandomWaypoint::new(N, SIDE, SPEED, 7);
    let mut set: Option<DominatingSet> = None;
    for t in 0..=TICKS {
        let udg = world.udg(RADIUS).expect("valid UDG");
        if t % 10 == 0 {
            let run = UdgAlgorithm::new(2).seed(t).run(&udg)?;
            println!("  t={t:>2}: re-clustered, {} heads", run.set.len());
            set = Some(run.set);
        }
        if t % 5 == 0 {
            let s = set.as_ref().expect("clustered at t=0");
            println!(
                "  t={t:>2}: coverage {:.3}",
                covered_fraction(udg.graph(), s, 1)
            );
        }
        world.step();
    }
    Ok(())
}
