//! **Perf baseline** for the parallel execution substrate: simulator
//! throughput (node-rounds/sec and envelopes/sec) on a min-flood gossip
//! workload over random geometric graphs, at `n ∈ {1k, 10k, 100k, 1M}`
//! and forced `threads ∈ {1, 2, 4, 8}` (via [`par::with_threads`], so the
//! sweep covers the sharded code paths even on small hosts; the host's
//! real core count is recorded alongside). Rows whose thread count
//! exceeds `host_logical_cpus` still run the determinism gate but are
//! marked `oversubscribed` — their timing is scheduler noise, and they
//! are excluded from `speedup_at_largest_n`.
//!
//! A second section, `alg12`, times Algorithms 1+2 both ways on
//! `gnp(n, 10/n, 42)` with `k = 2`, `t = 3` and one thread, at
//! `n ∈ {1k, 10k, 100k}`: the in-memory engine (`GeneralPipeline::run`)
//! beside the message-passing protocols (`run_fractional_stack` then
//! `run_rounding_stack`). It asserts that both produce the same set and
//! reports the median wall time of each and their ratio, the figure
//! that decides when the engine can be deleted.
//!
//! A third section, `transport`, times Algorithm 3 (`k = 2`, one thread)
//! on `random_udg(n, 12, 1, 1)` at `n ∈ {300, 2000}` under four executor
//! stacks: plain, the lossless reliable transport, 10% loss, and 10% loss
//! plus the chaos adversary (jitter, duplication and corruption at 5%
//! each). It asserts that every stack produces the plain run's set and
//! reports the median wall time, the frames sent, the physical rounds and
//! the nanoseconds per frame, so each fault layer's cost can be read per
//! frame it adds.
//!
//! Prints a machine-readable report (schema v6) to stdout, so perf
//! changes have a trajectory to be measured against; progress goes to
//! stderr. The tracked `BENCH.json` is this report at full size:
//! regenerate it with `exp perf > BENCH.json`.
//! One graph per `n` is shared by every thread row, so its construction
//! is reported in the per-`n` `graph_build` section (schema v3 repeated
//! the thread-1 value in every row), as the median of `trials` builds
//! (the first one before the `n`'s rows, the rest after every section);
//! `speedup_at_largest_n` is a `{value, reason}` pair whose value is
//! `null` with reason `"oversubscribed_host"` when no honest
//! multithreaded row exists. Before timing, the
//! run at every thread count is checked to produce **bit-for-bit** the
//! same final node states as the serial run — a throughput number from a
//! wrong computation is worthless.
//!
//! Timing discipline: graph generation and simulator construction are
//! measured separately (`graph_build_secs`, `setup_secs`) and excluded
//! from `wall_secs`, which covers only the round execution. Each
//! `(n, threads)` cell runs several trials and reports the **median**
//! round-phase wall time (throughputs derive from that median).
//!
//! `--smoke` shrinks the sweep (n ∈ {1k, 5k}, threads {1, 2}, one trial;
//! `alg12` at n = 1k only; `transport` at n = 300, one trial) so CI can
//! exercise the whole path in seconds.
//! `--digest <path>` writes an FNV-1a digest of every final state
//! vector (and of each `transport` stack's set and frame schedule); CI
//! diffs the smoke digests across `FTCLUST_THREADS` settings.

use crate::write_output;
use ftclust_bench::families::Family;
use ftclust_bench::stats::median;
use ftclust_core::fractional::protocol::run_fractional_stack;
use ftclust_core::fractional::FractionalParams;
use ftclust_core::general::GeneralPipeline;
use ftclust_core::rounding::protocol::run_rounding_stack;
use ftclust_core::rounding::RoundingParams;
use ftclust_core::udg::protocol::run_udg_stack;
use ftclust_core::udg::UdgAlgorithm;
use ftclust_core::{DominatingSet, Instance};
use ftclust_graphs::generators;
use ftclust_netsim::exec::Stack;
use ftclust_netsim::transport::TransportConfig;
use ftclust_netsim::{
    AdversaryPlan, Context, Control, EventLog, Inbox, NodeLogic, Payload, Simulator, Topology,
};
use ftclust_par as par;
use rand::Rng;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The flooded value: each node's current minimum, 64 bits on the wire.
#[derive(Clone, Debug)]
struct Token(u64);

impl Payload for Token {
    fn bit_size(&self) -> usize {
        64
    }
}

/// Min-flood gossip: every node draws a random token in round 0, then
/// broadcasts its running minimum for a fixed number of rounds. Exercises
/// the full hot path — per-node RNG, inbox scan, broadcast fan-out — with
/// per-round message volume Θ(m).
struct Gossip {
    best: u64,
    remaining: u32,
}

impl NodeLogic for Gossip {
    type Payload = Token;

    fn on_round(&mut self, inbox: Inbox<'_, Token>, ctx: &mut Context<'_, Token>) -> Control {
        if ctx.round() == 0 {
            self.best = ctx.rng().random();
        }
        for env in inbox {
            self.best = self.best.min(env.payload.0);
        }
        if self.remaining == 0 {
            return Control::Halt;
        }
        self.remaining -= 1;
        ctx.broadcast(Token(self.best));
        Control::Continue
    }
}

/// One `(n, threads)` cell of the sweep: median-of-trials round-phase
/// timing plus the setup phases measured separately.
struct Measurement {
    n: u32,
    threads: usize,
    rounds: u64,
    messages: u64,
    trials: usize,
    setup_secs: f64,
    wall_secs: f64,
    node_rounds_per_sec: f64,
    envelopes_per_sec: f64,
    /// `threads` exceeds the host's logical CPU count: the determinism
    /// gate still ran, but the timing is scheduler noise, not a
    /// scaling signal — excluded from `speedup_at_largest_n`.
    oversubscribed: bool,
}

/// One trial: builds the simulator (timed as setup), runs the rounds
/// (timed as the measured region), returns final states + phase times.
fn run_trial(
    g: &ftclust_graphs::Graph,
    rounds: u32,
    threads: usize,
) -> (Vec<u64>, u64, u64, f64, f64) {
    par::with_threads(threads, || {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time is this benchmark's measured output"
        )]
        let setup_start = Instant::now();
        let mut sim = Simulator::new(
            Topology::from_graph(g),
            |_| Gossip {
                best: u64::MAX,
                remaining: rounds,
            },
            42,
        );
        let setup = setup_start.elapsed().as_secs_f64();
        #[expect(
            clippy::disallowed_methods,
            reason = "wall time is this benchmark's measured output"
        )]
        let start = Instant::now();
        sim.run(u64::from(rounds) + 2).expect("gossip quiesces");
        let wall = start.elapsed().as_secs_f64();
        let m = sim.metrics();
        let (executed, messages) = (m.rounds, m.messages);
        let states: Vec<u64> = sim.logics().map(|l| l.best).collect();
        (states, executed, messages, setup, wall)
    })
}

/// Builds the sweep's `n`-node graph and times the build.
fn timed_rgg(n: u32) -> (ftclust_graphs::Graph, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "wall time is this benchmark's measured output"
    )]
    let start = Instant::now();
    let g = Family::Rgg.build(n, u64::from(n));
    (g, start.elapsed().as_secs_f64())
}

/// FNV-1a over a state vector, for cross-process determinism diffs.
fn fnv1a(states: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &s in states {
        for b in s.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn json_row(m: &Measurement) -> String {
    format!(
        "    {{\"n\": {}, \"threads\": {}, \"rounds\": {}, \"messages\": {}, \"trials\": {}, \"setup_secs\": {:.6}, \"wall_secs\": {:.6}, \"node_rounds_per_sec\": {:.1}, \"envelopes_per_sec\": {:.1}, \"oversubscribed\": {}}}",
        m.n,
        m.threads,
        m.rounds,
        m.messages,
        m.trials,
        m.setup_secs,
        m.wall_secs,
        m.node_rounds_per_sec,
        m.envelopes_per_sec,
        m.oversubscribed
    )
}

/// Demand `k` and trade-off parameter `t` of the `alg12` section.
const ALG12_K: u32 = 2;
const ALG12_T: u32 = 3;

/// One `alg12` row: median wall times of the Algorithm 1+2 engine and
/// protocols on one graph.
struct Alg12Row {
    n: u32,
    engine_secs: f64,
    protocol_secs: f64,
}

/// Times `GeneralPipeline::run` against `run_fractional_stack` +
/// `run_rounding_stack` on `gnp(n, 10/n, 42)` at one thread, after
/// checking that both produce the same set.
fn alg12_row(n: u32, trials: usize) -> Alg12Row {
    let g = generators::gnp(n, 10.0 / f64::from(n), 42);
    let inst = Instance::uniform_clamped(&g, ALG12_K);
    let params = FractionalParams::new(ALG12_T);
    let engine = || -> DominatingSet {
        let run = GeneralPipeline::new(ALG12_T).run(&inst);
        run.expect("the engine solves gnp inputs").set
    };
    let protocol = || -> DominatingSet {
        let (frac, _) = run_fractional_stack(&inst, &params, Stack::new())
            .expect("Algorithm 1 runs within its round budget");
        let (round, _) = run_rounding_stack(
            &inst,
            &frac.solution.x,
            frac.solution.delta,
            0,
            &RoundingParams::default(),
            Stack::new(),
        )
        .expect("Algorithm 2 runs within its round budget");
        round.outcome.set
    };
    let median_secs = |f: &dyn Fn() -> DominatingSet| {
        let walls: Vec<f64> = (0..trials)
            .map(|_| {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall time is this benchmark's measured output"
                )]
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(&walls)
    };
    par::with_threads(1, || {
        assert_eq!(
            engine(),
            protocol(),
            "Algorithm 1+2 engine and protocol sets differ at n={n}"
        );
        Alg12Row {
            n,
            engine_secs: median_secs(&engine),
            protocol_secs: median_secs(&protocol),
        }
    })
}

/// Demand `k` and input seed of the `transport` section.
const TRANSPORT_K: u32 = 2;
const TRANSPORT_SEED: u64 = 1;

/// The `transport` section's executor stacks, by name.
fn transport_stacks() -> [(&'static str, Stack); 4] {
    let chaos = AdversaryPlan::new(TRANSPORT_SEED)
        .jitter(0.05, 3)
        .duplicate(0.05)
        .corrupt(0.05);
    [
        ("plain", Stack::new()),
        (
            "transport",
            Stack::new().transport(TransportConfig::default()),
        ),
        ("lossy", Stack::new().lossy(0.1)),
        ("lossy_chaos", Stack::new().lossy(0.1).adversarial(chaos)),
    ]
}

/// One `transport` row: one stack's median solve time and its
/// (deterministic) frame schedule.
struct TransportRow {
    n: u32,
    stack: &'static str,
    median_secs: f64,
    frames: u64,
    rounds: u64,
}

/// Times Algorithm 3 on `random_udg(n, 12, 1, TRANSPORT_SEED)` under each
/// of [`transport_stacks`] at one thread, after checking that every stack
/// reproduces the plain run's set. Appends one digest line per stack.
fn transport_rows(n: u32, trials: usize, digests: &mut String) -> Vec<TransportRow> {
    let udg = generators::random_udg(n, 12.0, 1.0, TRANSPORT_SEED);
    let config = UdgAlgorithm::new(TRANSPORT_K).seed(TRANSPORT_SEED);
    par::with_threads(1, || {
        let mut plain_set: Option<DominatingSet> = None;
        transport_stacks()
            .into_iter()
            .map(|(name, stack)| {
                let mut walls = Vec::with_capacity(trials);
                let mut last = None;
                for _ in 0..trials {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "wall time is this benchmark's measured output"
                    )]
                    let start = Instant::now();
                    let (run, _) = run_udg_stack(&udg, &config, stack.clone())
                        .expect("Algorithm 3 solves the transport section's input");
                    walls.push(start.elapsed().as_secs_f64());
                    last = Some(run);
                }
                let run = last.expect("at least one trial");
                let reference = plain_set.get_or_insert_with(|| run.run.set.clone());
                assert_eq!(
                    &run.run.set, reference,
                    "stack {name} changed Algorithm 3's set at n={n}"
                );
                let m = &run.metrics;
                let ids: Vec<u64> = run.run.set.ids().map(|v| u64::from(v.raw())).collect();
                let schedule = [m.messages, m.rounds, m.retransmits, m.acks];
                writeln!(
                    digests,
                    "transport n={n} stack={name} fnv1a={:016x}",
                    fnv1a(&[fnv1a(&ids), fnv1a(&schedule), fnv1a(&m.per_round_messages)])
                )
                .expect("string write");
                TransportRow {
                    n,
                    stack: name,
                    median_secs: median(&walls),
                    frames: m.messages,
                    rounds: m.rounds,
                }
            })
            .collect()
    })
}

/// Re-runs the smallest workload with an [`EventLog`] attached
/// and writes the JSONL export to `path`. The traced run is *separate*
/// from the timed sweep so tracing overhead never pollutes the
/// report; CI diffs this file across thread counts to pin the
/// trace-determinism contract on the hot gossip path.
fn write_trace(path: &Path, n: u32, rounds: u32) -> std::io::Result<()> {
    let g = Family::Rgg.build(n, u64::from(n));
    let mut sim = Simulator::new(
        Topology::from_graph(&g),
        |_| Gossip {
            best: u64::MAX,
            remaining: rounds,
        },
        42,
    );
    sim.set_event_log(EventLog::new());
    sim.run(u64::from(rounds) + 2).expect("gossip quiesces");
    let log = sim.take_event_log().unwrap_or_default();
    write_output(path, "gossip trace", &log.to_jsonl())
}

pub(crate) fn run(opts: &crate::Opts) -> std::io::Result<()> {
    let smoke = opts.smoke;
    // Per-size round counts: the n = 10⁶ row halves the rounds so the
    // full sweep stays minutes, not hours.
    let sizes: &[(u32, u32)] = if smoke {
        &[(1_000, 6), (5_000, 6)]
    } else {
        &[(1_000, 16), (10_000, 16), (100_000, 16), (1_000_000, 8)]
    };
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let trials = if smoke { 1 } else { 3 };
    let max_threads = *thread_counts.last().expect("non-empty sweep");
    let host_logical_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    eprintln!(
        "perf baseline: gossip flood, sizes {:?}, threads {thread_counts:?}, {trials} trial(s){}",
        sizes.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut results = Vec::new();
    let mut digests = String::new();
    let mut speedup_at_largest: Option<f64> = None;
    // One graph per n is shared by every thread row, so its construction
    // is recorded per n — schema v3 repeated the thread-1 value verbatim
    // into every row, inviting misreads as a per-row measurement. This
    // build is its first timing; the other `trials − 1` run after every
    // section (below): building and freeing extra 10⁶-node graphs here
    // slowed the next single-thread round phase by 25–40% on a 2-vCPU host.
    let mut graph_builds: Vec<(u32, Vec<f64>)> = Vec::new();
    for &(n, rounds) in sizes {
        let (g, build_secs) = timed_rgg(n);
        graph_builds.push((n, vec![build_secs]));
        let mut serial_states: Option<Vec<u64>> = None;
        let mut serial_nrps = 0.0f64;
        for &threads in thread_counts {
            let mut setups = Vec::with_capacity(trials);
            let mut walls = Vec::with_capacity(trials);
            let mut rounds_executed = 0u64;
            let mut messages = 0u64;
            for _ in 0..trials {
                let (states, executed, msgs, setup, wall) = run_trial(&g, rounds, threads);
                // Determinism gate: every trial at every thread count
                // must reproduce the serial states exactly before its
                // throughput counts.
                match &serial_states {
                    None => serial_states = Some(states),
                    Some(reference) => assert_eq!(
                        reference, &states,
                        "run diverged from serial at n={n}, threads={threads}"
                    ),
                }
                setups.push(setup);
                walls.push(wall);
                rounds_executed = executed;
                messages = msgs;
            }
            let wall = median(&walls);
            let oversubscribed = threads > host_logical_cpus;
            let m = Measurement {
                n,
                threads,
                rounds: rounds_executed,
                messages,
                trials,
                setup_secs: median(&setups),
                wall_secs: wall,
                node_rounds_per_sec: n as f64 * rounds_executed as f64 / wall.max(1e-9),
                envelopes_per_sec: messages as f64 / wall.max(1e-9),
                oversubscribed,
            };
            eprintln!(
                "  n={n:>7} threads={threads:>2}: median {:.3}s (+{:.3}s setup), {:.2e} node-rounds/s, {:.2e} envelopes/s{}",
                m.wall_secs,
                m.setup_secs,
                m.node_rounds_per_sec,
                m.envelopes_per_sec,
                if oversubscribed {
                    " [oversubscribed: timing unreliable]"
                } else {
                    ""
                }
            );
            // Speedup is a scaling signal, so only rows the host can
            // actually run in parallel contribute; oversubscribed rows
            // keep the determinism gate but their timing is noise.
            if threads == 1 {
                serial_nrps = m.node_rounds_per_sec;
            } else if !oversubscribed && n == sizes.last().expect("non-empty sizes").0 {
                let s = m.node_rounds_per_sec / serial_nrps.max(1e-9);
                speedup_at_largest = Some(speedup_at_largest.map_or(s, |prev| prev.max(s)));
            }
            results.push(m);
        }
        let digest = fnv1a(serial_states.as_deref().unwrap_or(&[]));
        writeln!(digests, "n={n} fnv1a={digest:016x}").expect("string write");
    }

    let body = results.iter().map(json_row).collect::<Vec<_>>().join(",\n");
    // Null-with-reason when every multithreaded row at the largest n
    // was oversubscribed — a 1-CPU host has no parallel speedup to
    // report, and a bare `null` could not say why.
    let speedup_json = speedup_at_largest.map_or_else(
        || "{\"value\": null, \"reason\": \"oversubscribed_host\"}".to_string(),
        |s| format!("{{\"value\": {s:.3}, \"reason\": null}}"),
    );
    if speedup_at_largest.is_none() {
        eprintln!(
            "note: all threads>1 rows oversubscribe the {host_logical_cpus}-CPU host; \
             speedup_at_largest_n is null (reason: oversubscribed_host)"
        );
    }
    let alg12_sizes: &[u32] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let alg12_trials = if smoke { 1 } else { 7 };
    let alg12_body = alg12_sizes
        .iter()
        .map(|&n| {
            let row = alg12_row(n, alg12_trials);
            let ratio = row.protocol_secs / row.engine_secs.max(1e-9);
            eprintln!(
                "  alg12 n={n:>7}: engine {:.4}s, protocol {:.4}s, ratio {ratio:.2}",
                row.engine_secs, row.protocol_secs
            );
            format!(
                "      {{\"n\": {}, \"engine_secs\": {:.6}, \"protocol_secs\": {:.6}, \"ratio\": {ratio:.3}}}",
                row.n, row.engine_secs, row.protocol_secs
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let transport_sizes: &[u32] = if smoke { &[300] } else { &[300, 2_000] };
    let transport_trials = if smoke { 1 } else { 7 };
    let transport_body = transport_sizes
        .iter()
        .flat_map(|&n| transport_rows(n, transport_trials, &mut digests))
        .map(|row| {
            let ns_per_frame = row.median_secs * 1e9 / row.frames.max(1) as f64;
            eprintln!(
                "  transport n={:>5} {:<11}: median {:.3} ms, {} frames, {} rounds, {ns_per_frame:.0} ns/frame",
                row.n,
                row.stack,
                row.median_secs * 1e3,
                row.frames,
                row.rounds
            );
            format!(
                "      {{\"n\": {}, \"stack\": \"{}\", \"median_ms\": {:.4}, \"frames\": {}, \"rounds\": {}, \"ns_per_frame\": {ns_per_frame:.1}}}",
                row.n,
                row.stack,
                row.median_secs * 1e3,
                row.frames,
                row.rounds
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    // The remaining graph-build trials, after every timed section.
    for (n, secs) in &mut graph_builds {
        secs.extend((1..trials).map(|_| timed_rgg(*n).1));
    }
    let builds_body = graph_builds
        .iter()
        .map(|(n, secs)| {
            let secs = median(secs);
            format!("    {{\"n\": {n}, \"graph_build_secs\": {secs:.6}}}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"schema\": \"ftclust-perf-baseline-v6\",\n  \"workload\": \"gossip-min-flood-rgg\",\n  \"smoke\": {smoke},\n  \"host_logical_cpus\": {host_logical_cpus},\n  \"max_threads\": {max_threads},\n  \"speedup_at_largest_n\": {speedup_json},\n  \"graph_build\": [\n{builds_body}\n  ],\n  \"results\": [\n{body}\n  ],\n  \"alg12\": {{\n    \"graph\": \"gnp(n, 10/n, 42)\",\n    \"k\": {ALG12_K},\n    \"t\": {ALG12_T},\n    \"threads\": 1,\n    \"trials\": {alg12_trials},\n    \"rows\": [\n{alg12_body}\n    ]\n  }},\n  \"transport\": {{\n    \"graph\": \"random_udg(n, 12, 1, {TRANSPORT_SEED})\",\n    \"algorithm\": \"Algorithm 3\",\n    \"k\": {TRANSPORT_K},\n    \"threads\": 1,\n    \"trials\": {transport_trials},\n    \"rows\": [\n{transport_body}\n    ]\n  }}\n}}\n"
    );
    print!("{json}");
    if let Some(path) = &opts.digest {
        write_output(path, "state digests", &digests)?;
    }
    if let Some(path) = &opts.trace {
        let (n, rounds) = sizes[0];
        write_trace(path, n, rounds)?;
    }
    Ok(())
}
