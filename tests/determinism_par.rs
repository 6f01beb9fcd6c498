//! Determinism regression tests for the parallel execution substrate.
//!
//! The contract of `ftclust-par` is that the thread count is a pure
//! performance knob: every algorithm and protocol must produce
//! **bit-for-bit** the same outputs at any number of worker threads.
//! These tests pin that contract by running Algorithms 1–3 (engine and
//! protocol forms, where both exist) serially and at several awkward
//! thread counts — including 7, which never divides the node counts
//! evenly — across multiple master seeds, and comparing final states,
//! metrics, and dominating sets for exact equality. The last property pins the
//! simulator's publication fast path against its envelope path.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "integration-test helpers outside `#[test]` abort the test on failure"
)]

use ftclust::core::fractional::protocol::run_fractional_protocol;
use ftclust::core::fractional::FractionalSolution;
use ftclust::core::prelude::*;
use ftclust::core::rounding::{protocol::run_rounding_protocol, RoundingParams};
use ftclust::core::udg::protocol::{run_udg_protocol, run_udg_stack};
use ftclust::graphs::{generators, Graph, NodeId};
use ftclust::netsim::exec::{Executor, Stack};
use ftclust::netsim::transport::TransportConfig;
use ftclust::netsim::{
    AdversaryPlan, Context, Control, Inbox, Metrics, NodeLogic, Payload, Topology,
};
use ftclust_par::with_threads;
use proptest::prelude::*;
use rand::Rng;

/// Thread counts exercised against the serial reference. 2 is the
/// smallest parallel case; 7 is odd and coprime to the test sizes, so
/// shard boundaries land mid-structure.
const THREADS: &[usize] = &[2, 7];

/// Master seeds for graph generation and algorithm randomness.
const SEEDS: &[u64] = &[3, 17, 1234];

fn gnp_instance(seed: u64) -> (Graph, u32) {
    (generators::gnp(180, 0.05, seed), 2)
}

/// Algorithm 1 (engine): `solve_fractional` must be thread-count
/// invariant in both knowledge modes.
#[test]
fn fractional_engine_is_thread_invariant() {
    for &seed in SEEDS {
        let (g, k) = gnp_instance(seed);
        let inst = Instance::uniform_clamped(&g, k);
        for params in [
            FractionalParams::new(3),
            FractionalParams::new(3).without_global_delta(),
        ] {
            let reference: FractionalSolution =
                with_threads(1, || solve_fractional(&inst, &params).expect("solve"));
            for &t in THREADS {
                let parallel = with_threads(t, || solve_fractional(&inst, &params).expect("solve"));
                assert_eq!(
                    reference, parallel,
                    "fractional engine diverged at seed={seed}, threads={t}"
                );
            }
        }
    }
}

/// Algorithm 1 (protocol): solution *and* communication metrics must
/// match — the simulator's merge order is part of the contract.
#[test]
fn fractional_protocol_is_thread_invariant() {
    for &seed in SEEDS {
        let (g, k) = gnp_instance(seed);
        let inst = Instance::uniform_clamped(&g, k);
        let params = FractionalParams::new(2);
        let reference = with_threads(1, || {
            run_fractional_protocol(&inst, &params).expect("protocol")
        });
        for &t in THREADS {
            let parallel = with_threads(t, || {
                run_fractional_protocol(&inst, &params).expect("protocol")
            });
            assert_eq!(
                reference.solution, parallel.solution,
                "protocol solution diverged at seed={seed}, threads={t}"
            );
            assert_eq!(
                reference.metrics, parallel.metrics,
                "protocol metrics diverged at seed={seed}, threads={t}"
            );
        }
    }
}

/// Algorithm 2: the randomized rounding (engine and protocol) must
/// draw identical per-node coins at every thread count.
#[test]
fn rounding_is_thread_invariant() {
    for &seed in SEEDS {
        let (g, k) = gnp_instance(seed);
        let inst = Instance::uniform_clamped(&g, k);
        let sol = solve_fractional(&inst, &FractionalParams::new(2)).expect("solve");
        let params = RoundingParams::default();
        let reference = with_threads(1, || {
            round_fractional(&inst, &sol.x, sol.delta, seed, &params)
        });
        let proto_ref = with_threads(1, || {
            run_rounding_protocol(&inst, &sol.x, sol.delta, seed, &params).expect("protocol")
        });
        assert_eq!(reference.set, proto_ref.outcome.set);
        for &t in THREADS {
            let parallel = with_threads(t, || {
                round_fractional(&inst, &sol.x, sol.delta, seed, &params)
            });
            assert_eq!(
                reference, parallel,
                "rounding engine diverged at seed={seed}, threads={t}"
            );
            let proto = with_threads(t, || {
                run_rounding_protocol(&inst, &sol.x, sol.delta, seed, &params).expect("protocol")
            });
            assert_eq!(
                proto_ref.outcome, proto.outcome,
                "rounding protocol outcome diverged at seed={seed}, threads={t}"
            );
            assert_eq!(
                proto_ref.metrics, proto.metrics,
                "rounding protocol metrics diverged at seed={seed}, threads={t}"
            );
        }
    }
}

/// Algorithm 3: leader election and promotion use per-node RNG streams;
/// the elected sets, dominating sets, and metrics must be identical at
/// every thread count.
#[test]
fn udg_algorithm_is_thread_invariant() {
    for &seed in SEEDS {
        let udg = generators::random_udg_in_square(500, 8.0, 1.0, seed);
        let config = UdgAlgorithm::new(2).seed(seed);
        let proto_ref = with_threads(1, || run_udg_protocol(&udg, &config).expect("protocol"));
        for &t in THREADS {
            let proto = with_threads(t, || run_udg_protocol(&udg, &config).expect("protocol"));
            assert_eq!(
                proto_ref.run, proto.run,
                "udg protocol run diverged at seed={seed}, threads={t}"
            );
            assert_eq!(
                proto_ref.metrics, proto.metrics,
                "udg protocol metrics diverged at seed={seed}, threads={t}"
            );
        }
    }
}

/// Algorithm 3 over the reliable transport, lossless and under loss
/// plus the chaos adversary: the transport's idle nodes, whose wake
/// rounds are sharded with the rest of the node state, are skipped
/// alike at every thread count.
#[test]
fn transport_stacks_are_thread_invariant() {
    let chaos = |seed| {
        AdversaryPlan::new(seed)
            .jitter(0.05, 3)
            .duplicate(0.05)
            .corrupt(0.05)
    };
    for &seed in SEEDS {
        let udg = generators::random_udg(200, 10.0, 1.0, seed);
        let config = UdgAlgorithm::new(2).seed(seed);
        for stack in [
            Stack::new().transport(TransportConfig::default()),
            Stack::new().lossy(0.1).adversarial(chaos(seed)),
        ] {
            let run = |t| {
                with_threads(t, || {
                    let (run, _) = run_udg_stack(&udg, &config, stack.clone()).expect("protocol");
                    (run.run, run.metrics)
                })
            };
            let reference = run(1);
            for &t in THREADS {
                assert_eq!(
                    run(t),
                    reference,
                    "transport run diverged at seed={seed}, threads={t}"
                );
            }
        }
    }
}

/// End-to-end pipeline (Algorithm 1 + 2 + repair) through the
/// high-level [`GeneralPipeline`] entry point.
#[test]
fn general_pipeline_is_thread_invariant() {
    for &seed in SEEDS {
        let (g, k) = gnp_instance(seed);
        let inst = Instance::uniform_clamped(&g, k);
        let pipe = GeneralPipeline::new(3).seed(seed);
        let reference = with_threads(1, || pipe.run(&inst).expect("pipeline"));
        for &t in THREADS {
            let parallel = with_threads(t, || pipe.run(&inst).expect("pipeline"));
            assert_eq!(
                reference, parallel,
                "general pipeline diverged at seed={seed}, threads={t}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: on arbitrary sparse instances, the fractional engine
    /// and the UDG algorithm are invariant under the thread count.
    #[test]
    fn arbitrary_instances_are_thread_invariant(
        n in 20u32..120,
        seed in 0u64..1_000,
        threads in 2usize..9,
    ) {
        let g = generators::gnp(n, 0.08, seed);
        let inst = Instance::uniform_clamped(&g, 1);
        let params = FractionalParams::new(2);
        let serial = with_threads(1, || solve_fractional(&inst, &params).expect("solve"));
        let parallel = with_threads(threads, || solve_fractional(&inst, &params).expect("solve"));
        prop_assert_eq!(serial, parallel);

        let udg = generators::random_udg_in_square(n, 6.0, 1.0, seed);
        let config = UdgAlgorithm::new(1).seed(seed);
        let serial_udg = with_threads(1, || config.run(&udg).expect("udg"));
        let parallel_udg = with_threads(threads, || config.run(&udg).expect("udg"));
        prop_assert_eq!(serial_udg, parallel_udg);
    }
}

/// A tagged payload of varying size, so `total_bits` and
/// `max_message_bits` see more than one size. Degree-0 nodes broadcast
/// the largest size of the run: such a broadcast sends nothing, and
/// metering it anyway would show in `max_message_bits`.
#[derive(Clone, Debug)]
struct Mix {
    tag: u64,
    bits: usize,
}

impl Payload for Mix {
    fn bit_size(&self) -> usize {
        self.bits
    }
}

/// Mixed traffic: each round a node picks one sender shape from its
/// private stream — one broadcast, two broadcasts, broadcast then send,
/// send then broadcast, broadcast then self-send, or silence — and at
/// `halt_at` it broadcasts and halts in the same round. It records every
/// message it receives as `(round, from, payload)`, in inbox order.
struct Mixed {
    halt_at: u64,
    heard: Heard,
}

/// One node's received messages as `(round, sender, tag)`, in order.
type Heard = Vec<(u64, u32, u64)>;

impl NodeLogic for Mixed {
    type Payload = Mix;

    fn on_round(&mut self, inbox: Inbox<'_, Mix>, ctx: &mut Context<'_, Mix>) -> Control {
        let (me, round) = (ctx.me(), ctx.round());
        let neighbors = ctx.neighbors();
        for e in inbox {
            assert!(
                e.from == me || neighbors.binary_search(&e.from).is_ok(),
                "message delivered from a non-neighbour"
            );
            self.heard.push((round, e.from.raw(), e.payload.tag));
        }
        let base = u64::from(me.raw()) * 1_000 + round * 10;
        let msg = |k: u64| Mix {
            tag: base + k,
            bits: 1 + ((base + k) % 13) as usize,
        };
        let wide = |k: u64| Mix {
            bits: if neighbors.is_empty() {
                64
            } else {
                msg(k).bits
            },
            ..msg(k)
        };
        if round >= self.halt_at {
            ctx.broadcast(wide(0));
            return Control::Halt;
        }
        let shape = ctx.rng().random_range(0..6u32);
        let peer = if neighbors.is_empty() {
            me
        } else {
            neighbors[ctx.rng().random_range(0..neighbors.len())]
        };
        match shape {
            0 => ctx.broadcast(wide(0)),
            1 => {
                ctx.broadcast(wide(0));
                ctx.broadcast(wide(1));
            }
            2 => {
                ctx.broadcast(wide(0));
                ctx.send(peer, msg(1));
            }
            3 => {
                ctx.send(peer, msg(0));
                ctx.broadcast(wide(1));
            }
            4 => {
                ctx.broadcast(wide(0));
                ctx.send(me, msg(1));
            }
            _ => {}
        }
        Control::Continue
    }
}

/// Every node's received sequence and the run's metrics under `stack`.
fn mixed_run(g: &Graph, seed: u64, stack: Stack) -> (Vec<Heard>, Metrics) {
    let make = |v: NodeId| Mixed {
        halt_at: 3 + u64::from(v.raw()) % 5,
        heard: Vec::new(),
    };
    let run = Executor::new(Topology::from_graph(g), make, seed)
        .stack(stack)
        .run(50)
        .expect("mixed traffic halts by round 8");
    let heard = run.logics.into_iter().map(|l| l.heard).collect();
    (heard, run.metrics)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: published broadcasts reach every receiver exactly as
    /// envelopes do — the same `(from, payload)` sequence in the same
    /// order, and identical metrics. The plain stack takes the
    /// publication path; tracing forces the envelope path. Two isolated
    /// nodes are appended so degree-0 broadcasters always occur.
    #[test]
    fn published_broadcasts_match_envelopes(
        n in 2u32..60,
        p in 0.02f64..0.4,
        seed in 0u64..1_000,
    ) {
        let base = generators::gnp(n, p, seed);
        let edges: Vec<(u32, u32)> = base.edges().map(|(u, v)| (u.raw(), v.raw())).collect();
        let g = Graph::from_edges(n + 2, &edges).expect("valid edges");
        let reference = with_threads(1, || mixed_run(&g, seed, Stack::new().traced()));
        prop_assert!(reference.1.messages > 0);
        for threads in [1usize, 2] {
            let published = with_threads(threads, || mixed_run(&g, seed, Stack::new()));
            prop_assert_eq!(&published, &reference, "publication path, {} threads", threads);
            let traced = with_threads(threads, || mixed_run(&g, seed, Stack::new().traced()));
            prop_assert_eq!(&traced, &reference, "envelope path, {} threads", threads);
        }
    }
}
