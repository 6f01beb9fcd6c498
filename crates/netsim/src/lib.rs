//! Synchronous message-passing network simulator.
//!
//! Implements the model of computation of Section 3 of *Kuhn, Moscibroda &
//! Wattenhofer, "Fault-Tolerant Clustering in Ad Hoc and Sensor Networks"
//! (ICDCS 2006)*:
//!
//! * the network is an undirected graph `G = (V, E)`; nodes communicate only
//!   with graph neighbors,
//! * time is divided into **rounds**; in each round every node may send one
//!   message to each neighbor, receives the messages its neighbors sent in
//!   the previous round, and computes,
//! * messages are small — the simulator **meters the size in bits** of
//!   every payload ([`Payload::bit_size`]) so experiments can verify the
//!   `O(log n)` bound instead of assuming it,
//! * in unit disk graphs, nodes can sense distances to their neighbors
//!   (squared, [`Context::sq_distances`]).
//!
//! Protocols implement [`NodeLogic`]; a [`Simulator`] executes one logic
//! instance per node until all halt. Faults come in the paper's two
//! kinds — the paper's *motivation* is that k-fold dominating sets
//! tolerate exactly such faults. Node faults are a [`ChurnPlan`]:
//! crash-stop failures and live churn (crash **and recovery** events,
//! seeded-random membership churn), which drives the self-healing repair
//! protocol in `ftclust-core`. Message faults are one runtime fault
//! state that decides each message once: i.i.d. loss
//! ([`Simulator::set_loss`]) and, through an [`AdversaryPlan`], the
//! faults real radios produce — reordering delay jitter, frame
//! duplication, payload corruption, scheduled group partitions (the one
//! way to cut links for a window of rounds). The [`monitor`] module
//! measures detection latency and time-to-repair when the repair
//! protocol runs continuously under that chaos.
//!
//! Protocols run through one driver, [`exec::Executor`], whose
//! [`exec::Stack`] engages the reliable transport, loss, churn,
//! adversary and tracing layers.
//!
//! Asynchrony is one such stack, not a separate executor. Section 3 of
//! the paper reduces asynchronous networks to synchronous rounds with
//! Awerbuch's α-synchronizer, and [`transport::Reliable`] is that
//! synchronizer: it advances its inner logic to round `r` only once
//! every live neighbour's round-`(r − 1)` frame has arrived. Delaying
//! every frame by a random `1..=d` rounds with
//! [`AdversaryPlan::jitter`]`(1.0, d)` under the transport gives an
//! asynchronous network with delay bound `d`, and the run's result is
//! that of the synchronous run with the same seed. Loss, corruption,
//! duplication, partitions and tracing compose with it like with any
//! other transport run. See [`transport`] for how to size the
//! retransmission timeout to `d`.
//!
//! Determinism: all randomness derives from a master seed via per-node
//! streams ([`node_rng`]), so every execution is exactly reproducible and
//! can be compared seed-for-seed against the in-memory engine
//! implementations of the algorithms.
//!
//! # Example: distributed max-id flooding
//!
//! ```
//! use ftclust_graphs::generators;
//! use ftclust_netsim::{Context, Control, Inbox, NodeLogic, Payload, Simulator, Topology};
//!
//! #[derive(Clone, Debug)]
//! struct IdMsg(u32);
//! impl Payload for IdMsg {
//!     fn bit_size(&self) -> usize { 32 }
//! }
//!
//! /// Every node floods the largest id it has seen; after `diam` rounds all
//! /// nodes know the global maximum.
//! struct MaxId { best: u32, rounds: u64 }
//! impl NodeLogic for MaxId {
//!     type Payload = IdMsg;
//!     fn on_round(&mut self, inbox: Inbox<'_, IdMsg>, ctx: &mut Context<'_, IdMsg>) -> Control {
//!         for env in inbox {
//!             self.best = self.best.max(env.payload.0);
//!         }
//!         if ctx.round() >= self.rounds {
//!             return Control::Halt;
//!         }
//!         ctx.broadcast(IdMsg(self.best));
//!         Control::Continue
//!     }
//! }
//!
//! let g = generators::cycle(8);
//! let topo = Topology::from_graph(&g);
//! let mut sim = Simulator::new(topo, |v| MaxId { best: v.raw(), rounds: 8 }, 0);
//! sim.run(100)?;
//! assert!((0..8).all(|v| sim.logic(ftclust_graphs::NodeId::new(v)).best == 7));
//! # Ok::<(), ftclust_netsim::SimError>(())
//! ```

mod arena;
mod churn;
mod error;
mod message;
mod metrics;
mod node;
mod sim;
mod topology;

pub mod adversary;
pub mod exec;
pub mod monitor;
pub mod trace;
pub mod transport;

pub use adversary::AdversaryPlan;
pub use churn::{ChurnEvent, ChurnPlan, RandomChurn};
pub use error::SimError;
pub use message::{bits_for_ids, Envelope, Payload};
pub use metrics::Metrics;
pub use node::{Context, Control, Inbox, InboxIter, Msg, NodeLogic};
pub use sim::{node_rng, Simulator};
pub use topology::Topology;
pub use trace::{EventLog, PhaseRollup, TraceEvent, TraceRecord};
