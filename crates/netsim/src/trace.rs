//! Deterministic structured tracing: typed events, phase spans, exporters.
//!
//! The simulator's aggregate [`Metrics`] answer *how much*
//! a run cost; this module answers *where* the cost went. A
//! [`Simulator`](crate::Simulator) with an [`EventLog`] attached records a
//! stream of typed [`TraceEvent`]s stamped with **logical time only**
//! (the CONGEST round number — never a wall clock), so a recorded log is
//! a pure function of `(topology, logic, seed, schedule)` and is
//! byte-identical across `FTCLUST_THREADS` settings. Wall-clock
//! profiling must never write here.
//!
//! Phase spans come from one place: [`crate::exec::Executor`] walks its
//! [`Phase`](crate::exec::Phase) plan, whose names it checks against
//! [`REGISTERED_SPANS`] on every run, and checks every log it returns
//! against the run's `Metrics` with [`EventLog::reconcile`] in debug
//! builds.
//!
//! # Determinism discipline
//!
//! Events produced on the sequential control path (round begin/end,
//! churn, delivery, sends, spans) are recorded directly in program
//! order. Events produced *inside* the parallel node-logic phase
//! (retransmit / ack / duplicate-suppressed, reported through
//! [`Context`](crate::Context)) go to per-worker buffers that the
//! simulator drains in shard index order after the parallel phase — the
//! same merge discipline `TransportCounters` uses — so the interleaving
//! observed by the log never depends on the worker count.
//!
//! # Overhead when disabled
//!
//! Without a log attached, every emission site checks one boolean
//! (hoisted once per round on the hot paths), so an untraced simulator
//! does no per-message work. The perf baseline (`exp perf`) runs
//! untraced and guards against regressions.
//!
//! # Exporters
//!
//! * [`EventLog::to_jsonl`] — one JSON object per event, suitable for
//!   `diff`, `jq`, or downstream ingestion.
//! * [`EventLog::to_chrome_trace`] — Chrome `trace_event` JSON (spans as
//!   `B`/`E` pairs, per-round message/bit counters, churn as instant
//!   events) viewable in Perfetto / `chrome://tracing`; one logical
//!   round maps to 1000 "microseconds".
//!
//! Both are hand-rolled string builders: the trace layer adds no
//! dependencies.

use crate::metrics::Metrics;
use ftclust_graphs::NodeId;
use std::fmt::Write as _;

/// Phase-span names that protocol drivers are allowed to emit.
///
/// Every [`Executor::run`](crate::exec::Executor::run) asserts each name
/// of its phase plan against this list, traced or not, and the executor
/// is the only code that opens spans, so a renamed phase cannot silently
/// fork the trace vocabulary.
pub const REGISTERED_SPANS: &[&str] = &[
    // Algorithm 1 (fractional LP): round 0 dynamic-degree seeding, then
    // per-iteration raise (phase A) and threshold/dual accounting
    // (phase B), then the closing dual exchange + assembly rounds.
    "dyndeg",
    "raise",
    "threshold",
    "dual_exchange",
    // Algorithm 2 (distributed rounding): one span per 3-round schedule
    // step (flag draw, deficit/request, repair).
    "rounding_round",
    // Algorithm 3 (UDG): Part I doubling-radius iterations (argument is
    // the schedule index of θ), Part II greedy promotion iterations.
    "part1_round",
    "part2_promotion",
    // Repair protocol: round-0 heartbeat, then 3-round repair
    // iterations (deficit, re-election, join).
    "repair_heartbeat",
    "repair_iter",
    // Continuous repair under chaos (core::repair::run_repair_continuous):
    // the round-0 coverage probe, then repeating 4-round cycles (deficit,
    // re-election, join, next probe).
    "monitor",
    "repair_continuous",
    // Competitor portfolio (core::portfolio): Penso–Barbosa-style layered
    // growth and the Deurer–Kuhn–Maus-style span-greedy run repeating
    // 3-round iterations (status, candidacy, election); the centralized
    // greedy baseline announces membership in one round and verifies
    // coverage in a quiescence tail.
    "pb_iter",
    "dkm_iter",
    "greedy_announce",
    "greedy_verify",
];

/// One structured trace event. All payloads are logical quantities
/// (round numbers, node ids, message counts, bit counts) — no wall
/// clock, no pointers, no thread ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A simulated round started executing.
    RoundBegin,
    /// The round finished; `messages`/`bits` are the sends metered
    /// during this round (matching the `Metrics` per-round series).
    RoundEnd {
        /// Messages sent this round.
        messages: u64,
        /// Payload bits sent this round.
        bits: u64,
    },
    /// A named protocol phase began (driver-emitted).
    SpanEnter {
        /// Registered span name (see [`REGISTERED_SPANS`]).
        name: &'static str,
        /// Optional iteration argument (e.g. the Part I θ index).
        arg: Option<u64>,
    },
    /// A named protocol phase ended (driver-emitted).
    SpanExit {
        /// Registered span name (see [`REGISTERED_SPANS`]).
        name: &'static str,
        /// Optional iteration argument, mirroring the matching enter.
        arg: Option<u64>,
    },
    /// A message was handed to the link layer.
    Send {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Metered payload size in bits.
        bits: u64,
    },
    /// The link layer dropped an in-flight message (fault injection or
    /// a crashed endpoint's link going down).
    Drop {
        /// Sender of the dropped message.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// `count` queued messages were delivered to a live node's inbox.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Number of messages delivered this round.
        count: u64,
    },
    /// `count` queued messages evaporated because the receiver was down.
    DeadOnArrival {
        /// The crashed receiver.
        node: NodeId,
        /// Number of messages discarded this round.
        count: u64,
    },
    /// The reliable transport retransmitted an unacknowledged frame.
    Retransmit {
        /// Node whose link timer fired.
        node: NodeId,
    },
    /// The reliable transport piggybacked or sent an acknowledgement.
    Ack {
        /// Acknowledging node.
        node: NodeId,
    },
    /// The reliable transport suppressed a duplicate delivery.
    DuplicateSuppressed {
        /// Node that detected the duplicate.
        node: NodeId,
    },
    /// An adversary corrupted an in-flight message; the receiver's
    /// checksum detects the damage and the frame is erased (counted in
    /// [`Metrics::corrupted`], not in drops).
    Corrupted {
        /// Sender of the corrupted message.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// An adversary injected a network-level duplicate of an in-flight
    /// message. The clone itself is metered as an ordinary [`Send`]
    /// (emitted immediately before this event); this marks its
    /// provenance (counted in [`Metrics::net_duplicated`]).
    ///
    /// [`Send`]: TraceEvent::Send
    NetDuplicated {
        /// Sender of the duplicated message.
        from: NodeId,
        /// Receiver of the extra copy.
        to: NodeId,
    },
    /// Churn took a node down.
    Crash {
        /// The node that crashed.
        node: NodeId,
    },
    /// Churn brought a node back (with reset state).
    Recover {
        /// The node that recovered.
        node: NodeId,
    },
}

/// A [`TraceEvent`] stamped with the logical round it occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Logical time stamp: the simulator round.
    pub round: u64,
    /// The event payload.
    pub event: TraceEvent,
}

/// An append-only, ordered log of trace records: what a traced
/// [`Simulator`](crate::Simulator) records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    /// The recorded events, in emission order.
    pub records: Vec<TraceRecord>,
}

/// Per-phase aggregate derived from an [`EventLog`]: everything that
/// happened while a span with this name was the innermost open span.
/// Rounds outside any span aggregate under the name `(unspanned)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRollup {
    /// Span name (or `(unspanned)`).
    pub name: &'static str,
    /// Number of simulated rounds attributed to the phase.
    pub rounds: u64,
    /// Messages sent during the phase.
    pub messages: u64,
    /// Payload bits sent during the phase.
    pub bits: u64,
    /// Largest single message metered during the phase, in bits.
    pub max_message_bits: u64,
}

/// Name under which activity outside any open span is aggregated.
pub const UNSPANNED: &str = "(unspanned)";

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one event at logical time `round`.
    pub fn record(&mut self, round: u64, event: TraceEvent) {
        self.records.push(TraceRecord { round, event });
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Aggregates the log into per-phase rollups, in first-seen span
    /// order. Attribution is to the innermost span open at the time of
    /// the event; spans with the same name aggregate together across
    /// iterations (all `raise(m)` rounds form one `raise` row).
    #[must_use]
    pub fn rollups(&self) -> Vec<PhaseRollup> {
        let mut rows: Vec<PhaseRollup> = Vec::new();
        let mut stack: Vec<&'static str> = Vec::new();
        let row_of = |rows: &mut Vec<PhaseRollup>, name: &'static str| -> usize {
            match rows.iter().position(|r| r.name == name) {
                Some(i) => i,
                None => {
                    rows.push(PhaseRollup {
                        name,
                        rounds: 0,
                        messages: 0,
                        bits: 0,
                        max_message_bits: 0,
                    });
                    rows.len() - 1
                }
            }
        };
        for rec in &self.records {
            match rec.event {
                TraceEvent::SpanEnter { name, .. } => stack.push(name),
                TraceEvent::SpanExit { .. } => {
                    stack.pop();
                }
                TraceEvent::RoundEnd { messages, bits } => {
                    let name = stack.last().copied().unwrap_or(UNSPANNED);
                    let i = row_of(&mut rows, name);
                    rows[i].rounds += 1;
                    rows[i].messages += messages;
                    rows[i].bits += bits;
                }
                TraceEvent::Send { bits, .. } => {
                    let name = stack.last().copied().unwrap_or(UNSPANNED);
                    let i = row_of(&mut rows, name);
                    rows[i].max_message_bits = rows[i].max_message_bits.max(bits);
                }
                _ => {}
            }
        }
        rows
    }

    /// Cross-checks the event stream against the aggregate [`Metrics`]
    /// of the same run: every counter must be re-derivable from the
    /// events, spans must be balanced, and the per-phase rollups must
    /// partition the totals (the conservation law, per phase).
    ///
    /// Returns the first discrepancy as a human-readable message.
    ///
    /// # Errors
    ///
    /// Any mismatch between the log and `m` (or malformed span
    /// nesting) yields `Err` describing the failing check.
    pub fn reconcile(&self, m: &Metrics) -> Result<(), String> {
        let mut rounds = 0u64;
        let mut sends = 0u64;
        let mut send_bits = 0u64;
        let mut max_bits = 0u64;
        let mut end_messages = 0u64;
        let mut end_bits = 0u64;
        let mut drops = 0u64;
        let mut delivered = 0u64;
        let mut doa = 0u64;
        let mut retransmits = 0u64;
        let mut acks = 0u64;
        let mut dups = 0u64;
        let mut corrupted = 0u64;
        let mut net_duplicated = 0u64;
        // Open spans as (name, arg): an exit must mirror its enter in
        // both, so `raise(1)` cannot close an open `raise(0)`.
        let mut stack: Vec<(&'static str, Option<u64>)> = Vec::new();
        for rec in &self.records {
            match rec.event {
                TraceEvent::RoundBegin => rounds += 1,
                TraceEvent::RoundEnd { messages, bits } => {
                    end_messages += messages;
                    end_bits += bits;
                }
                TraceEvent::SpanEnter { name, arg } => stack.push((name, arg)),
                TraceEvent::SpanExit { name, arg } => match stack.pop() {
                    Some(open) if open == (name, arg) => {}
                    Some((open, open_arg)) => {
                        return Err(format!(
                            "span exit `{name}` (arg {arg:?}) at round {} closes open span \
                             `{open}` (arg {open_arg:?})",
                            rec.round
                        ));
                    }
                    None => {
                        return Err(format!(
                            "span exit `{name}` at round {} without a matching enter",
                            rec.round
                        ));
                    }
                },
                TraceEvent::Send { bits, .. } => {
                    sends += 1;
                    send_bits += bits;
                    max_bits = max_bits.max(bits);
                }
                TraceEvent::Drop { .. } => drops += 1,
                TraceEvent::Deliver { count, .. } => delivered += count,
                TraceEvent::DeadOnArrival { count, .. } => doa += count,
                TraceEvent::Retransmit { .. } => retransmits += 1,
                TraceEvent::Ack { .. } => acks += 1,
                TraceEvent::DuplicateSuppressed { .. } => dups += 1,
                TraceEvent::Corrupted { .. } => corrupted += 1,
                TraceEvent::NetDuplicated { .. } => net_duplicated += 1,
                TraceEvent::Crash { .. } | TraceEvent::Recover { .. } => {}
            }
        }
        if let Some((open, _)) = stack.last() {
            return Err(format!("span `{open}` never exited"));
        }
        let checks: &[(&str, u64, u64)] = &[
            ("round_begin count vs rounds", rounds, m.rounds),
            ("send count vs messages", sends, m.messages),
            ("send bits vs total_bits", send_bits, m.total_bits),
            (
                "max send bits vs max_message_bits",
                max_bits,
                m.max_message_bits,
            ),
            ("round_end messages vs messages", end_messages, m.messages),
            ("round_end bits vs total_bits", end_bits, m.total_bits),
            ("drop count vs dropped_messages", drops, m.dropped_messages),
            (
                "deliver count vs delivered_messages",
                delivered,
                m.delivered_messages,
            ),
            ("doa count vs dead_on_arrival", doa, m.dead_on_arrival),
            (
                "retransmit count vs retransmits",
                retransmits,
                m.retransmits,
            ),
            ("ack count vs acks", acks, m.acks),
            (
                "duplicate count vs duplicates_suppressed",
                dups,
                m.duplicates_suppressed,
            ),
            ("corrupted count vs corrupted", corrupted, m.corrupted),
            (
                "net duplicate count vs net_duplicated",
                net_duplicated,
                m.net_duplicated,
            ),
        ];
        for (what, got, want) in checks {
            if got != want {
                return Err(format!("{what}: trace says {got}, metrics say {want}"));
            }
        }
        // Per-phase conservation: the rollups must partition the totals.
        let rollups = self.rollups();
        let (mut r_rounds, mut r_msgs, mut r_bits) = (0u64, 0u64, 0u64);
        for r in &rollups {
            r_rounds += r.rounds;
            r_msgs += r.messages;
            r_bits += r.bits;
        }
        if r_rounds != m.rounds || r_msgs != m.messages || r_bits != m.total_bits {
            return Err(format!(
                "rollups do not partition totals: rounds {r_rounds}/{}, \
                 messages {r_msgs}/{}, bits {r_bits}/{}",
                m.rounds, m.messages, m.total_bits
            ));
        }
        Ok(())
    }

    /// Serializes the log as JSON Lines: one object per record, stable
    /// field order, no whitespace — byte-identical for equal logs.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 48);
        for rec in &self.records {
            let _ = write!(out, "{{\"round\":{},\"event\":", rec.round);
            match rec.event {
                TraceEvent::RoundBegin => out.push_str("\"round_begin\""),
                TraceEvent::RoundEnd { messages, bits } => {
                    let _ = write!(out, "\"round_end\",\"messages\":{messages},\"bits\":{bits}");
                }
                TraceEvent::SpanEnter { name, arg } => {
                    let _ = write!(out, "\"span_enter\",\"name\":\"{name}\"");
                    if let Some(a) = arg {
                        let _ = write!(out, ",\"arg\":{a}");
                    }
                }
                TraceEvent::SpanExit { name, arg } => {
                    let _ = write!(out, "\"span_exit\",\"name\":\"{name}\"");
                    if let Some(a) = arg {
                        let _ = write!(out, ",\"arg\":{a}");
                    }
                }
                TraceEvent::Send { from, to, bits } => {
                    let _ = write!(
                        out,
                        "\"send\",\"from\":{},\"to\":{},\"bits\":{bits}",
                        from.raw(),
                        to.raw()
                    );
                }
                TraceEvent::Drop { from, to } => {
                    let _ = write!(out, "\"drop\",\"from\":{},\"to\":{}", from.raw(), to.raw());
                }
                TraceEvent::Deliver { node, count } => {
                    let _ = write!(out, "\"deliver\",\"node\":{},\"count\":{count}", node.raw());
                }
                TraceEvent::DeadOnArrival { node, count } => {
                    let _ = write!(
                        out,
                        "\"dead_on_arrival\",\"node\":{},\"count\":{count}",
                        node.raw()
                    );
                }
                TraceEvent::Retransmit { node } => {
                    let _ = write!(out, "\"retransmit\",\"node\":{}", node.raw());
                }
                TraceEvent::Ack { node } => {
                    let _ = write!(out, "\"ack\",\"node\":{}", node.raw());
                }
                TraceEvent::DuplicateSuppressed { node } => {
                    let _ = write!(out, "\"duplicate_suppressed\",\"node\":{}", node.raw());
                }
                TraceEvent::Corrupted { from, to } => {
                    let _ = write!(
                        out,
                        "\"corrupted\",\"from\":{},\"to\":{}",
                        from.raw(),
                        to.raw()
                    );
                }
                TraceEvent::NetDuplicated { from, to } => {
                    let _ = write!(
                        out,
                        "\"net_duplicated\",\"from\":{},\"to\":{}",
                        from.raw(),
                        to.raw()
                    );
                }
                TraceEvent::Crash { node } => {
                    let _ = write!(out, "\"crash\",\"node\":{}", node.raw());
                }
                TraceEvent::Recover { node } => {
                    let _ = write!(out, "\"recover\",\"node\":{}", node.raw());
                }
            }
            out.push_str("}\n");
        }
        out
    }

    /// Serializes the log in Chrome `trace_event` format (the JSON
    /// object form), viewable in Perfetto or `chrome://tracing`. Spans
    /// become `B`/`E` duration events, round totals become counter
    /// tracks, and churn becomes global instant events. One logical
    /// round is rendered as 1000 time units.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        const US_PER_ROUND: u64 = 1000;
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for rec in &self.records {
            let ts = rec.round * US_PER_ROUND;
            let mut line = String::new();
            match rec.event {
                TraceEvent::SpanEnter { name, arg } => {
                    let _ = write!(
                        line,
                        "{{\"name\":\"{name}\",\"ph\":\"B\",\"ts\":{ts},\"pid\":0,\"tid\":0"
                    );
                    if let Some(a) = arg {
                        let _ = write!(line, ",\"args\":{{\"arg\":{a}}}");
                    }
                    line.push('}');
                }
                TraceEvent::SpanExit { name, .. } => {
                    let _ = write!(
                        line,
                        "{{\"name\":\"{name}\",\"ph\":\"E\",\"ts\":{ts},\"pid\":0,\"tid\":0}}"
                    );
                }
                TraceEvent::RoundEnd { messages, bits } => {
                    let _ = write!(
                        line,
                        "{{\"name\":\"round_traffic\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                         \"args\":{{\"messages\":{messages},\"bits\":{bits}}}}}"
                    );
                }
                TraceEvent::Crash { node } => {
                    let _ = write!(
                        line,
                        "{{\"name\":\"crash\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":0,\
                         \"s\":\"g\",\"args\":{{\"node\":{}}}}}",
                        node.raw()
                    );
                }
                TraceEvent::Recover { node } => {
                    let _ = write!(
                        line,
                        "{{\"name\":\"recover\",\"ph\":\"i\",\"ts\":{ts},\"pid\":0,\"tid\":0,\
                         \"s\":\"g\",\"args\":{{\"node\":{}}}}}",
                        node.raw()
                    );
                }
                _ => continue,
            }
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A tiny hand-built log: one spanned round with a send, one
    /// unspanned round.
    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.record(
            0,
            TraceEvent::SpanEnter {
                name: "raise",
                arg: Some(0),
            },
        );
        log.record(0, TraceEvent::RoundBegin);
        log.record(
            0,
            TraceEvent::Send {
                from: n(0),
                to: n(1),
                bits: 16,
            },
        );
        log.record(
            0,
            TraceEvent::RoundEnd {
                messages: 1,
                bits: 16,
            },
        );
        log.record(
            1,
            TraceEvent::SpanExit {
                name: "raise",
                arg: Some(0),
            },
        );
        log.record(1, TraceEvent::RoundBegin);
        log.record(
            1,
            TraceEvent::Deliver {
                node: n(1),
                count: 1,
            },
        );
        log.record(
            1,
            TraceEvent::RoundEnd {
                messages: 0,
                bits: 0,
            },
        );
        log
    }

    #[test]
    fn rollups_attribute_to_innermost_span() {
        let rows = sample_log().rollups();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "raise");
        assert_eq!(rows[0].rounds, 1);
        assert_eq!(rows[0].messages, 1);
        assert_eq!(rows[0].bits, 16);
        assert_eq!(rows[0].max_message_bits, 16);
        assert_eq!(rows[1].name, UNSPANNED);
        assert_eq!(rows[1].rounds, 1);
        assert_eq!(rows[1].messages, 0);
    }

    #[test]
    fn reconcile_accepts_matching_metrics() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_sends(1, 16, 16);
        m.begin_round();
        m.delivered_messages = 1;
        assert_eq!(sample_log().reconcile(&m), Ok(()));
    }

    #[test]
    fn reconcile_rejects_mismatched_counters() {
        let mut m = Metrics::default();
        m.begin_round();
        m.record_sends(1, 16, 16);
        m.begin_round();
        m.delivered_messages = 2; // log only delivered 1
        let err = sample_log().reconcile(&m).unwrap_err();
        assert!(err.contains("deliver count"), "unexpected error: {err}");
    }

    #[test]
    fn reconcile_rejects_unbalanced_spans() {
        let mut log = EventLog::new();
        log.record(
            0,
            TraceEvent::SpanEnter {
                name: "raise",
                arg: None,
            },
        );
        let err = log.reconcile(&Metrics::default()).unwrap_err();
        assert!(err.contains("never exited"), "unexpected error: {err}");
        let mut log = EventLog::new();
        log.record(
            0,
            TraceEvent::SpanEnter {
                name: "raise",
                arg: None,
            },
        );
        log.record(
            0,
            TraceEvent::SpanExit {
                name: "threshold",
                arg: None,
            },
        );
        let err = log.reconcile(&Metrics::default()).unwrap_err();
        assert!(err.contains("closes open span"), "unexpected error: {err}");
    }

    #[test]
    fn reconcile_rejects_an_exit_with_another_arg() {
        let mut log = EventLog::new();
        log.record(
            0,
            TraceEvent::SpanEnter {
                name: "raise",
                arg: Some(0),
            },
        );
        log.record(
            0,
            TraceEvent::SpanExit {
                name: "raise",
                arg: Some(1),
            },
        );
        let err = log.reconcile(&Metrics::default()).unwrap_err();
        assert!(err.contains("closes open span"), "unexpected error: {err}");
    }

    #[test]
    fn jsonl_round_trips_stable_bytes() {
        let a = sample_log().to_jsonl();
        let b = sample_log().to_jsonl();
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), sample_log().len());
        assert!(
            a.starts_with("{\"round\":0,\"event\":\"span_enter\",\"name\":\"raise\",\"arg\":0}")
        );
        assert!(a.contains("{\"round\":0,\"event\":\"send\",\"from\":0,\"to\":1,\"bits\":16}"));
    }

    #[test]
    fn chrome_trace_has_balanced_duration_events() {
        let s = sample_log().to_chrome_trace();
        assert_eq!(s.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"E\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"C\"").count(), 2);
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.trim_end().ends_with("]}"));
    }

    #[test]
    fn registered_spans_are_unique() {
        for (i, a) in REGISTERED_SPANS.iter().enumerate() {
            for b in &REGISTERED_SPANS[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
