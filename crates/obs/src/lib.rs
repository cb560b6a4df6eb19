#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! `loopmem-obs` — zero-cost observability for the loopmem engine.
//!
//! Every prior layer of the stack made the analysis faster (lane-split
//! pass 1, work-stealing chunks), wider (program batches, scratchpad
//! fusion), or safer (governed budgets, fault injection, certificates) —
//! this crate makes it *visible*. It defines a span/event/counter model
//! ([`TraceEvent`]) and a sink trait ([`TraceSink`]) that the engine
//! threads through its existing seams: `POLL_INTERVAL` budget polls,
//! chunk commits in the dense engine, memo lookups in the optimizer,
//! cone prunes in branch-and-bound, fault trips and prefix salvage,
//! fusion steps and sizing terms, and certificate emission.
//!
//! # Zero cost when off
//!
//! The engine stores the sink as `Option<Arc<dyn TraceSink>>`. With no
//! sink (or the [`NullSink`]) attached, instrumentation reduces to one
//! branch per `POLL_INTERVAL` (1024) iterations or per chunk — below
//! measurement noise; the perfsuite `trace` section pins this at ≤ 2%.
//!
//! # Determinism when on
//!
//! The [`CollectingSink`] buffers events in per-thread shards and merges
//! them by a schedule-independent sort key — `(epoch, phase, nest, ord)`
//! with the canonical NDJSON line as the final tiebreak — so the merged
//! stream is bit-identical at every thread count. Engine code cooperates
//! by (a) assigning `ord` from deterministic quantities only (chunk
//! index, serial sequence numbers), (b) buffering chunk-local events and
//! flushing them only in chunk-commit order after a sweep *succeeds*,
//! and (c) emitting nothing schedule-dependent on failure paths beyond
//! the fire-once fault trip itself. Wall-clock micros are carried on
//! span ends for the human-readable report but are **excluded** from the
//! canonical NDJSON rendering.
//!
//! # Quickstart
//!
//! ```
//! use loopmem_obs::{CollectingSink, EventKind, Phase, TraceEvent, TraceSink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(CollectingSink::new());
//! sink.begin_epoch();
//! sink.record(TraceEvent {
//!     phase: Phase::Pass1,
//!     nest: Some(0),
//!     ord: (0, 0),
//!     kind: EventKind::Poll { delta: 1024 },
//! });
//! let report = sink.drain();
//! assert_eq!(report.counters.polls, 1);
//! assert_eq!(report.counters.charged_iterations, 1024);
//! ```

mod collect;
mod report;

pub use collect::CollectingSink;
pub use report::{TraceCounters, TraceReport};

/// Engine phase an event belongs to. The discriminant order is the
/// canonical sort order used by the deterministic merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Source parsing and static classification.
    Parse,
    /// Dense engine pass 1: first/last touch tables.
    Pass1,
    /// Dense engine pass 2: the window fold over first/last stamps.
    Pass2,
    /// Transformation search (candidate enumeration, memo, B&B).
    Search,
    /// Scratchpad sizing and fusion.
    Sizing,
    /// Certificate emission and checking.
    Verify,
}

impl Phase {
    /// Stable lower-case label used in the NDJSON rendering.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Pass1 => "pass1",
            Phase::Pass2 => "pass2",
            Phase::Search => "search",
            Phase::Sizing => "sizing",
            Phase::Verify => "verify",
        }
    }
}

/// What happened. Payloads carry only the quantities the engine can
/// derive deterministically at the emission site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A phase-scoped span opened (e.g. one nest's pass-1 sweep).
    SpanBegin {
        /// Static span label, e.g. `"pass1"` or `"fusion-search"`.
        label: &'static str,
    },
    /// The matching span closed. `micros` is wall-clock and excluded
    /// from the canonical rendering; `charged` is the governed
    /// iteration/node count attributed to the span and is canonical.
    SpanEnd {
        /// Static span label matching the [`EventKind::SpanBegin`].
        label: &'static str,
        /// Wall-clock duration — informational, not canonical.
        micros: u64,
        /// Charged iterations (or search nodes) attributed to the span.
        charged: u64,
    },
    /// A `POLL_INTERVAL` budget poll charged `delta` iterations.
    Poll {
        /// Iterations charged at this poll site.
        delta: u64,
    },
    /// A dense-engine chunk was folded into the merge state.
    ChunkCommit {
        /// First outer-loop value of the chunk (inclusive).
        lo: i64,
        /// Last outer-loop value of the chunk (inclusive).
        hi: i64,
        /// Iterations the chunk executed.
        iters: u64,
    },
    /// One canonical-key memo probe in the optimizer.
    MemoLookup {
        /// Whether the probe hit.
        hit: bool,
    },
    /// Branch-and-bound discarded boxes under a rank-1 dependence cone.
    ConePrune {
        /// Boxes discarded by the cone certificate.
        boxes: u64,
        /// Nodes the search explored.
        explored: u64,
        /// Nodes pruned by bounding (cone prunes included).
        pruned: u64,
    },
    /// An injected fault fired (fire-once, keyed to the charged-iteration
    /// threshold, so deterministic at every thread count).
    FaultTrip {
        /// Fault kind label from `FaultKind`.
        kind: &'static str,
        /// The plan's poll threshold.
        at_poll: u64,
    },
    /// A governed failure salvaged a deterministic prefix bound.
    Salvage {
        /// Iterations the salvage sweep replayed.
        iterations: u64,
        /// The salvaged lower bound on MWS.
        lower: u64,
    },
    /// One per-nest term of a scratchpad sizing.
    SizingTerm {
        /// The nest's maximum window size.
        mws: u64,
        /// Words live through (but not accessed by) the nest.
        live_through: u64,
    },
    /// One accepted step of the greedy fusion search.
    FusionStep {
        /// Nest index the step fused at.
        at: u64,
        /// Scratchpad words before the step.
        before: u64,
        /// Scratchpad words after the step.
        after: u64,
    },
    /// A certificate was emitted.
    Certificate {
        /// Certificate kind label, e.g. `"legality"` or `"bounds"`.
        kind: &'static str,
    },
}

impl EventKind {
    /// Stable kebab-case label used in the NDJSON rendering.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::SpanBegin { .. } => "span-begin",
            EventKind::SpanEnd { .. } => "span-end",
            EventKind::Poll { .. } => "poll",
            EventKind::ChunkCommit { .. } => "chunk-commit",
            EventKind::MemoLookup { .. } => "memo-lookup",
            EventKind::ConePrune { .. } => "cone-prune",
            EventKind::FaultTrip { .. } => "fault-trip",
            EventKind::Salvage { .. } => "salvage",
            EventKind::SizingTerm { .. } => "sizing-term",
            EventKind::FusionStep { .. } => "fusion-step",
            EventKind::Certificate { .. } => "certificate",
        }
    }
}

/// One observability event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Engine phase the event belongs to.
    pub phase: Phase,
    /// Program nest index, when the event is nest-scoped.
    pub nest: Option<u32>,
    /// Deterministic ordering key *within* `(epoch, phase, nest)`:
    /// engine code assigns this from schedule-independent quantities
    /// only (chunk index, serial sequence number), never from timing.
    pub ord: (u64, u64),
    /// The payload.
    pub kind: EventKind,
}

impl TraceEvent {
    /// The canonical single-line JSON rendering of this event: every
    /// schedule-independent field, and **only** those (no wall-clock
    /// micros). This is both the NDJSON output format and the
    /// final tiebreak of the deterministic merge.
    pub fn canonical_line(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"phase\":\"");
        s.push_str(self.phase.label());
        s.push_str("\",\"nest\":");
        match self.nest {
            Some(n) => s.push_str(&n.to_string()),
            None => s.push_str("null"),
        }
        s.push_str(",\"ord\":[");
        s.push_str(&self.ord.0.to_string());
        s.push(',');
        s.push_str(&self.ord.1.to_string());
        s.push_str("],\"event\":\"");
        s.push_str(self.kind.label());
        s.push('"');
        match &self.kind {
            EventKind::SpanBegin { label } => {
                push_str_field(&mut s, "label", label);
            }
            EventKind::SpanEnd { label, charged, .. } => {
                push_str_field(&mut s, "label", label);
                push_u64_field(&mut s, "charged", *charged);
            }
            EventKind::Poll { delta } => push_u64_field(&mut s, "delta", *delta),
            EventKind::ChunkCommit { lo, hi, iters } => {
                push_i64_field(&mut s, "lo", *lo);
                push_i64_field(&mut s, "hi", *hi);
                push_u64_field(&mut s, "iters", *iters);
            }
            EventKind::MemoLookup { hit } => {
                s.push_str(",\"hit\":");
                s.push_str(if *hit { "true" } else { "false" });
            }
            EventKind::ConePrune {
                boxes,
                explored,
                pruned,
            } => {
                push_u64_field(&mut s, "boxes", *boxes);
                push_u64_field(&mut s, "explored", *explored);
                push_u64_field(&mut s, "pruned", *pruned);
            }
            EventKind::FaultTrip { kind, at_poll } => {
                push_str_field(&mut s, "kind", kind);
                push_u64_field(&mut s, "at_poll", *at_poll);
            }
            EventKind::Salvage { iterations, lower } => {
                push_u64_field(&mut s, "iterations", *iterations);
                push_u64_field(&mut s, "lower", *lower);
            }
            EventKind::SizingTerm { mws, live_through } => {
                push_u64_field(&mut s, "mws", *mws);
                push_u64_field(&mut s, "live_through", *live_through);
            }
            EventKind::FusionStep { at, before, after } => {
                push_u64_field(&mut s, "at", *at);
                push_u64_field(&mut s, "before", *before);
                push_u64_field(&mut s, "after", *after);
            }
            EventKind::Certificate { kind } => push_str_field(&mut s, "kind", kind),
        }
        s.push('}');
        s
    }
}

fn push_u64_field(s: &mut String, key: &str, v: u64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

fn push_i64_field(s: &mut String, key: &str, v: i64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

fn push_str_field(s: &mut String, key: &str, v: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":\"");
    // Labels are static kebab-case identifiers today, but escape anyway
    // so the line is valid JSON for any future payload.
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

/// Destination for engine trace events.
///
/// Implementations must be cheap when disabled: the engine guards every
/// emission site with [`TraceSink::enabled`], so a `false` return keeps
/// the hot path to a single predictable branch.
pub trait TraceSink: Send + Sync {
    /// Whether the sink wants events at all. The engine skips event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool;

    /// Record one event.
    fn record(&self, event: TraceEvent);

    /// Record a pre-ordered batch (e.g. one chunk's buffered events,
    /// flushed at commit). The default forwards to [`TraceSink::record`].
    fn record_all(&self, events: Vec<TraceEvent>) {
        for e in events {
            self.record(e);
        }
    }

    /// Open a new epoch: events recorded after this call sort strictly
    /// after events recorded before it. The engine calls this once per
    /// top-level operation (per nest sweep, per search, per sizing).
    fn begin_epoch(&self) {}
}

/// The no-op sink: [`TraceSink::enabled`] is `false` and every record is
/// discarded. Attaching it is indistinguishable from attaching nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}

    fn record_all(&self, _events: Vec<TraceEvent>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_line_excludes_thread() {
        // Events carry no worker id, so the line has no thread field.
        let e = TraceEvent {
            phase: Phase::Pass1,
            nest: Some(3),
            ord: (1, 2),
            kind: EventKind::Poll { delta: 1024 },
        };
        assert_eq!(
            e.canonical_line(),
            "{\"phase\":\"pass1\",\"nest\":3,\"ord\":[1,2],\"event\":\"poll\",\"delta\":1024}"
        );
    }

    #[test]
    fn canonical_line_excludes_span_micros() {
        let mk = |micros| TraceEvent {
            phase: Phase::Search,
            nest: None,
            ord: (0, 0),
            kind: EventKind::SpanEnd {
                label: "search",
                micros,
                charged: 250,
            },
        };
        assert_eq!(mk(1).canonical_line(), mk(999_999).canonical_line());
        assert!(mk(1).canonical_line().contains("\"charged\":250"));
        assert!(!mk(1).canonical_line().contains("micros"));
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.record(TraceEvent {
            phase: Phase::Parse,
            nest: None,
            ord: (0, 0),
            kind: EventKind::SpanBegin { label: "parse" },
        });
    }
}
