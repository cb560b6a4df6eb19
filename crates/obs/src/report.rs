//! Aggregated trace reports: counters derived from the event stream,
//! rendered as text or NDJSON.

use crate::{EventKind, Phase, TraceEvent};

/// Counters aggregated from an event stream. Every field is *derived*
/// from the events at report time — there is no second bookkeeping path
/// to drift out of sync, which is what lets CI assert internal
/// consistency (e.g. `memo_hits + memo_misses == memo_lookups`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Spans opened (`span-begin` events).
    pub spans: u64,
    /// Budget polls observed.
    pub polls: u64,
    /// Iterations charged across all polls.
    pub charged_iterations: u64,
    /// Dense-engine chunks committed.
    pub chunks_committed: u64,
    /// Iterations executed by committed chunks.
    pub chunk_iterations: u64,
    /// Memo probes (`memo-lookup` events).
    pub memo_lookups: u64,
    /// Memo probes that hit.
    pub memo_hits: u64,
    /// Memo probes that missed.
    pub memo_misses: u64,
    /// Always 0: no event feeds it. It stays in the counters line for
    /// readers that still record it.
    pub cone_boxes: u64,
    /// Injected faults that fired.
    pub fault_trips: u64,
    /// Salvaged prefix bounds.
    pub salvages: u64,
    /// Scratchpad sizing terms.
    pub sizing_terms: u64,
    /// Accepted fusion steps.
    pub fusion_steps: u64,
    /// Certificates emitted.
    pub certificates: u64,
}

impl TraceCounters {
    /// Derive counters from `events`.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut c = TraceCounters::default();
        for e in events {
            match &e.kind {
                EventKind::SpanBegin { .. } => c.spans += 1,
                EventKind::SpanEnd { .. } | EventKind::RowSearch { .. } => {}
                EventKind::Poll { delta } => {
                    c.polls += 1;
                    c.charged_iterations += delta;
                }
                EventKind::ChunkCommit { iters, .. } => {
                    c.chunks_committed += 1;
                    c.chunk_iterations += iters;
                }
                EventKind::MemoLookup { hit } => {
                    c.memo_lookups += 1;
                    if *hit {
                        c.memo_hits += 1;
                    } else {
                        c.memo_misses += 1;
                    }
                }
                EventKind::FaultTrip { .. } => c.fault_trips += 1,
                EventKind::Salvage { .. } => c.salvages += 1,
                EventKind::SizingTerm { .. } => c.sizing_terms += 1,
                EventKind::FusionStep { .. } => c.fusion_steps += 1,
                EventKind::Certificate { .. } => c.certificates += 1,
            }
        }
        c
    }

    /// The canonical single-line JSON rendering (fixed key order).
    pub fn canonical_line(&self) -> String {
        format!(
            "{{\"counters\":{{\"spans\":{},\"polls\":{},\"charged_iterations\":{},\
             \"chunks_committed\":{},\"chunk_iterations\":{},\"memo_lookups\":{},\
             \"memo_hits\":{},\"memo_misses\":{},\"cone_boxes\":{},\"fault_trips\":{},\
             \"salvages\":{},\"sizing_terms\":{},\"fusion_steps\":{},\"certificates\":{}}}}}",
            self.spans,
            self.polls,
            self.charged_iterations,
            self.chunks_committed,
            self.chunk_iterations,
            self.memo_lookups,
            self.memo_hits,
            self.memo_misses,
            self.cone_boxes,
            self.fault_trips,
            self.salvages,
            self.sizing_terms,
            self.fusion_steps,
            self.certificates,
        )
    }
}

/// A drained, deterministically ordered event stream plus its derived
/// counters.
#[derive(Clone, Debug, Default)]
pub struct TraceReport {
    /// Events in canonical merge order.
    pub events: Vec<TraceEvent>,
    /// Counters derived from `events`.
    pub counters: TraceCounters,
}

impl TraceReport {
    /// Build a report from an already canonically ordered event stream.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let counters = TraceCounters::from_events(&events);
        TraceReport { events, counters }
    }

    /// NDJSON rendering: a header line, one canonical line per event,
    /// and a trailing counters line. Bit-identical across thread counts
    /// for deterministic operations (no thread ids, no wall-clock).
    pub fn render_ndjson(&self) -> String {
        let mut out = String::with_capacity(64 + 96 * self.events.len());
        out.push_str(&format!(
            "{{\"suite\":\"loopmem-trace\",\"version\":1,\"events\":{}}}\n",
            self.events.len()
        ));
        for e in &self.events {
            out.push_str(&e.canonical_line());
            out.push('\n');
        }
        out.push_str(&self.counters.canonical_line());
        out.push('\n');
        out
    }

    /// Human-readable rendering: per-phase event totals followed by the
    /// counters. Wall-clock span totals are included here (and only
    /// here — the NDJSON stays canonical).
    pub fn render_text(&self) -> String {
        const PHASES: [Phase; 6] = [
            Phase::Parse,
            Phase::Pass1,
            Phase::Pass2,
            Phase::Search,
            Phase::Sizing,
            Phase::Verify,
        ];
        let mut out = String::new();
        out.push_str(&format!("trace: {} events\n", self.events.len()));
        out.push_str("phase    events  charged      span-micros\n");
        for phase in PHASES {
            let mut events = 0u64;
            let mut charged = 0u64;
            let mut micros = 0u64;
            for e in self.events.iter().filter(|e| e.phase == phase) {
                events += 1;
                match &e.kind {
                    EventKind::Poll { delta } => charged += delta,
                    EventKind::SpanEnd { micros: m, .. } => micros += m,
                    _ => {}
                }
            }
            if events > 0 {
                out.push_str(&format!(
                    "{:<8} {:>6}  {:>11}  {:>11}\n",
                    phase.label(),
                    events,
                    charged,
                    micros
                ));
            }
        }
        let c = &self.counters;
        out.push_str(&format!(
            "polls {} (charged {}) · chunks {} (iters {}) · memo {}/{} hit · \
             faults {} · salvages {} · sizing terms {} · fusion steps {} · \
             certificates {}\n",
            c.polls,
            c.charged_iterations,
            c.chunks_committed,
            c.chunk_iterations,
            c.memo_hits,
            c.memo_lookups,
            c.fault_trips,
            c.salvages,
            c.sizing_terms,
            c.fusion_steps,
            c.certificates,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> TraceEvent {
        TraceEvent {
            phase: Phase::Search,
            nest: Some(0),
            ord: (0, 0),
            kind,
        }
    }

    #[test]
    fn memo_counters_are_internally_consistent() {
        let events = vec![
            ev(EventKind::MemoLookup { hit: true }),
            ev(EventKind::MemoLookup { hit: false }),
            ev(EventKind::MemoLookup { hit: true }),
        ];
        let c = TraceCounters::from_events(&events);
        assert_eq!(c.memo_lookups, 3);
        assert_eq!(c.memo_hits + c.memo_misses, c.memo_lookups);
    }

    #[test]
    fn ndjson_has_header_events_and_counters() {
        let report = TraceReport::from_events(vec![ev(EventKind::Poll { delta: 7 })]);
        let nd = report.render_ndjson();
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"suite\":\"loopmem-trace\""));
        assert!(lines[1].contains("\"event\":\"poll\""));
        assert!(lines[2].starts_with("{\"counters\":"));
        assert!(lines[2].contains("\"charged_iterations\":7"));
    }

    #[test]
    fn text_report_names_active_phases_only() {
        let report = TraceReport::from_events(vec![ev(EventKind::Poll { delta: 7 })]);
        let text = report.render_text();
        assert!(text.contains("search"));
        assert!(!text.contains("sizing\n"));
    }
}
