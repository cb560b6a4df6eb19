//! The collecting sink: one event buffer, drained into a deterministic
//! event stream.

use crate::report::TraceReport;
use crate::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A sink that buffers events and sorts them into a schedule-independent
/// order on [`CollectingSink::drain`]. Engines record in batches (one
/// per committed sweep, span or search), so one lock serves every thread.
///
/// # Determinism
///
/// The drain sorts by `(epoch, phase, nest, ord, canonical_line)` —
/// every component is schedule-independent (the engine assigns `ord`
/// from chunk indices and serial sequence numbers; the canonical line
/// excludes thread ids and wall-clock). Two runs of the same governed
/// operation at different thread counts therefore drain to bit-identical
/// reports, which chaos oracle 6 and the perfsuite trace section pin.
pub struct CollectingSink {
    events: Mutex<Vec<(u64, TraceEvent)>>,
    epoch: AtomicU64,
}

impl CollectingSink {
    /// An empty sink at epoch 0.
    pub fn new() -> Self {
        CollectingSink {
            events: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(0),
        }
    }

    /// The buffer. Every update is one `extend` or `take`, which leaves
    /// it valid even if a recording thread panicked, so a poisoned lock
    /// is recovered instead of dropping the stream.
    fn buffer(&self) -> MutexGuard<'_, Vec<(u64, TraceEvent)>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buffer().len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take every buffered event, sort deterministically, and build the
    /// report. The sink is left empty (epoch is *not* reset, so a drained
    /// sink can keep collecting with strictly later epochs).
    pub fn drain(&self) -> TraceReport {
        let mut all = std::mem::take(&mut *self.buffer());
        all.sort_by(|(ea, a), (eb, b)| {
            (*ea, a.phase, a.nest, a.ord)
                .cmp(&(*eb, b.phase, b.nest, b.ord))
                .then_with(|| a.canonical_line().cmp(&b.canonical_line()))
        });
        TraceReport::from_events(all.into_iter().map(|(_, e)| e).collect())
    }
}

impl Default for CollectingSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for CollectingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        self.record_all(vec![event]);
    }

    fn record_all(&self, events: Vec<TraceEvent>) {
        let epoch = self.epoch.load(Ordering::Acquire);
        self.buffer().extend(events.into_iter().map(|e| (epoch, e)));
    }

    fn begin_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, Phase};

    fn poll(nest: u32, ord: (u64, u64)) -> TraceEvent {
        TraceEvent {
            phase: Phase::Pass1,
            nest: Some(nest),
            ord,
            kind: EventKind::Poll { delta: 1024 },
        }
    }

    #[test]
    fn merge_is_schedule_independent() {
        // Same logical events recorded in two different arrival orders
        // (as different thread interleavings would produce) drain to the
        // same NDJSON bytes.
        let a = CollectingSink::new();
        a.begin_epoch();
        a.record(poll(0, (0, 0)));
        a.record(poll(0, (2, 0)));
        a.record(poll(0, (1, 0)));

        let b = CollectingSink::new();
        b.begin_epoch();
        b.record(poll(0, (2, 0)));
        b.record(poll(0, (1, 0)));
        b.record(poll(0, (0, 0)));

        assert_eq!(a.drain().render_ndjson(), b.drain().render_ndjson());
    }

    #[test]
    fn epochs_order_operations() {
        let s = CollectingSink::new();
        s.begin_epoch();
        s.record(poll(1, (9, 9)));
        s.begin_epoch();
        s.record(poll(0, (0, 0)));
        let report = s.drain();
        // Epoch 1's nest-1 event sorts before epoch 2's nest-0 event.
        assert_eq!(report.events[0].nest, Some(1));
        assert_eq!(report.events[1].nest, Some(0));
        assert!(s.is_empty());
    }

    #[test]
    fn cross_thread_recording_is_deterministic() {
        let runs: Vec<String> = (0..2)
            .map(|_| {
                let s = std::sync::Arc::new(CollectingSink::new());
                s.begin_epoch();
                std::thread::scope(|scope| {
                    for t in 0..4u64 {
                        let s = &s;
                        scope.spawn(move || {
                            for k in 0..8u64 {
                                s.record(poll(0, (t, k)));
                            }
                        });
                    }
                });
                s.drain().render_ndjson()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }
}
