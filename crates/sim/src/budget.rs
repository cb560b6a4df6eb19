//! Resource governance: analysis budgets, cancellation, and the analytical
//! fallback bounds the engines degrade to when a budget trips.
//!
//! [`AnalysisBudget`] is a declarative limit set — wall-clock timeout,
//! iteration cap, touch-table byte cap, and an optional shared
//! [`CancelToken`]. A budget is inert data; each governed run
//! materializes it into a [`BudgetTracker`] (which resolves the timeout to a
//! deadline and owns the shared atomic counters) and polls the tracker at
//! bounded intervals: every [`POLL_INTERVAL`] iterations inside a sweep
//! chunk, at every chunk boundary in the work-stealing loop, per candidate
//! in the transformation search, per box in its branch and bound, and per
//! nest in the program engines.
//!
//! When a trip is observed the engine abandons exact simulation and returns
//! [`AnalysisError::Exhausted`] carrying [`analytic_nest_bounds`] — a purely
//! interval-analytic enclosure of the answer that does not depend on how far
//! the sweep got, so the payload is bit-identical for every thread count and
//! steal order.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use loopmem_ir::{Bounds, BoundsMethod, LoopNest, TripReason};
use loopmem_obs::{EventKind, Phase, TraceEvent, TraceSink};

use crate::faults::FaultPlan;

/// How many swept iterations a chunk accumulates locally before charging
/// them to the shared tracker and polling for trips. Small enough that tight
/// caps (`max_iterations = 1000`) trip on small nests and cancellation is
/// observed well within one chunk; large enough that the shared atomic is
/// off the hot path.
pub const POLL_INTERVAL: u32 = 1024;

/// Shared cooperative-cancellation flag.
///
/// Cloning shares the flag; any clone can [`cancel`](CancelToken::cancel)
/// and every governed engine polling a budget holding the token observes it
/// within one [`POLL_INTERVAL`] of work.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flags the token; every holder observes it at its next poll.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once any clone has called [`cancel`](CancelToken::cancel).
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declarative resource limits for one analysis. All limits default to
/// unlimited; builder methods tighten them.
#[derive(Clone, Default)]
pub struct AnalysisBudget {
    timeout: Option<Duration>,
    max_iterations: Option<u64>,
    max_table_bytes: Option<u64>,
    cancel: Option<CancelToken>,
    fault: Option<Arc<FaultPlan>>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for AnalysisBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisBudget")
            .field("timeout", &self.timeout)
            .field("max_iterations", &self.max_iterations)
            .field("max_table_bytes", &self.max_table_bytes)
            .field("cancel", &self.cancel)
            .field("fault", &self.fault)
            .field("trace", &self.trace.as_ref().map(|s| s.enabled()))
            .finish()
    }
}

impl AnalysisBudget {
    /// No limits: every governed run completes exactly (or reports a typed
    /// overflow or contained panic), never a budget trip.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps wall-clock time; the deadline is resolved when the run starts.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Caps total swept iterations (shared across every nest and thread of
    /// the run).
    pub fn with_max_iterations(mut self, n: u64) -> Self {
        self.max_iterations = Some(n);
        self
    }

    /// Caps bytes of touch tables the planner may allocate; plans over the
    /// cap demote arrays to the sparse (hashmap) path, which is in turn
    /// governed by `max_iterations`.
    pub fn with_max_table_bytes(mut self, n: u64) -> Self {
        self.max_table_bytes = Some(n);
        self
    }

    /// Attaches a shared cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a deterministic fault-injection plan
    /// ([`FaultPlan`](crate::faults::FaultPlan)); the materialized tracker
    /// consults it at every poll and at the planner / nest-entry hooks.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attaches a trace sink ([`loopmem_obs::TraceSink`]); the materialized
    /// tracker carries it to every instrumentation seam the run crosses.
    /// A disabled sink (the [`loopmem_obs::NullSink`]) is indistinguishable
    /// from attaching nothing — the engine keeps its fast paths.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The attached trace sink, when one is present *and enabled*.
    pub fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace.as_ref().filter(|s| s.enabled())
    }
}

/// One run's live view of an [`AnalysisBudget`]: every limit of the budget,
/// shared atomic counters and the resolved deadline. Create one per
/// governed run and share it (by reference) across the run's worker
/// threads; it is the only budget object the engines read.
pub struct BudgetTracker {
    deadline: Option<Instant>,
    max_iterations: Option<u64>,
    max_table_bytes: Option<u64>,
    iterations: AtomicU64,
    cancel: Option<CancelToken>,
    fault: Option<Arc<FaultPlan>>,
    trace: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for BudgetTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BudgetTracker")
            .field("deadline", &self.deadline)
            .field("max_iterations", &self.max_iterations)
            .field("max_table_bytes", &self.max_table_bytes)
            .field("iterations", &self.iterations)
            .field("cancel", &self.cancel)
            .field("fault", &self.fault)
            .field("trace", &self.trace.as_ref().map(|s| s.enabled()))
            .finish()
    }
}

impl BudgetTracker {
    /// Materializes a budget: resolves `timeout` against the current clock.
    pub fn new(budget: &AnalysisBudget) -> Self {
        BudgetTracker {
            deadline: budget.timeout.map(|t| Instant::now() + t),
            max_iterations: budget.max_iterations,
            max_table_bytes: budget.max_table_bytes,
            iterations: AtomicU64::new(0),
            cancel: budget.cancel.clone(),
            fault: budget.fault.clone(),
            trace: budget.trace().cloned(),
        }
    }

    /// The attached (enabled) trace sink, if any. Engines guard every
    /// emission site on this being `Some`, so the untraced path keeps a
    /// single predictable branch.
    pub fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        self.trace.as_ref()
    }

    /// A tracker that never trips.
    pub fn unlimited() -> Self {
        Self::new(&AnalysisBudget::unlimited())
    }

    /// The iteration cap, if any (the search's pre-flight refuses a nest
    /// whose exact iteration count already exceeds it).
    pub fn max_iterations(&self) -> Option<u64> {
        self.max_iterations
    }

    /// The touch-table byte cap, if any: it tightens the planner's dense
    /// table budget and gates the pass-2 fold's scratch.
    pub(crate) fn max_table_bytes(&self) -> Option<u64> {
        self.max_table_bytes
    }

    /// Charges `n` swept iterations and polls. Trip checks are ordered so
    /// the deterministic limits (cancellation, iteration cap) are reported
    /// before the wall-clock one.
    pub fn charge_iterations(&self, n: u64) -> Result<(), TripReason> {
        self.iterations.fetch_add(n, Ordering::Relaxed);
        self.check()
    }

    /// Polls every limit without charging new work. An attached fault plan
    /// is consulted first (against the cumulative charged-iteration
    /// counter, which is monotone and schedule-independent) so injected
    /// trips land at an exact logical position regardless of which real
    /// limits are also set and how work was divided across threads.
    pub fn check(&self) -> Result<(), TripReason> {
        if let Some(plan) = &self.fault {
            let charged = self.iterations.load(Ordering::Relaxed);
            if let Some(reason) = plan.observe(charged, self.cancel.as_ref()) {
                if plan.take_trip_log() {
                    self.trace_fault_trip(plan);
                }
                return Err(reason);
            }
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Err(TripReason::Cancelled);
            }
        }
        if let Some(cap) = self.max_iterations {
            if self.iterations.load(Ordering::Relaxed) > cap {
                return Err(TripReason::MaxIterations);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(TripReason::Deadline);
            }
        }
        Ok(())
    }

    /// Total iterations charged so far.
    pub fn iterations_charged(&self) -> u64 {
        self.iterations.load(Ordering::Relaxed)
    }

    /// True when a trip can fire at a position in the cumulative
    /// charged-iteration stream (an iteration cap or an injected fault):
    /// which of several nests swept side by side reaches that position
    /// first then depends on the schedule.
    pub fn trips_on_count(&self) -> bool {
        self.max_iterations.is_some() || self.fault.is_some()
    }

    /// True when an attached fault plan demands the planner reject every
    /// per-array touch table (forced `max_table_bytes` rejection).
    pub(crate) fn fault_reject_tables(&self) -> bool {
        self.fault.as_ref().is_some_and(|p| p.reject_tables())
    }

    /// Emits the fire-once [`EventKind::FaultTrip`] event for an attached
    /// plan. The payload is derived from the plan alone (kind label and
    /// poll threshold), never from run progress, so the event is
    /// bit-identical at every thread count.
    fn trace_fault_trip(&self, plan: &FaultPlan) {
        if let Some(sink) = &self.trace {
            sink.record(TraceEvent {
                phase: Phase::Pass1,
                nest: None,
                ord: (plan.at_poll(), 0),
                kind: EventKind::FaultTrip {
                    kind: plan.kind().label(),
                    at_poll: plan.at_poll(),
                },
            });
        }
    }

    /// True exactly once when an attached fault plan targets `nest_index`
    /// with an injected panic; the caller panics inside its `catch_unwind`.
    pub(crate) fn fault_take_panic(&self, nest_index: usize) -> bool {
        let hit = self
            .fault
            .as_ref()
            .is_some_and(|p| p.take_panic(nest_index));
        if hit {
            if let Some(plan) = &self.fault {
                self.trace_fault_trip(plan);
            }
        }
        hit
    }

    /// True exactly once, at the first consultation where the cumulative
    /// charged-iteration counter has reached the attached fault plan's
    /// threshold: the dense sweep must take its u32 time-stamp exhaustion
    /// branch. The counter is monotone and every charge is followed by a
    /// consultation, so whether the fault lands is thread-count invariant.
    pub(crate) fn fault_take_overflow(&self) -> bool {
        let hit = self
            .fault
            .as_ref()
            .is_some_and(|p| p.take_overflow(self.iterations.load(Ordering::Relaxed)));
        if hit {
            if let Some(plan) = &self.fault {
                self.trace_fault_trip(plan);
            }
        }
        hit
    }

    /// The deterministic iteration quota a salvage pass may re-sweep after a
    /// trip for `reason`, or `None` when the trip has no deterministic
    /// logical position (deadline, table caps, real cancellation). An
    /// injected poll fault defines the quota as N × POLL_INTERVAL; a real
    /// iteration-cap trip uses the cap itself.
    pub(crate) fn salvage_quota(&self, reason: TripReason) -> Option<u64> {
        if !matches!(reason, TripReason::MaxIterations | TripReason::Cancelled) {
            return None;
        }
        if let Some(q) = self
            .fault
            .as_ref()
            .and_then(|p| p.trip_quota(self.iterations.load(Ordering::Relaxed)))
        {
            return Some(q);
        }
        match reason {
            TripReason::MaxIterations => self.max_iterations,
            _ => None,
        }
    }
}

/// Conservative estimate of the nest's iteration count from interval
/// analysis of the loop bounds (saturating; `u128::MAX` means "huge").
pub(crate) fn estimated_iterations_of(nest: &LoopNest) -> u128 {
    match nest.var_ranges() {
        None => 0,
        Some(vr) => vr.iter().fold(1u128, |acc, &(lo, hi)| {
            acc.saturating_mul((hi as i128 - lo as i128 + 1).max(0) as u128)
        }),
    }
}

/// Analytical MWS bounds for one nest, independent of any simulation
/// progress (so `Exhausted` payloads are deterministic across thread counts
/// and steal orders).
///
/// The window can never exceed the number of distinct elements touched, and
/// for each array that is bounded by both its union subscript box (every
/// reference's per-dimension interval, unioned, from §3's bounding-box view)
/// and by `iterations × references` (each executed access touches one
/// element). The lower bound is the trivial 0 — a budget trip makes no
/// claim about how much of the window materialized.
pub fn analytic_nest_bounds(nest: &LoopNest) -> Bounds {
    let iters = estimated_iterations_of(nest);
    let narrays = nest.arrays().len();
    let mut upper: u128 = 0;
    if iters > 0 {
        let vr = nest
            .var_ranges()
            .expect("iters > 0 implies non-empty ranges");
        for a in 0..narrays {
            let mut cells: u128 = 0;
            let mut refs: u128 = 0;
            for st in nest.statements() {
                for r in st.refs() {
                    if r.array.0 != a {
                        continue;
                    }
                    refs += 1;
                    let mut box_cells: u128 = 1;
                    for (lo, hi) in r.index_ranges(&vr) {
                        box_cells =
                            box_cells.saturating_mul((hi as i128 - lo as i128 + 1).max(0) as u128);
                    }
                    cells = cells.saturating_add(box_cells);
                }
            }
            upper = upper.saturating_add(cells.min(iters.saturating_mul(refs)));
        }
    }
    Bounds {
        lower: 0,
        upper: u64::try_from(upper).unwrap_or(u64::MAX),
        method: BoundsMethod::UnionBox,
    }
}

/// Program-level analytical MWS bounds: the whole-program window is at most
/// the sum of every nest's distinct-element upper bound.
pub fn analytic_program_bounds(program: &loopmem_ir::Program) -> Bounds {
    let mut upper: u64 = 0;
    for nest in program.nests() {
        upper = upper.saturating_add(analytic_nest_bounds(nest).upper);
    }
    Bounds {
        lower: 0,
        upper,
        method: BoundsMethod::UnionBox,
    }
}

/// Extracts a human-readable message from a caught panic payload — the
/// string `panic!` was invoked with, or a placeholder for non-string
/// payloads. Governed callers use it to fill
/// [`AnalysisError::NestPanicked`](loopmem_ir::AnalysisError)'s message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let t = BudgetTracker::unlimited();
        for _ in 0..10 {
            assert!(t.charge_iterations(1 << 40).is_ok());
        }
    }

    #[test]
    fn iteration_cap_trips() {
        let t = BudgetTracker::new(&AnalysisBudget::unlimited().with_max_iterations(1000));
        assert!(t.charge_iterations(1000).is_ok());
        assert_eq!(t.charge_iterations(1), Err(TripReason::MaxIterations));
    }

    #[test]
    fn zero_timeout_trips_immediately() {
        let t = BudgetTracker::new(&AnalysisBudget::unlimited().with_timeout(Duration::ZERO));
        assert_eq!(t.check(), Err(TripReason::Deadline));
    }

    #[test]
    fn cancellation_is_shared_and_ordered_first() {
        let token = CancelToken::new();
        let budget = AnalysisBudget::unlimited()
            .with_cancel_token(token.clone())
            .with_max_iterations(0)
            .with_timeout(Duration::ZERO);
        let t = BudgetTracker::new(&budget);
        token.cancel();
        assert_eq!(t.charge_iterations(10), Err(TripReason::Cancelled));
    }

    #[test]
    fn nest_bounds_enclose_tiny_nest() {
        let nest = loopmem_ir::parse("array A[10]\nfor i = 1 to 10 { A[i - 1]; }").unwrap();
        let b = analytic_nest_bounds(&nest);
        // Exact MWS of a single-touch streaming nest is 1; distinct = 10.
        assert!(b.lower <= 1 && b.upper >= 10);
        assert_eq!(b.method, BoundsMethod::UnionBox);
    }

    #[test]
    fn empty_nest_bounds_are_zero() {
        let nest = loopmem_ir::parse("array A[10]\nfor i = 5 to 4 { A[i]; }").unwrap();
        let b = analytic_nest_bounds(&nest);
        assert_eq!((b.lower, b.upper), (0, 0));
    }
}
