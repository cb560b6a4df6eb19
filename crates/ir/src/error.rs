//! Typed analysis errors and analytical result bounds.
//!
//! Every governed entry point in the workspace (`loopmem_sim::try_simulate*`,
//! the `loopmem_core::Session` methods, ...) reports failure through
//! [`AnalysisError`] instead of panicking. The variants mirror the failure
//! modes of a governed analysis service:
//!
//! * [`AnalysisError::Exhausted`] — a resource budget tripped
//!   ([`TripReason`] says which one). The engine degrades gracefully: the
//!   `partial` payload carries analytical [`Bounds`] on the quantity that
//!   was being computed (§3 closed forms / union-box distinct-element
//!   bounds), tagged so callers know the answer is a bound, not exact.
//! * [`AnalysisError::Overflow`] — an intermediate value (subscript,
//!   iteration count, table size) left the representable range. Exact
//!   simulation of such a nest is meaningless; no bound is claimed.
//! * [`AnalysisError::Invalid`] — the input violates a precondition that
//!   legacy entry points `assert!` on.
//! * [`AnalysisError::NestPanicked`] — a nest's worker panicked and the
//!   panic was contained by `catch_unwind`; in multi-nest engines the rest
//!   of the program still completes.

use std::fmt;

/// How a [`Bounds`] value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundsMethod {
    /// Exact value (lower == upper) from a completed simulation.
    Exact,
    /// Union-box bound: per-array subscript interval boxes intersected with
    /// the iteration-count × reference-count cap (always applicable).
    UnionBox,
    /// §3 closed-form distinct-access estimate (full-rank / separable /
    /// rank-deficient formulas) where the hypotheses held cheaply.
    ClosedForm,
    /// Program-level composition: exact simulation of the successful subset
    /// of nests plus analytical bounds for the degraded ones.
    PartialProgram,
    /// Salvaged prefix: the lower bound is the exact maximum window size of
    /// a deterministic prefix of the lexicographic iteration stream, re-swept
    /// after a budget trip; the upper bound stays analytical. Within a stream
    /// prefix every recorded first touch is the element's true first touch
    /// and every recorded last touch is no later than its true last touch, so
    /// the prefix live count never exceeds the true live count — the prefix
    /// MWS is a valid (and usually much tighter) lower bound on the full MWS.
    SalvagedPrefix,
}

impl fmt::Display for BoundsMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundsMethod::Exact => write!(f, "exact"),
            BoundsMethod::UnionBox => write!(f, "union-box"),
            BoundsMethod::ClosedForm => write!(f, "closed-form"),
            BoundsMethod::PartialProgram => write!(f, "partial-program"),
            BoundsMethod::SalvagedPrefix => write!(f, "salvaged-prefix"),
        }
    }
}

/// Inclusive analytical bounds `lower <= answer <= upper` on a count (MWS,
/// distinct accesses, ...), tagged with the method that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bounds {
    /// Valid lower bound on the true value.
    pub lower: u64,
    /// Valid upper bound on the true value.
    pub upper: u64,
    /// How the interval was derived.
    pub method: BoundsMethod,
}

impl Bounds {
    /// A degenerate interval around a known-exact value.
    pub fn exact(value: u64) -> Self {
        Bounds {
            lower: value,
            upper: value,
            method: BoundsMethod::Exact,
        }
    }

    /// True when the interval pins a single value.
    pub fn is_exact(&self) -> bool {
        self.lower == self.upper
    }

    /// True when `value` lies inside the interval.
    pub fn contains(&self, value: u64) -> bool {
        self.lower <= value && value <= self.upper
    }

    /// Interval `[value, value + slack]`: a size commitment at the upper
    /// bound with `slack` words of possible over-provisioning.
    pub fn with_slack(value: u64, slack: u64, method: BoundsMethod) -> Self {
        Bounds {
            lower: value.saturating_sub(slack),
            upper: value,
            method,
        }
    }

    /// Width of the interval: how far the committed upper bound may sit
    /// above the true value (0 when exact).
    pub fn slack(&self) -> u64 {
        self.upper - self.lower
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_exact() {
            write!(f, "{} ({})", self.lower, self.method)
        } else {
            write!(f, "[{}, {}] ({})", self.lower, self.upper, self.method)
        }
    }
}

/// Which resource budget tripped first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripReason {
    /// The caller's cancel token was flagged.
    Cancelled,
    /// More iterations were swept than `max_iterations` allows.
    MaxIterations,
    /// The wall-clock deadline passed.
    Deadline,
    /// Touch tables would exceed `max_table_bytes`.
    MaxTableBytes,
}

impl fmt::Display for TripReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TripReason::Cancelled => write!(f, "cancelled"),
            TripReason::MaxIterations => write!(f, "max-iterations"),
            TripReason::Deadline => write!(f, "deadline"),
            TripReason::MaxTableBytes => write!(f, "max-table-bytes"),
        }
    }
}

/// Typed failure of a governed (`try_*`) analysis entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// A resource budget tripped; `partial` bounds the answer analytically.
    Exhausted {
        /// Which budget tripped.
        reason: TripReason,
        /// Analytical bounds on the quantity being computed.
        partial: Bounds,
    },
    /// Intermediate arithmetic (subscript evaluation, table sizing, time
    /// stamping) left the representable range.
    Overflow {
        /// Human-readable description of the overflowing computation.
        context: String,
    },
    /// A precondition on the input was violated.
    Invalid {
        /// What was wrong with the input.
        message: String,
    },
    /// A nest's analysis panicked; the panic was contained.
    NestPanicked {
        /// Index of the nest inside the program (0 for single-nest runs).
        nest: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl AnalysisError {
    /// The analytical bounds attached to an [`AnalysisError::Exhausted`].
    pub fn bounds(&self) -> Option<Bounds> {
        match self {
            AnalysisError::Exhausted { partial, .. } => Some(*partial),
            _ => None,
        }
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Exhausted { reason, partial } => {
                write!(f, "budget exhausted ({reason}); answer in {partial}")
            }
            AnalysisError::Overflow { context } => write!(f, "arithmetic overflow: {context}"),
            AnalysisError::Invalid { message } => write!(f, "invalid input: {message}"),
            AnalysisError::NestPanicked { nest, message } => {
                write!(f, "nest {nest} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_display_and_contains() {
        let b = Bounds {
            lower: 3,
            upper: 10,
            method: BoundsMethod::UnionBox,
        };
        assert!(b.contains(3) && b.contains(10) && !b.contains(11));
        assert!(!b.is_exact());
        assert_eq!(format!("{b}"), "[3, 10] (union-box)");
        let e = Bounds::exact(7);
        assert!(e.is_exact() && e.contains(7));
        assert_eq!(format!("{e}"), "7 (exact)");
    }

    #[test]
    fn error_display() {
        let err = AnalysisError::Exhausted {
            reason: TripReason::Deadline,
            partial: Bounds {
                lower: 0,
                upper: 100,
                method: BoundsMethod::UnionBox,
            },
        };
        assert_eq!(
            format!("{err}"),
            "budget exhausted (deadline); answer in [0, 100] (union-box)"
        );
        assert_eq!(err.bounds().unwrap().upper, 100);
        let err = AnalysisError::NestPanicked {
            nest: 2,
            message: "affine eval overflow".into(),
        };
        assert_eq!(format!("{err}"), "nest 2 panicked: affine eval overflow");
        assert!(err.bounds().is_none());
    }
}
