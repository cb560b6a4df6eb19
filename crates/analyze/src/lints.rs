//! The paper-grounded lints (`LM0001` … `LM0011`).
//!
//! Every lint is *static*: cost is polynomial in the nest description,
//! never in the iteration count, and every helper here is total on
//! untrusted input (i128 interval arithmetic with saturation instead of
//! the simulator's checked/panicking i64 paths). The lints predict, before
//! any simulation, exactly the failures PR 3's governed engine would
//! discover dynamically — `Overflow` ([`LM0009`](self)), `Exhausted`
//! ([`LM0010`](self)) — plus the §3/§4 structure facts that decide which
//! estimator applies.

use crate::diag::{Diagnostic, Severity};
use crate::CheckOptions;
use loopmem_core::{classify_formulas, Method};
use loopmem_dep::cone::{constraining_distances, tileable_row_rank, MAX_CONE_DEPTH};
use loopmem_dep::uniform::uniform_groups;
use loopmem_ir::{AccessKind, ArrayId, LoopNest, NestSpans, Span};
use loopmem_linalg::integer_nullspace;

/// Per-loop interval facts derived by one i128 sweep over the bounds.
pub(crate) struct RangeInfo {
    /// Conservative enclosure of each loop variable's value (clamped to
    /// i64 so downstream arithmetic stays representable).
    pub vr: Vec<(i128, i128)>,
    /// Per-loop: some bound expression's value range escapes i64.
    pub overflowing: Vec<bool>,
    /// Per-loop: the loop provably never executes.
    pub zero_trip: Vec<bool>,
    /// Saturating product of per-loop trip-count upper bounds.
    pub volume: u128,
}

const I64_MIN: i128 = i64::MIN as i128;
const I64_MAX: i128 = i64::MAX as i128;

fn div_floor_128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil_128(a: i128, b: i128) -> i128 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Interval of an affine expression over `vr`, accumulated term by term
/// the way `Affine::eval` does; the second return is `true` when *any
/// partial sum's* interval escapes i64 (so the simulator's i64 evaluation
/// could overflow even if the final value fits).
fn affine_interval(coeffs: &[i64], constant: i64, vr: &[(i128, i128)]) -> ((i128, i128), bool) {
    let mut lo = i128::from(constant);
    let mut hi = lo;
    let mut escapes = false;
    for (&c, &(a, b)) in coeffs.iter().zip(vr) {
        let c = i128::from(c);
        let (p, q) = if c >= 0 {
            (c.saturating_mul(a), c.saturating_mul(b))
        } else {
            (c.saturating_mul(b), c.saturating_mul(a))
        };
        lo = lo.saturating_add(p);
        hi = hi.saturating_add(q);
        if lo < I64_MIN || hi > I64_MAX {
            escapes = true;
        }
    }
    ((lo, hi), escapes)
}

/// One pass over the loop bounds: value enclosures, overflow prediction,
/// zero-trip detection, iteration volume. Never panics.
pub(crate) fn analyze_ranges(nest: &LoopNest) -> RangeInfo {
    let depth = nest.depth();
    let mut vr: Vec<(i128, i128)> = vec![(0, 0); depth];
    let mut overflowing = vec![false; depth];
    let mut zero_trip = vec![false; depth];
    let mut volume: u128 = 1;
    for (k, l) in nest.loops().iter().enumerate() {
        // Lower bound = max over pieces of ceil(expr / div).
        let mut lower: Option<(i128, i128)> = None;
        for p in l.lower.pieces() {
            let ((a, b), esc) = affine_interval(p.expr.coeffs(), p.expr.constant_term(), &vr);
            overflowing[k] |= esc;
            let d = i128::from(p.div.max(1));
            let (a, b) = (div_ceil_128(a, d), div_ceil_128(b, d));
            lower = Some(match lower {
                None => (a, b),
                Some((x, y)) => (x.max(a), y.max(b)),
            });
        }
        // Upper bound = min over pieces of floor(expr / div).
        let mut upper: Option<(i128, i128)> = None;
        for p in l.upper.pieces() {
            let ((a, b), esc) = affine_interval(p.expr.coeffs(), p.expr.constant_term(), &vr);
            overflowing[k] |= esc;
            let d = i128::from(p.div.max(1));
            let (a, b) = (div_floor_128(a, d), div_floor_128(b, d));
            upper = Some(match upper {
                None => (a, b),
                Some((x, y)) => (x.min(a), y.min(b)),
            });
        }
        let (lo_min, _lo_max) = lower.unwrap_or((0, 0));
        let (_up_min, up_max) = upper.unwrap_or((0, 0));
        if !(I64_MIN..=I64_MAX).contains(&lo_min) || !(I64_MIN..=I64_MAX).contains(&up_max) {
            overflowing[k] = true;
        }
        zero_trip[k] = up_max < lo_min;
        let width = (up_max.saturating_sub(lo_min).saturating_add(1)).max(0) as u128;
        volume = volume.saturating_mul(width);
        // Clamp the enclosure so later loops and subscripts stay in i128
        // comfort; an empty range collapses to a point.
        let lo = lo_min.clamp(I64_MIN, I64_MAX);
        let hi = up_max.clamp(lo, I64_MAX);
        vr[k] = (lo, hi);
    }
    RangeInfo {
        vr,
        overflowing,
        zero_trip,
        volume,
    }
}

fn fmt_vec(v: &[i64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("({})", parts.join(", "))
}

/// Span of the first reference to `array`, falling back to the nest span.
pub(crate) fn first_ref_span(nest: &LoopNest, spans: &NestSpans, array: ArrayId) -> Span {
    for (s, stmt) in nest.statements().iter().enumerate() {
        for (r, rf) in stmt.refs().iter().enumerate() {
            if rf.array == array {
                return spans
                    .refs
                    .get(s)
                    .and_then(|v| v.get(r))
                    .copied()
                    .unwrap_or(spans.nest);
            }
        }
    }
    spans.nest
}

fn loop_span(spans: &NestSpans, k: usize) -> Span {
    spans.loops.get(k).copied().unwrap_or(spans.nest)
}

/// Runs every per-nest lint. Diagnostics come back unsorted and with
/// `nest: None`; the caller stamps the nest index and sorts.
pub fn lint_nest(nest: &LoopNest, spans: &NestSpans, opts: &CheckOptions) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let info = analyze_ranges(nest);
    let mut any_overflow = false;

    // LM0009 on loop bounds.
    for (k, l) in nest.loops().iter().enumerate() {
        if info.overflowing[k] {
            any_overflow = true;
            out.push(Diagnostic {
                code: "LM0009",
                severity: Severity::Error,
                message: format!(
                    "bounds of loop '{}' can exceed the i64 range at simulation time",
                    l.var
                ),
                notes: vec![
                    "the dense engine evaluates bounds in i64 and reports a typed Overflow \
                     (or panics in ungoverned mode) on this nest"
                        .into(),
                ],
                span: loop_span(spans, k),
                nest: None,
            });
        }
    }

    // LM0006 zero-trip loops.
    for (k, l) in nest.loops().iter().enumerate() {
        if info.zero_trip[k] && !info.overflowing[k] {
            out.push(Diagnostic {
                code: "LM0006",
                severity: Severity::Warn,
                message: format!(
                    "loop '{}' never executes (upper bound < lower bound)",
                    l.var
                ),
                notes: vec![
                    "the nest's iteration space is empty; every window and distinct count is 0"
                        .into(),
                ],
                span: loop_span(spans, k),
                nest: None,
            });
        }
    }

    // LM0009 / LM0001 / LM0005 per reference.
    let nest_empty = info.zero_trip.iter().any(|&z| z);
    for (s, stmt) in nest.statements().iter().enumerate() {
        for (r, rf) in stmt.refs().iter().enumerate() {
            let rspan = spans
                .refs
                .get(s)
                .and_then(|v| v.get(r))
                .copied()
                .unwrap_or(spans.nest);
            let decl = nest.array(rf.array);
            let mut ref_overflows = false;
            let mut oob: Vec<String> = Vec::new();
            for d in 0..rf.rank() {
                let ((lo, hi), esc) = affine_interval(rf.matrix.row(d), rf.offset[d], &info.vr);
                if esc {
                    ref_overflows = true;
                    continue;
                }
                let extent = i128::from(decl.dims[d]);
                if lo < 0 || hi > extent {
                    oob.push(format!(
                        "subscript {} spans [{lo}, {hi}] but '{}' declares extent {} \
                         (valid indices 0..={})",
                        d + 1,
                        decl.name,
                        extent,
                        extent
                    ));
                }
            }
            if ref_overflows {
                any_overflow = true;
                out.push(Diagnostic {
                    code: "LM0009",
                    severity: Severity::Error,
                    message: format!(
                        "subscript of '{}' can exceed the i64 range at simulation time",
                        decl.name
                    ),
                    notes: vec![
                        "predicted from i128 interval arithmetic over the loop bounds; \
                         the governed simulator reports a typed Overflow here"
                            .into(),
                    ],
                    span: rspan,
                    nest: None,
                });
            } else if !oob.is_empty() && !nest_empty {
                out.push(Diagnostic {
                    code: "LM0001",
                    severity: Severity::Error,
                    message: format!(
                        "reference to '{}' can index outside its declared extents",
                        decl.name
                    ),
                    notes: oob,
                    span: rspan,
                    nest: None,
                });
            }
            if rf.matrix.rows_iter().all(|row| row.iter().all(|&c| c == 0)) && nest.depth() > 0 {
                out.push(Diagnostic {
                    code: "LM0005",
                    severity: Severity::Warn,
                    message: format!(
                        "reference to '{}' is loop-invariant (every subscript is constant)",
                        decl.name
                    ),
                    notes: vec![
                        "the same element is touched on every iteration; it stays in the \
                         reference window for the nest's whole execution"
                            .into(),
                    ],
                    span: rspan,
                    nest: None,
                });
            }
        }
    }

    // LM0008 duplicate references inside one statement.
    for (s, stmt) in nest.statements().iter().enumerate() {
        let refs = stmt.refs();
        for r in 0..refs.len() {
            for earlier in 0..r {
                let (a, b) = (&refs[earlier], &refs[r]);
                if a.array == b.array
                    && a.matrix == b.matrix
                    && a.offset == b.offset
                    && a.kind == b.kind
                {
                    out.push(Diagnostic {
                        code: "LM0008",
                        severity: Severity::Warn,
                        message: format!(
                            "duplicate reference to '{}' in one statement",
                            nest.array(a.array).name
                        ),
                        notes: vec![
                            "identical accesses add no reuse information and inflate the \
                             access count"
                                .into(),
                        ],
                        span: spans
                            .refs
                            .get(s)
                            .and_then(|v| v.get(r))
                            .copied()
                            .unwrap_or(spans.nest),
                        nest: None,
                    });
                    break;
                }
            }
        }
    }

    // LM0010 iteration volume exceeds the analysis budget.
    if info.volume > u128::from(opts.max_volume) {
        let vol = if info.volume == u128::MAX {
            "more than 2^128 - 1".to_string()
        } else {
            format!("about {}", info.volume)
        };
        out.push(Diagnostic {
            code: "LM0010",
            severity: Severity::Warn,
            message: format!(
                "iteration volume ({vol}) exceeds the analysis budget of {}",
                opts.max_volume
            ),
            notes: vec![
                "exact simulation would trip Exhausted; only the analytic bounds ladder \
                 (union box / §3 closed forms) applies at this size"
                    .into(),
            ],
            span: loop_span(spans, 0),
            nest: None,
        });
    }

    // The remaining lints feed the nest into HNF / Diophantine machinery
    // that assumes in-range i64 coefficients; a predicted overflow makes
    // their answers meaningless, so stop at the Error.
    if any_overflow {
        return out;
    }

    // LM0002 rank-deficient access matrix / LM0003 non-uniform group.
    for c in classify_formulas(nest) {
        let span = first_ref_span(nest, spans, c.array);
        let name = &nest.array(c.array).name;
        if c.group_count > 1 {
            let note = if c.method == Some(Method::NonUniformBounds) {
                "no exact dependence distances exist; the distinct-access count \
                 degrades to Example-6 value-range bounds (§3.2)"
            } else {
                "no exact dependence distances exist and no §3 closed form applies; \
                 the exact distinct-access count comes from simulation"
            };
            out.push(Diagnostic {
                code: "LM0003",
                severity: Severity::Warn,
                message: format!(
                    "references to '{name}' are not uniformly generated \
                     ({} access-matrix groups)",
                    c.group_count
                ),
                notes: vec![note.into()],
                span,
                nest: None,
            });
        } else if c.rank > 0 && !c.kernel.is_empty() {
            let mut notes: Vec<String> = c
                .kernel
                .iter()
                .map(|v| format!("reuse flows along null-space vector {}", fmt_vec(v)))
                .collect();
            notes.push(match c.method {
                Some(Method::NullspaceFormula) => {
                    "the §3.2 closed form ΠN_k − Π(N_k − |v_k|) applies exactly".into()
                }
                Some(Method::SeparableProduct) => {
                    "subscript rows read disjoint variables; the separable product \
                     is exact"
                        .into()
                }
                _ => "no §3 closed form applies; the exact distinct-access count comes \
                      from simulation"
                    .into(),
            });
            out.push(Diagnostic {
                code: "LM0002",
                severity: Severity::Hint,
                message: format!(
                    "access matrix of '{name}' is rank-deficient (rank {} of depth {})",
                    c.rank, c.depth
                ),
                notes,
                span,
                nest: None,
            });
        }
    }

    // LM0007 is program-level (an array may be used by a later nest) —
    // see `unused_array_diagnostics`.

    // LM0004: the dependence cone admits no full-rank tileable family.
    // Gated on a cost estimate: the dependence analysis walks solution
    // windows proportional to the loop spans (raised to the kernel
    // dimension), which adversarial inputs can make astronomically large.
    if (2..=MAX_CONE_DEPTH).contains(&nest.depth()) {
        let groups = uniform_groups(nest);
        let max_kernel_dim = groups
            .iter()
            .map(|g| integer_nullspace(&g.matrix).len())
            .max()
            .unwrap_or(0);
        let pairs: u128 = groups.iter().map(|g| (g.len() * g.len()) as u128).sum();
        let max_span: u128 = info
            .vr
            .iter()
            .map(|&(lo, hi)| (hi.saturating_sub(lo)).max(0) as u128)
            .max()
            .unwrap_or(0);
        let window = 2 * max_span + 1;
        let cost = (0..max_kernel_dim.max(1))
            .try_fold(pairs.max(1), |acc, _| acc.checked_mul(window))
            .unwrap_or(u128::MAX);
        if cost <= 2_000_000 {
            let deps = loopmem_dep::analyze(nest);
            let n = nest.depth();
            if let Some(rank) = tileable_row_rank(&deps, n, 2) {
                if rank < n {
                    let dists: Vec<String> = constraining_distances(&deps)
                        .iter()
                        .map(|d| fmt_vec(d))
                        .collect();
                    out.push(Diagnostic {
                        code: "LM0004",
                        severity: Severity::Warn,
                        message: format!(
                            "dependence cone admits no full-rank tileable transformation \
                             (tileable rows span rank {rank} of {n} within coefficient \
                             box [-2, 2])"
                        ),
                        notes: vec![
                            format!("constraining distances: {}", dists.join(", ")),
                            "§4 MWS minimization cannot fully tile this nest; only \
                             lexicographically legal (non-permutable) transforms remain"
                                .into(),
                        ],
                        span: loop_span(spans, 0),
                        nest: None,
                    });
                }
            }
        }
    }

    out
}

/// `LM0007`: arrays declared but referenced by no nest. Program-level —
/// an array written by nest 0 and read by nest 2 is *used* — so the caller
/// passes every nest of the program. Anchored at the declaration span.
pub fn unused_array_diagnostics(nests: &[&LoopNest], decl_spans: &NestSpans) -> Vec<Diagnostic> {
    let Some(first) = nests.first() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (a, decl) in first.arrays().iter().enumerate() {
        let id = ArrayId(a);
        let used = nests.iter().any(|n| n.refs().any(|r| r.array == id));
        if !used {
            out.push(Diagnostic {
                code: "LM0007",
                severity: Severity::Warn,
                message: format!("array '{}' is declared but never referenced", decl.name),
                notes: vec![format!(
                    "its {} declared elements still count toward the default memory \
                     requirement",
                    decl.size()
                )],
                span: decl_spans.arrays.get(a).copied().unwrap_or_default(),
                nest: None,
            });
        }
    }
    out
}

/// `LM0011`: dead stores — an array written by some nest but read by no
/// nest from that point on (a write in nest `k` is dead only if neither
/// nest `k` itself nor any later nest reads the array; within one nest
/// iterations interleave, so a same-nest read always counts). Program-wide
/// like [`unused_array_diagnostics`]: the caller passes every nest in
/// execution order with its span table. One diagnostic per `(nest, array)`
/// pair, anchored at the first dead write and stamped with the nest index.
pub fn dead_store_diagnostics(nests: &[&LoopNest], all_spans: &[NestSpans]) -> Vec<Diagnostic> {
    let Some(first) = nests.first() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (a, decl) in first.arrays().iter().enumerate() {
        let id = ArrayId(a);
        for (k, nest) in nests.iter().enumerate() {
            let read_later = nests[k..].iter().any(|n| {
                n.refs()
                    .any(|r| r.array == id && r.kind == AccessKind::Read)
            });
            if read_later {
                // A read from nest k onward keeps nest k's writes alive;
                // later nests are re-examined with their own suffix.
                continue;
            }
            // No read from nest k to the end: the first write here is dead.
            let dead_write = nest.statements().iter().enumerate().find_map(|(s, st)| {
                st.refs()
                    .iter()
                    .position(|r| r.array == id && r.kind == AccessKind::Write)
                    .map(|r| (s, r))
            });
            if let Some((s, r)) = dead_write {
                let span = all_spans
                    .get(k)
                    .and_then(|sp| sp.refs.get(s))
                    .and_then(|row| row.get(r))
                    .copied()
                    .unwrap_or_default();
                out.push(Diagnostic {
                    code: "LM0011",
                    severity: Severity::Warn,
                    message: format!(
                        "array '{}' is written here but never read afterwards",
                        decl.name
                    ),
                    notes: vec![
                        "the stored values are dead: no later nest (and no other \
                         reference in this nest) reads them"
                            .into(),
                        format!(
                            "dropping the store frees {} declared elements from the \
                             default memory requirement",
                            decl.size()
                        ),
                    ],
                    span,
                    nest: Some(k),
                });
            }
        }
    }
    out
}
