//! Dense-event window engine: flat touch tables and a parallel chunked
//! sweep.
//!
//! The legacy tracker in [`crate::window`] keys every element by its
//! coordinate vector in a `HashMap`, paying an allocation plus a hash per
//! access. This engine removes both costs:
//!
//! * **Pass 1 (touch recording).** Each array gets a bounding box of its
//!   subscripts at every executed iteration. Interval analysis of the
//!   affine references over the nest's per-variable ranges
//!   ([`LoopNest::var_ranges`] / [`ArrayRef::index_ranges`]) gives the
//!   box of a rectangular nest exactly; for any other nest each subscript
//!   range is intersected with its range over the iteration polytope
//!   ([`Polyhedron::affine_range`]), because a transformed nest's
//!   variable box can be hundreds of times its polytope. A projection
//!   that fails (overflow, too many constraints) keeps the interval
//!   range. Coordinates flatten to offsets in a pair of dense
//!   structure-of-arrays lanes —
//!   `first: Vec<u32>` / `last: Vec<u32>` — and the sweep walks the nest
//!   one *innermost run* at a time ([`try_for_each_inner_run`]): the
//!   outer-iteration part of each reference's linear form is hoisted out
//!   of the run, so the innermost loop advances the offset by a constant
//!   stride and dispatches to a stride-specialized kernel (stride 0 →
//!   one `min`/`max` per run; stride ±1 → contiguous branch-free lane
//!   updates that autovectorize; general stride → strided branch-free
//!   loop). See `DESIGN.md` §11 for the equivalence argument. Arrays
//!   whose box would blow the memory budget (or be absurdly sparse
//!   relative to the access count) fall back to the hashmap
//!   representation per array, keeping results exact for *any* nest,
//!   including out-of-declared-bounds accesses.
//!
//! * **Parallelism.** The validator guarantees outermost bounds are
//!   constants, so the outer loop range splits into contiguous chunks that
//!   partition the lexicographic iteration stream. Chunk boundaries are
//!   placed by *estimated iteration volume* (not outer-value count), so
//!   triangular nests get balanced chunks, and workers pull chunk indices
//!   from an atomic queue — finished threads steal the remaining chunks
//!   instead of idling behind the largest one. Each chunk is swept with
//!   chunk-local 32-bit time; tables merge strictly in chunk order with
//!   cumulative time offsets (`first` keeps the earliest chunk's value,
//!   `last` the latest), which makes the result bit-identical for every
//!   thread count and every steal order.
//!
//! * **Pass 2 (window fold).** The merged tables are the stamps of
//!   [`crate::fold`]: `+1` at `first`, `-1` at `last`, and the live count
//!   after each iteration is their running sum. Stamps sparse in time are
//!   counting-sorted by time block; dense ones fold into one difference
//!   lane whose entries are as narrow as the nest's reference count allows
//!   (≤ 127 references fit an `i8`), one field per array side by side.
//!   Either way the cell lanes are walked once and scratch stays
//!   within 4 bytes per iteration, the figure the `MaxTableBytes` gates
//!   charge. Profile mode is the same fold with the running sum kept.

use crate::budget::{
    analytic_nest_bounds, estimated_iterations_of, panic_message, BudgetTracker, POLL_INTERVAL,
};
use crate::exec::{outer_range, try_for_each_inner_run, try_for_each_iteration_outer};
use crate::fold::{fold, Fold, FoldSpec, Stamps};
use crate::window::{ArrayStats, SimResult};
use loopmem_ir::{
    AnalysisError, ArrayId, ArrayRef, Bounds, BoundsMethod, ElementBox, LoopNest, TripReason,
};
use loopmem_obs::{EventKind, Phase, TraceEvent};
use loopmem_poly::Polyhedron;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Why a governed sweep stopped early, before being mapped to a public
/// [`AnalysisError`] (the mapping is where the analytical fallback bounds
/// are attached).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SweepError {
    /// A resource budget tripped.
    Trip(TripReason),
    /// Intermediate arithmetic left `i64`/`u32` range.
    Overflow(String),
    /// The caller's `stop_after` prefix quota was reached: not a failure —
    /// [`sweep_chunk`] intercepts it and returns the partial tables. Never
    /// escapes to `sweep_all` callers.
    Stopped,
}

/// Chunk-local "never touched" sentinel for the `first` slot.
pub(crate) const UNTOUCHED: u32 = u32::MAX;

/// Work-stealing granularity: chunks per worker thread. More chunks mean
/// better balance on skewed (e.g. triangular) nests but more table merges;
/// 4 keeps merge traffic below a few percent of sweep time.
const CHUNKS_PER_THREAD: usize = 4;

/// Outer spans wider than this skip the per-value volume scan and fall
/// back to even splitting (a span this wide dwarfs the u32 iteration
/// budget anyway, so balance is moot).
const VOLUME_SCAN_LIMIT: u128 = 1 << 20;

/// Memory budget in bytes for all concurrently live dense touch tables.
const DENSE_BUDGET_BYTES: u128 = 768 << 20;

/// A dense table may be at most this many times larger than the
/// worst-case number of accesses to the array; beyond that the hashmap is
/// both smaller and not meaningfully slower.
const SPARSITY_FACTOR: u128 = 64;

/// Nests with (conservatively) fewer iterations than this are swept on
/// one thread whatever worker count the caller asked for: thread
/// spawn/merge overhead dominates below it (see [`sweep_threads`]).
const PARALLEL_THRESHOLD: u128 = 1 << 17;

/// Upper limit on the iterations a salvage pass re-sweeps after a budget
/// trip. Keeps salvage cost bounded (a few milliseconds) even when the
/// tripped iteration cap was astronomically large.
const SALVAGE_MAX_ITERS: u64 = 1 << 22;

/// Chunk-grid size used whenever an enabled trace sink is attached. The
/// untraced grid is `threads × CHUNKS_PER_THREAD`, which would make the
/// poll/commit event stream depend on the thread count; pinning the grid
/// makes the trace bytes bit-identical across t ∈ {1, 2, 4} (answers are
/// chunking-invariant already — the merge folds strictly in chunk order).
const TRACE_CHUNK_PARTS: usize = 16;

/// Worker-thread count: `LOOPMEM_THREADS` when set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    match std::env::var("LOOPMEM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Runs `f(0), …, f(n-1)` on a scoped pool of `workers` threads and
/// returns the results in index order. Workers pull indices from an
/// atomic counter, so a slow item never idles the rest of the pool; with
/// `workers <= 1` the items run serially on the calling thread. The
/// result never depends on the schedule unless `f` does.
pub fn shard_map<R: Send>(n: usize, workers: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let r = f(k);
                *slots[k].lock().expect("slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("every index ran")
        })
        .collect()
}

/// How one reference records its touches.
enum RefMode {
    /// Flattened linear form, split for the run kernels:
    /// `offset = outer · iter[..depth-1] + stride · iter[depth-1] + constant`,
    /// indexing the array's dense lanes. In range at every *executed*
    /// iteration (the table's box encloses the reference over the
    /// nest's polytope, not over its whole variable box, so only the
    /// iterations the run kernels visit are covered), and free of `i64`
    /// overflow on every term product and partial sum over the variable
    /// box ([`dense_form`] verified both against the i128 interval — the
    /// run kernels rely on that invariant).
    Dense {
        outer: Vec<i64>,
        stride: i64,
        constant: i64,
    },
    /// Coordinate vector into the array's hashmap.
    Sparse,
}

struct RefPlan {
    array: usize,
    mode: RefMode,
    /// `true` when this is the array's only reference in the nest: the
    /// run kernels may then overwrite the `last` lane unconditionally
    /// (the reference's stamps strictly increase within and across runs),
    /// instead of folding with `max` against sibling references.
    sole: bool,
    r: ArrayRef,
}

struct Plan {
    /// Per-array dense box (`None` = hashmap fallback for that array).
    boxes: Vec<Option<ElementBox>>,
    refs: Vec<RefPlan>,
    /// Largest reference rank, for the shared coordinate buffer.
    max_rank: usize,
}

impl Plan {
    /// References per array: the most elements of each array a single
    /// iteration can touch, which bounds the pass-2 lane width.
    fn ref_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.boxes.len()];
        for rp in &self.refs {
            counts[rp.array] += 1;
        }
        counts
    }
}

/// Worker threads a pass-1 sweep of `nest` uses when the caller asks for
/// `threads`: one below 2¹⁷ estimated iterations (`PARALLEL_THRESHOLD`),
/// where spawning and merging cost more than they save. Results never
/// depend on it; thread-invariance tests use it to check that their
/// `threads > 1` legs really run in parallel.
pub fn sweep_threads(nest: &LoopNest, threads: usize) -> usize {
    if threads > 1 && estimated_iterations_of(nest) < PARALLEL_THRESHOLD {
        1
    } else {
        threads.max(1)
    }
}

/// Builds the flattened linear index form of `r` into `bx`, or `None`
/// when any coefficient, reachable term product, or reachable partial
/// sum overflows `i64` (the caller then demotes the whole array to the
/// hashmap path).
fn dense_form(r: &ArrayRef, bx: &ElementBox, vr: &[(i64, i64)]) -> Option<(Vec<i64>, i64)> {
    let n = r.depth();
    let mut coeffs = vec![0i128; n];
    let mut constant: i128 = 0;
    for d in 0..r.rank() {
        let s = bx.strides()[d] as i128;
        for (k, &c) in r.matrix.row(d).iter().enumerate() {
            coeffs[k] += s * c as i128;
        }
        constant += s * (r.offset[d] as i128 - bx.lo()[d] as i128);
    }
    // The evaluator accumulates `constant + Σ coeffs[k]·iter[k]` in `i64`,
    // term by term, computing each product `coeffs[k]·iter[k]` in `i64`
    // first — so every reachable term product must fit on its own (a
    // fitting *sum* does not excuse an overflowing term: e.g.
    // `constant = -2^62, c = 2^62, x = 2` sums to `2^62` but the product
    // `2^63` wraps), and every reachable partial sum must fit too. Both
    // are verified here against the i128 interval; products are monotone
    // in `x`, so checking the two range endpoints covers every reachable
    // iterate.
    let fits = |x: i128| (i64::MIN as i128..=i64::MAX as i128).contains(&x);
    if !fits(constant) || coeffs.iter().any(|&c| !fits(c)) {
        return None;
    }
    let (mut plo, mut phi) = (constant, constant);
    for (k, &c) in coeffs.iter().enumerate() {
        let (a, b) = (c * vr[k].0 as i128, c * vr[k].1 as i128);
        if !fits(a) || !fits(b) {
            return None;
        }
        plo += a.min(b);
        phi += a.max(b);
        if !fits(plo) || !fits(phi) {
            return None;
        }
    }
    Some((coeffs.iter().map(|&c| c as i64).collect(), constant as i64))
}

/// Most constraints an intermediate system of a planner projection may
/// hold (see [`Polyhedron::affine_range`]); past it a subscript keeps its
/// interval range. Loop nests and their transforms stay far below it.
const PROJECTION_CAP: usize = 256;

/// Subscript ranges over the nest's iteration polytope, for the planner.
/// Interval analysis over [`LoopNest::var_ranges`] is exact for
/// rectangular nests, but a skewed nest's variable box can be hundreds of
/// times its polytope, and so can the subscript boxes taken over it. The
/// polytope range of each subscript row, from a checked Fourier–Motzkin
/// projection ([`Polyhedron::affine_range`]), is exact up to integer
/// rounding; it is cached per row, because the uniformly generated
/// references of a nest share their rows and differ only in offsets.
struct PolytopeRanges {
    /// `None` for rectangular nests (nothing to gain) and for nests whose
    /// bounds are too large for a checked translation.
    poly: Option<Polyhedron>,
    rows: HashMap<Vec<i64>, Option<(i64, i64)>>,
}

impl PolytopeRanges {
    fn new(nest: &LoopNest) -> Self {
        let poly = if nest.is_rectangular() {
            None
        } else {
            Polyhedron::try_from_nest(nest)
        };
        PolytopeRanges {
            poly,
            rows: HashMap::new(),
        }
    }

    /// Per-dimension ranges of `r` at every executed iteration: the
    /// interval ranges over `vr` ([`ArrayRef::index_ranges`]), intersected
    /// with the polytope range wherever the projection succeeds. A failed
    /// projection, or an empty intersection (possible only when no
    /// iteration executes or the interval range saturated at the `i64`
    /// limits), keeps the interval range.
    fn subscript_box(&mut self, r: &ArrayRef, vr: &[(i64, i64)]) -> Vec<(i64, i64)> {
        let mut ranges = r.index_ranges(vr);
        let Some(poly) = &self.poly else {
            return ranges;
        };
        for (d, range) in ranges.iter_mut().enumerate() {
            let row = r.matrix.row(d);
            let exact = match self.rows.get(row) {
                Some(&exact) => exact,
                None => {
                    let exact = poly.affine_range(row, 0, PROJECTION_CAP);
                    self.rows.insert(row.to_vec(), exact);
                    exact
                }
            };
            let offset = r.offset[d];
            let shifted =
                exact.and_then(|(lo, hi)| Some((lo.checked_add(offset)?, hi.checked_add(offset)?)));
            if let Some((lo, hi)) = shifted {
                let (lo, hi) = (lo.max(range.0), hi.min(range.1));
                if lo <= hi {
                    *range = (lo, hi);
                }
            }
        }
        ranges
    }
}

/// Plans dense vs. sparse representation per array. `max_table_bytes`
/// tightens the built-in [`DENSE_BUDGET_BYTES`] cap: arrays whose box would
/// exceed the caller's byte budget are demoted to the hashmap (sparse)
/// path, which is in turn governed by the iteration budget during the
/// sweep.
fn make_plan(nest: &LoopNest, threads: usize, max_table_bytes: Option<u64>) -> Plan {
    let refs: Vec<ArrayRef> = nest.refs().cloned().collect();
    let narrays = nest.arrays().len();
    let max_rank = refs.iter().map(ArrayRef::rank).max().unwrap_or(0).max(1);
    let mut boxes: Vec<Option<ElementBox>> = vec![None; narrays];

    if let Some(vr) = nest.var_ranges() {
        let est_iters = estimated_iterations_of(nest);
        // Union of each reference's subscript box, per array.
        let mut arr_ranges: Vec<Option<Vec<(i64, i64)>>> = vec![None; narrays];
        let mut ref_count = vec![0u128; narrays];
        let mut polytope = PolytopeRanges::new(nest);
        for r in &refs {
            ref_count[r.array.0] += 1;
            let ir = polytope.subscript_box(r, &vr);
            match &mut arr_ranges[r.array.0] {
                slot @ None => *slot = Some(ir),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(&ir) {
                        a.0 = a.0.min(b.0);
                        a.1 = a.1.max(b.1);
                    }
                }
            }
        }
        // Steady state keeps one chunk-local table set per worker plus the
        // merged base live (the in-order fold retires out-of-order
        // stragglers as soon as the gap closes); split the byte budget
        // across them (8 bytes per cell).
        let budget_bytes = match max_table_bytes {
            Some(cap) => DENSE_BUDGET_BYTES.min(cap as u128),
            None => DENSE_BUDGET_BYTES,
        };
        let budget_cells = budget_bytes / (8 * (threads as u128 + 1));
        let mut used: u128 = 0;
        for a in 0..narrays {
            let Some(ranges) = &arr_ranges[a] else {
                continue;
            };
            let bx = ElementBox::new(ranges);
            let cells = bx.cells();
            let max_touched = est_iters.saturating_mul(ref_count[a]);
            let sparsity_cap = max_touched
                .saturating_mul(SPARSITY_FACTOR)
                .saturating_add(4096);
            if cells == 0 || cells > budget_cells.saturating_sub(used) || cells > sparsity_cap {
                continue;
            }
            // All refs of an array must share a representation; demote the
            // array if any linear form would overflow.
            if refs
                .iter()
                .filter(|r| r.array.0 == a)
                .all(|r| dense_form(r, &bx, &vr).is_some())
            {
                used += cells;
                boxes[a] = Some(bx);
            }
        }
        let ref_plans = refs
            .iter()
            .map(|r| {
                let a = r.array.0;
                let mode = match &boxes[a] {
                    Some(bx) => {
                        let (coeffs, constant) =
                            dense_form(r, bx, &vr).expect("checked during box selection");
                        let stride = *coeffs.last().expect("nest depth is at least 1");
                        RefMode::Dense {
                            outer: coeffs[..coeffs.len() - 1].to_vec(),
                            stride,
                            constant,
                        }
                    }
                    None => RefMode::Sparse,
                };
                RefPlan {
                    array: a,
                    mode,
                    sole: ref_count[a] == 1,
                    r: r.clone(),
                }
            })
            .collect();
        return Plan {
            boxes,
            refs: ref_plans,
            max_rank,
        };
    }

    // Provably empty nest: representation is irrelevant, keep everything
    // sparse.
    Plan {
        refs: refs
            .iter()
            .map(|r| RefPlan {
                array: r.array.0,
                mode: RefMode::Sparse,
                sole: false,
                r: r.clone(),
            })
            .collect(),
        boxes,
        max_rank,
    }
}

/// Pass-1 output of one contiguous outer-range chunk (after the merge,
/// of the whole nest), with chunk-local 32-bit time. Dense touch tables
/// are structure-of-arrays: `first[a]` and `last[a]` are separate lanes
/// over the same flattened box offsets, so the run kernels and the chunk
/// merge update each lane with branch-free `min`/`max`/fill loops the
/// compiler can vectorize. Elements the planner demoted to the hashmap
/// path sit in `sparse[a]`.
pub(crate) struct ChunkOut {
    pub iters: u64,
    pub accesses: Vec<u64>,
    /// First-touch stamp per cell, [`UNTOUCHED`] when never touched.
    pub first: Vec<Vec<u32>>,
    /// Last-touch stamp per cell; meaningless (0) where `first` is
    /// [`UNTOUCHED`] — always read through the `first` lane's mask.
    pub last: Vec<Vec<u32>>,
    pub sparse: Vec<HashMap<Vec<i64>, (u32, u32)>>,
    /// Chunk-local trace events (polls, the trailing commit), buffered
    /// here and flushed by [`MergeState::deposit`] in chunk-commit order
    /// only when the whole sweep succeeds — a failed sweep's set of
    /// completed chunks is schedule-dependent, so its events never reach
    /// the sink. Empty (never allocated) when no sink is attached.
    events: Vec<TraceEvent>,
}

/// Applies one dense reference over the run segment `j ∈ [jlo, jhi]`
/// stamped `t0, t0+1, …`: offsets walk `base + stride·j`. Every kernel
/// updates the `first` lane with a branch-free `min` (the [`UNTOUCHED`]
/// sentinel loses against any real stamp) and the `last` lane with a
/// branch-free `max` — both folds are commutative and associative, hence
/// equivalent to the legacy per-iteration first-touch branch no matter
/// how iterations and sibling references are regrouped. An array with a
/// single reference (`sole`) upgrades the `last` update to an
/// unconditional store: its stamps strictly increase within and across
/// segments, so the newest store always wins anyway.
///
/// Offsets never leave the table (the planner's box encloses the
/// reference at every executed iteration, and a run holds only executed
/// iterations) and never wrap in `i64` (the planner's `dense_form`
/// verified every reachable term product and partial sum).
#[inline]
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot kernel monomorphic
fn dense_run(
    first: &mut [u32],
    last: &mut [u32],
    base: i64,
    stride: i64,
    jlo: i64,
    jhi: i64,
    t0: u32,
    sole: bool,
) {
    let len = (jhi - jlo) as usize + 1; // ≤ POLL_INTERVAL by segmentation
    let tend = t0 + (len as u32 - 1);
    match stride {
        0 => {
            // The whole run hits one cell: first = min over the run = t0,
            // last = max over the run = tend.
            let off = base as usize;
            first[off] = first[off].min(t0);
            last[off] = if sole { tend } else { last[off].max(tend) };
        }
        1 => {
            // Contiguous ascending: lane position p ↔ stamp t0 + p.
            let start = (base + jlo) as usize;
            for (p, f) in first[start..start + len].iter_mut().enumerate() {
                *f = (*f).min(t0 + p as u32);
            }
            let lane = &mut last[start..start + len];
            if sole {
                for (p, l) in lane.iter_mut().enumerate() {
                    *l = t0 + p as u32;
                }
            } else {
                for (p, l) in lane.iter_mut().enumerate() {
                    *l = (*l).max(t0 + p as u32);
                }
            }
        }
        -1 => {
            // Contiguous descending: lane position p ↔ offset
            // base - jhi + p ↔ j = jhi - p ↔ stamp tend - p.
            let start = (base - jhi) as usize;
            for (p, f) in first[start..start + len].iter_mut().enumerate() {
                *f = (*f).min(tend - p as u32);
            }
            let lane = &mut last[start..start + len];
            if sole {
                for (p, l) in lane.iter_mut().enumerate() {
                    *l = tend - p as u32;
                }
            } else {
                for (p, l) in lane.iter_mut().enumerate() {
                    *l = (*l).max(tend - p as u32);
                }
            }
        }
        s => {
            // General stride: offsets within one run are distinct (s ≠ 0,
            // j distinct), so per-offset min/max (or plain stores for a
            // sole reference) stay branch-free.
            if sole {
                for (p, j) in (jlo..=jhi).enumerate() {
                    let off = (base + s * j) as usize;
                    let tp = t0 + p as u32;
                    first[off] = first[off].min(tp);
                    last[off] = tp;
                }
            } else {
                for (p, j) in (jlo..=jhi).enumerate() {
                    let off = (base + s * j) as usize;
                    let tp = t0 + p as u32;
                    first[off] = first[off].min(tp);
                    last[off] = last[off].max(tp);
                }
            }
        }
    }
}

/// Sweeps one chunk under governance, one *innermost run* at a time
/// ([`try_for_each_inner_run`]). Runs are cut into segments of at most
/// [`POLL_INTERVAL`] iterations, so that (a) the locally counted work is
/// charged to the shared tracker at exactly the same
/// `POLL_INTERVAL`-quanta trip points as the legacy per-iteration sweep
/// — budget trips and trip-time charges are bit-compatible — and (b)
/// cancellation is observed within ~a thousand iterations even inside a
/// single astronomically long run. Within a segment, dense references
/// dispatch to the stride-specialized [`dense_run`] kernels (the
/// outer-iteration part of the linear form is hoisted into `base`, so
/// the innermost loop walks a constant stride); sparse references keep
/// the legacy per-iteration checked-arithmetic loop (the dense path
/// needs none: the planner's `dense_form` already verified every
/// reachable term product and partial sum fits `i64`).
///
/// `stop_after` cleanly stops the sweep once exactly that many iterations
/// have been stamped, returning the partial tables instead of an error —
/// the salvage pass uses it to re-sweep a deterministic stream prefix.
fn sweep_chunk(
    nest: &LoopNest,
    plan: &Plan,
    lo: i64,
    hi: i64,
    tracker: &BudgetTracker,
    stop_after: Option<u64>,
) -> Result<ChunkOut, SweepError> {
    let narrays = nest.arrays().len();
    let depth = nest.depth();
    let mut first: Vec<Vec<u32>> = plan
        .boxes
        .iter()
        .map(|b| match b {
            Some(bx) => vec![UNTOUCHED; bx.cells() as usize],
            None => Vec::new(),
        })
        .collect();
    let mut last: Vec<Vec<u32>> = plan
        .boxes
        .iter()
        .map(|b| match b {
            Some(bx) => vec![0u32; bx.cells() as usize],
            None => Vec::new(),
        })
        .collect();
    let mut sparse: Vec<HashMap<Vec<i64>, (u32, u32)>> =
        (0..narrays).map(|_| HashMap::new()).collect();
    let mut accesses = vec![0u64; narrays];
    let mut idx_buf = vec![0i64; plan.max_rank];
    // Sparse references are processed per-iteration in statement order
    // (their hashmap update depends on processing order); dense and
    // sparse references touch disjoint state, and the dense lanes fold
    // with order-independent min/max, so splitting them preserves the
    // legacy interleaved result exactly.
    let sparse_refs: Vec<&RefPlan> = plan
        .refs
        .iter()
        .filter(|rp| matches!(rp.mode, RefMode::Sparse))
        .collect();
    let mut t: u32 = 0;
    let mut unpolled: u32 = 0;
    // Chunk-local event buffer: `ord` starts as (0, seq); the merge
    // rewrites the chunk component when the chunk is folded, so the key
    // is (chunk index, poll sequence) — schedule-independent.
    let tracing = tracker.trace().is_some();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut seq: u64 = 0;
    let poll_event = |events: &mut Vec<TraceEvent>, seq: &mut u64, delta: u64| {
        events.push(TraceEvent {
            phase: Phase::Pass1,
            nest: None,
            ord: (0, *seq),
            kind: EventKind::Poll { delta },
        });
        *seq += 1;
    };
    let flow = try_for_each_inner_run(nest, lo, hi, &mut |iter, run_lo, run_hi| {
        let mut j = run_lo;
        let mut remaining = (run_hi as i128 - run_lo as i128) as u128 + 1;
        while remaining > 0 {
            // Stamps left before the chunk-local u32 clock would poison
            // the UNTOUCHED sentinel. The legacy sweep detected this one
            // (discarded) iteration later; the charge sequence is
            // identical because that poisoned iteration was never
            // charged either.
            let cap = UNTOUCHED - t;
            if cap == 0 {
                return ControlFlow::Break(SweepError::Overflow(
                    "chunk exceeds the engine's u32 iteration budget".to_string(),
                ));
            }
            let mut quota = (POLL_INTERVAL - unpolled).min(cap);
            if let Some(limit) = stop_after {
                let left = limit.saturating_sub(t as u64);
                if left == 0 {
                    return ControlFlow::Break(SweepError::Stopped);
                }
                quota = quota.min(left.min(u32::MAX as u64) as u32);
            }
            let seg = remaining.min(quota as u128) as u32;
            let seg_hi = j + (seg as i64 - 1);
            for rp in &plan.refs {
                accesses[rp.array] += seg as u64;
                if let RefMode::Dense {
                    outer,
                    stride,
                    constant,
                } = &rp.mode
                {
                    let mut base = *constant;
                    for (&c, &x) in outer.iter().zip(iter.iter()) {
                        base += c * x;
                    }
                    debug_assert!(
                        {
                            // The planner's no-overflow invariant, re-derived
                            // in i128: the hoisted base and both segment
                            // endpoint offsets agree with exact arithmetic.
                            let exact_base = *constant as i128
                                + outer
                                    .iter()
                                    .zip(iter.iter())
                                    .map(|(&c, &x)| c as i128 * x as i128)
                                    .sum::<i128>();
                            exact_base == base as i128
                                && i64::try_from(exact_base + *stride as i128 * j as i128).is_ok()
                                && i64::try_from(exact_base + *stride as i128 * seg_hi as i128)
                                    .is_ok()
                        },
                        "planner no-overflow invariant violated for array '{}'",
                        nest.arrays()[rp.array].name
                    );
                    dense_run(
                        &mut first[rp.array],
                        &mut last[rp.array],
                        base,
                        *stride,
                        j,
                        seg_hi,
                        t,
                        rp.sole,
                    );
                }
            }
            if !sparse_refs.is_empty() {
                for (tt, jj) in (t..).zip(j..=seg_hi) {
                    iter[depth - 1] = jj;
                    for rp in &sparse_refs {
                        let d = rp.r.rank();
                        for (dim, slot) in idx_buf[..d].iter_mut().enumerate() {
                            let mut s = rp.r.offset[dim] as i128;
                            for (&c, &x) in rp.r.matrix.row(dim).iter().zip(iter.iter()) {
                                s += (c as i128) * (x as i128);
                            }
                            match i64::try_from(s) {
                                Ok(v) => *slot = v,
                                Err(_) => {
                                    return ControlFlow::Break(SweepError::Overflow(format!(
                                        "subscript of array '{}' overflows i64 at iteration {iter:?}",
                                        nest.arrays()[rp.array].name
                                    )));
                                }
                            }
                        }
                        match sparse[rp.array].get_mut(&idx_buf[..d]) {
                            Some(cell) => cell.1 = tt,
                            None => {
                                sparse[rp.array].insert(idx_buf[..d].to_vec(), (tt, tt));
                            }
                        }
                    }
                }
            }
            t += seg;
            unpolled += seg;
            remaining -= seg as u128;
            if unpolled >= POLL_INTERVAL {
                if let Err(reason) = tracker.charge_iterations(unpolled as u64) {
                    return ControlFlow::Break(SweepError::Trip(reason));
                }
                if tracing {
                    poll_event(&mut events, &mut seq, unpolled as u64);
                }
                unpolled = 0;
                // Injected overflow: force the u32 clock-exhaustion branch
                // at the first charge observing the plan's threshold. The
                // cumulative counter is monotone and every charge is
                // followed by this consultation, so whether the fault
                // lands is identical for every thread count; which chunk
                // reports it may differ, but the error value is fixed.
                if tracker.fault_take_overflow() {
                    return ControlFlow::Break(SweepError::Overflow(
                        "chunk exceeds the engine's u32 iteration budget".to_string(),
                    ));
                }
            }
            if remaining > 0 {
                j = seg_hi + 1;
            }
        }
        ControlFlow::Continue(())
    });
    match flow {
        // A clean prefix stop keeps the partial tables: exactly
        // `stop_after` iterations are stamped.
        ControlFlow::Break(SweepError::Stopped) => {}
        ControlFlow::Break(err) => return Err(err),
        ControlFlow::Continue(()) => {}
    }
    if unpolled > 0 {
        tracker
            .charge_iterations(unpolled as u64)
            .map_err(SweepError::Trip)?;
        // Trailing-charge consultation: keeps the injected overflow
        // thread-count invariant even when the threshold lands on a
        // chunk's final partial quantum.
        if tracker.fault_take_overflow() {
            return Err(SweepError::Overflow(
                "chunk exceeds the engine's u32 iteration budget".to_string(),
            ));
        }
        if tracing {
            poll_event(&mut events, &mut seq, unpolled as u64);
        }
    }
    if tracing {
        events.push(TraceEvent {
            phase: Phase::Pass1,
            nest: None,
            ord: (0, seq),
            kind: EventKind::ChunkCommit {
                lo,
                hi,
                iters: t as u64,
            },
        });
    }
    Ok(ChunkOut {
        iters: t as u64,
        accesses,
        first,
        last,
        sparse,
        events,
    })
}

/// Folds one chunk's output (the *next* chunk in time order) into `base`,
/// rebasing the chunk's local times by the cumulative iteration count.
/// The fold is lane-wise and branch-free: `first` keeps the earlier
/// chunk's stamp via a saturating-rebased `min` (an [`UNTOUCHED`] chunk
/// cell saturates back to `UNTOUCHED` and never wins, while every real
/// rebased stamp post-dates every base stamp, so `min` selects the base
/// exactly when it was touched); `last` is a rebased overwrite masked by
/// the chunk's own `first` lane — a cell the later chunk touched always
/// post-dates every base stamp, and an untouched chunk cell (whose
/// `last` lane holds a meaningless 0) must leave the base value alone,
/// which is why a plain `max` would be wrong (`0 + off` could exceed a
/// real base stamp). Folding strictly in chunk order makes the result
/// independent of which worker swept which chunk.
fn merge_into(base: &mut ChunkOut, c: ChunkOut) {
    let off64 = base.iters;
    base.iters += c.iters;
    assert!(
        base.iters <= UNTOUCHED as u64,
        "nest exceeds the engine's u32 iteration budget"
    );
    let off = off64 as u32;
    for (total, add) in base.accesses.iter_mut().zip(&c.accesses) {
        *total += add;
    }
    for (bt, ct) in base.first.iter_mut().zip(&c.first) {
        for (bf, &cf) in bt.iter_mut().zip(ct) {
            *bf = (*bf).min(cf.saturating_add(off));
        }
    }
    for ((bt, ct), cft) in base.last.iter_mut().zip(&c.last).zip(&c.first) {
        for ((bl, &cl), &cf) in bt.iter_mut().zip(ct).zip(cft) {
            *bl = if cf == UNTOUCHED { *bl } else { cl + off };
        }
    }
    for (bm, cm) in base.sparse.iter_mut().zip(c.sparse) {
        for (k, v) in cm {
            match bm.entry(k) {
                Entry::Occupied(mut e) => e.get_mut().1 = v.1 + off,
                Entry::Vacant(e) => {
                    e.insert((v.0 + off, v.1 + off));
                }
            }
        }
    }
}

/// Chunk outputs folded into a growing prefix, strictly in chunk order.
/// Workers deposit out-of-order results in `pending`; whoever deposits the
/// next needed chunk folds the ready run, so memory stays bounded by the
/// worker count plus the occasional straggler gap instead of the full
/// chunk count.
struct MergeState {
    /// Chunks `[0, upto)` are already folded into `base`.
    upto: usize,
    base: Option<ChunkOut>,
    pending: BTreeMap<usize, ChunkOut>,
    /// Trace events of folded chunks, accumulated in chunk-commit order
    /// (the fold is strictly in chunk order, so this sequence is
    /// schedule-independent). Flushed by `sweep_all` on success.
    events: Vec<TraceEvent>,
}

impl MergeState {
    fn deposit(&mut self, k: usize, mut out: ChunkOut) {
        // Stamp the chunk component of the ordering key: chunk k's events
        // sort after every chunk < k and after the sweep's span-begin
        // (which uses chunk component 0).
        for e in &mut out.events {
            e.ord.0 = 1 + k as u64;
        }
        self.pending.insert(k, out);
        loop {
            let next = self.upto;
            let Some(mut c) = self.pending.remove(&next) else {
                break;
            };
            self.upto += 1;
            self.events.append(&mut c.events);
            match &mut self.base {
                None => self.base = Some(c),
                Some(b) => merge_into(b, c),
            }
        }
    }
}

/// The stamps of the pass-2 window fold: every touched cell of a dense
/// lane and every hashmap entry, in nest-local time.
impl Stamps for ChunkOut {
    fn array(&self, a: usize, mut emit: impl FnMut(u64, u64)) -> u64 {
        if self.accesses[a] == 0 {
            return 0;
        }
        let mut n = 0;
        for (&f, &l) in self.first[a].iter().zip(&self.last[a]) {
            if f != UNTOUCHED {
                n += 1;
                emit(f as u64, l as u64);
            }
        }
        for &(f, l) in self.sparse[a].values() {
            emit(f as u64, l as u64);
        }
        n + self.sparse[a].len() as u64
    }
}

impl ChunkOut {
    /// Pass 2 over these tables. `refs` is the nest's per-array
    /// reference count. An array touches at most `min(cells, accesses)`
    /// dense elements plus its hashmap entries, which bounds the stamps.
    pub(crate) fn fold(&self, refs: &[u32], per_array: bool, profile: bool) -> Fold {
        let elements = (0..refs.len())
            .map(|a| {
                (self.first[a].len() as u64).min(self.accesses[a]) + self.sparse[a].len() as u64
            })
            .sum();
        let spec = FoldSpec {
            iters: self.iters,
            refs,
            elements,
            per_array,
            profile,
            bounds: &[],
        };
        fold(&spec, self)
    }
}

/// Even split of the outer range into at most `parts` contiguous chunks —
/// the fallback when no volume information is available.
fn split_range(lo: i64, hi: i64, parts: usize) -> Vec<(i64, i64)> {
    if lo > hi || parts <= 1 {
        return vec![(lo, hi)];
    }
    let span = (hi as i128 - lo as i128 + 1) as u128;
    let parts = (parts as u128).min(span);
    let mut out = Vec::with_capacity(parts as usize);
    let mut start = lo;
    for p in 1..=parts {
        // The prefix width `span·p/parts` can exceed `i64` for spans wider
        // than `i64::MAX` (e.g. bounds near the `i64` limits), so the chunk
        // end is computed in `i128`; the result is always in `[lo, hi]` and
        // casts back losslessly.
        let end = (lo as i128 + (span * p / parts) as i128 - 1) as i64;
        out.push((start, end));
        start = end.saturating_add(1);
    }
    out
}

/// Estimated iteration volume of one outermost-loop value: the product of
/// conservative inner-range lengths with the outermost variable pinned to
/// `v` (the same interval enclosure as [`LoopNest::var_ranges`], one level
/// sharper). Exact for rectangular and outer-dependent triangular bounds;
/// only load balance depends on it, never results. `ranges` is scratch of
/// `nest.depth()` entries, reused across calls.
fn outer_volume(nest: &LoopNest, v: i64, ranges: &mut [(i64, i64)]) -> u128 {
    ranges.fill((0, 0));
    ranges[0] = (v, v);
    let mut vol: u128 = 1;
    for k in 1..ranges.len() {
        let l = &nest.loops()[k];
        let (lo, _) = l.lower.value_range(ranges);
        let (_, hi) = l.upper.value_range(ranges);
        if lo > hi {
            return 0;
        }
        ranges[k] = (lo, hi);
        vol = vol.saturating_mul((hi.saturating_sub(lo).saturating_add(1)) as u128);
    }
    vol
}

/// `true` when some inner loop bound mentions the outermost variable. If
/// none does, every inner range — and so [`outer_volume`] — is the same
/// for every outer value.
fn inner_bounds_mention_outer(nest: &LoopNest) -> bool {
    nest.loops()[1..].iter().any(|l| {
        [&l.lower, &l.upper]
            .iter()
            .any(|b| b.pieces().iter().any(|p| p.expr.coeffs()[0] != 0))
    })
}

/// Splits the outer range into at most `parts` contiguous chunks whose
/// *estimated iteration volumes* are balanced. An even split of outer
/// values gives a triangular nest (`for j = i to N`) chunks whose work
/// differs by the triangle's aspect ratio; cutting by cumulative volume
/// keeps every chunk within one outer value's volume of the ideal share.
/// Volumes cost one scratch buffer, not one allocation per outer value,
/// and O(1) when no inner bound mentions the outermost variable.
fn chunk_ranges(nest: &LoopNest, lo: i64, hi: i64, parts: usize) -> Vec<(i64, i64)> {
    if lo > hi || parts <= 1 {
        return vec![(lo, hi)];
    }
    let span = (hi as i128 - lo as i128 + 1) as u128;
    if span > VOLUME_SCAN_LIMIT {
        return split_range(lo, hi, parts);
    }
    let parts = parts.min(span as usize);
    // One volume per outer value, or a single one shared by all of them.
    let mut ranges = vec![(0i64, 0i64); nest.depth()];
    let vols: Vec<u128> = if inner_bounds_mention_outer(nest) {
        (lo..=hi)
            .map(|v| outer_volume(nest, v, &mut ranges).max(1))
            .collect()
    } else {
        vec![outer_volume(nest, lo, &mut ranges).max(1)]
    };
    let vol = |i: usize| vols[i.min(vols.len() - 1)];
    let total: u128 = match vols.as_slice() {
        [w] => span.saturating_mul(*w),
        _ => vols.iter().fold(0u128, |a, &b| a.saturating_add(b)),
    };
    let mut out = Vec::with_capacity(parts);
    let mut start = lo;
    let mut acc: u128 = 0;
    for i in 0..span as usize {
        acc = acc.saturating_add(vol(i));
        let v = lo + i as i64;
        // Close the current chunk once the cumulative volume reaches the
        // next ideal cut `total·(k+1)/parts` (cross-multiplied to stay in
        // integers), keeping the final chunk open through `hi`.
        let produced = out.len() as u128;
        if v < hi
            && out.len() + 1 < parts
            && acc.saturating_mul(parts as u128) >= total.saturating_mul(produced + 1)
        {
            out.push((start, v));
            start = v + 1;
        }
    }
    out.push((start, hi));
    out
}

/// Pass 1 over the whole nest: plan, chunk, sweep (work-stealing when
/// `threads > 1` and the nest reaches [`PARALLEL_THRESHOLD`]), and fold
/// the chunks strictly in chunk order. The returned tables are
/// bit-identical for every `threads` value. On a budget trip or overflow,
/// the error with the smallest chunk index wins (workers stop pulling
/// chunks once any error is recorded), matching the error a serial sweep
/// reports when the failing computation is deterministic.
fn sweep_all(
    nest: &LoopNest,
    nest_index: usize,
    threads: usize,
    tracker: &BudgetTracker,
) -> Result<(Plan, ChunkOut), SweepError> {
    let (olo, ohi) = outer_range(nest);
    let threads = sweep_threads(nest, threads);
    let tracing = tracker.trace().is_some();
    let started = tracing.then(std::time::Instant::now);
    // An injected table-rejection fault plans as if the table cap were
    // zero: every array demotes to the sparse path (results stay exact).
    let plan_cap = if tracker.fault_reject_tables() {
        Some(0)
    } else {
        tracker.max_table_bytes()
    };
    let plan = make_plan(nest, threads, plan_cap);
    // Tracing pins the chunk grid (see [`TRACE_CHUNK_PARTS`]) so the
    // event stream is independent of the worker count; the untraced path
    // keeps its thread-scaled grid untouched.
    let chunks = if tracing {
        chunk_ranges(nest, olo, ohi, TRACE_CHUNK_PARTS)
    } else if threads == 1 {
        vec![(olo, ohi)]
    } else {
        chunk_ranges(nest, olo, ohi, threads * CHUNKS_PER_THREAD)
    };
    if chunks.len() <= 1 {
        let (lo, hi) = chunks[0];
        let mut out = sweep_chunk(nest, &plan, lo, hi, tracker, None)?;
        if tracing {
            for e in &mut out.events {
                e.ord.0 = 1;
            }
            let events = std::mem::take(&mut out.events);
            flush_sweep_events(tracker, nest_index, started, events, out.iters);
        }
        return Ok((plan, out));
    }
    let workers = threads.min(chunks.len());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, SweepError)>> = Mutex::new(None);
    // A panic inside a chunk is caught here and re-raised with its
    // original payload after the scope joins; letting it escape the
    // scoped thread would replace the payload with the generic
    // "a scoped thread panicked", diverging from the serial sweep.
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    let state = Mutex::new(MergeState {
        upto: 0,
        base: None,
        pending: BTreeMap::new(),
        events: Vec::new(),
    });
    {
        let (plan, chunks, next, stop, failure, panicked, state) =
            (&plan, &chunks, &next, &stop, &failure, &panicked, &state);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= chunks.len() {
                        break;
                    }
                    let (lo, hi) = chunks[k];
                    match catch_unwind(AssertUnwindSafe(|| {
                        sweep_chunk(nest, plan, lo, hi, tracker, None)
                    })) {
                        Ok(Ok(out)) => state.lock().expect("merge state poisoned").deposit(k, out),
                        Ok(Err(e)) => {
                            // Overflow outranks budget trips: a u32
                            // time-stamp overflow fires at a fixed point in
                            // the charged-iteration stream, while which
                            // *other* chunks then trip the shared budget is
                            // schedule-dependent. Among equal ranks the
                            // smallest chunk index wins, so the reported
                            // failure is the same at every thread count.
                            let rank = |err: &SweepError| match err {
                                SweepError::Overflow(_) => 0usize,
                                _ => 1,
                            };
                            let mut slot = failure.lock().expect("failure slot poisoned");
                            let replace = match slot.as_ref() {
                                None => true,
                                Some((prev_k, prev_e)) => (rank(&e), k) < (rank(prev_e), *prev_k),
                            };
                            if replace {
                                *slot = Some((k, e));
                            }
                            stop.store(true, Ordering::Relaxed);
                        }
                        Err(payload) => {
                            let mut slot = panicked.lock().expect("panic slot poisoned");
                            let replace = match slot.as_ref() {
                                None => true,
                                Some((prev_k, _)) => k < *prev_k,
                            };
                            if replace {
                                *slot = Some((k, payload));
                            }
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
    }
    // A panic fires at a fixed point in the iteration stream (like an
    // overflow), so it ranks with the deterministic failures: between a
    // panic and a rank-0 error the smaller chunk index wins, and any
    // schedule-dependent budget trip loses to it — the serial sweep would
    // have panicked before ever reaching the later chunk.
    let panic_hit = panicked.into_inner().expect("panic slot poisoned");
    let err_hit = failure.into_inner().expect("failure slot poisoned");
    if let Some((pk, payload)) = panic_hit {
        let panic_wins = match &err_hit {
            Some((ek, SweepError::Overflow(_))) => pk < *ek,
            _ => true,
        };
        if panic_wins {
            std::panic::resume_unwind(payload);
        }
    }
    if let Some((_, e)) = err_hit {
        return Err(e);
    }
    let st = state.into_inner().expect("merge state poisoned");
    debug_assert_eq!(st.upto, chunks.len(), "every chunk merged");
    let merged = st.base.expect("at least one chunk swept");
    if tracing {
        flush_sweep_events(tracker, nest_index, started, st.events, merged.iters);
    }
    Ok((plan, merged))
}

/// Flushes one successful sweep's buffered chunk events to the attached
/// sink, bracketed by the nest's pass-1 span. Everything canonical in
/// the batch (ordering keys, deltas, the charged total) derives from the
/// nest and the pinned chunk grid alone, never from the schedule; only
/// the span's wall-clock micros vary, and those are excluded from the
/// canonical rendering.
fn flush_sweep_events(
    tracker: &BudgetTracker,
    nest_index: usize,
    started: Option<std::time::Instant>,
    events: Vec<TraceEvent>,
    iters: u64,
) {
    let Some(sink) = tracker.trace() else {
        return;
    };
    let micros = started.map_or(0, |s| s.elapsed().as_micros() as u64);
    let nest = Some(nest_index as u32);
    let mut out = Vec::with_capacity(events.len() + 2);
    out.push(TraceEvent {
        phase: Phase::Pass1,
        nest,
        ord: (0, 0),
        kind: EventKind::SpanBegin { label: "pass1" },
    });
    for mut e in events {
        e.nest = nest;
        out.push(e);
    }
    out.push(TraceEvent {
        phase: Phase::Pass1,
        nest,
        ord: (u64::MAX, 0),
        kind: EventKind::SpanEnd {
            label: "pass1",
            micros,
            charged: iters,
        },
    });
    sink.record_all(out);
}

/// Merged pass-1 touch tables of one nest in nest-local 32-bit time —
/// everything the program engine needs to rebase the nest onto a global
/// timeline. `boxes[a]` is the dense box backing the tables'
/// `first[a]`/`last[a]` lanes (a cell is touched iff
/// `first[a][off] != UNTOUCHED`); `refs[a]` is the nest's reference count
/// of array `a`.
pub(crate) struct NestPass1 {
    pub boxes: Vec<Option<ElementBox>>,
    pub refs: Vec<u32>,
    pub tables: ChunkOut,
}

impl NestPass1 {
    fn new(plan: Plan, tables: ChunkOut) -> Self {
        NestPass1 {
            refs: plan.ref_counts(),
            boxes: plan.boxes,
            tables,
        }
    }

    /// Pass 2 of a nest simulation: per-array and total MWS (and the
    /// profile when asked) through the window fold.
    pub(crate) fn finish(self, want_profile: bool) -> SimResult {
        let fold = self.tables.fold(&self.refs, true, want_profile);
        let mws = fold.mws.expect("per-array fold");
        let accesses = &self.tables.accesses;
        let per_array = (0..self.refs.len())
            .filter(|&a| accesses[a] > 0)
            .map(|a| {
                let stats = ArrayStats {
                    distinct: fold.distinct[a],
                    accesses: accesses[a],
                    mws: mws[a],
                };
                (ArrayId(a), stats)
            })
            .collect();
        SimResult {
            iterations: self.tables.iters,
            per_array,
            mws_total: fold.mws_total,
            profile: fold.profile,
        }
    }
}

/// Benchmark hook: runs the lane-split pass-1 sweep only (no pass-2
/// window fold) with an unlimited budget and returns the iteration
/// count. The touch tables are routed through [`std::hint::black_box`]
/// so the optimizer cannot discard the recording work being measured.
pub fn bench_pass1(nest: &LoopNest, threads: usize) -> u64 {
    let np = try_pass1(0, nest, threads, &BudgetTracker::unlimited(), false)
        .unwrap_or_else(|e| panic!("{e}"));
    std::hint::black_box(&np.tables);
    np.tables.iters
}

/// The pre-lane-split pass-1 inner loop, kept as the perfsuite's
/// `pass1_throughput` comparator: per-iteration affine dot products into
/// an interleaved `(first, last)` array-of-structs table, with the
/// branchy first-touch test the lane-split kernels replace.
/// Single-threaded and ungoverned; returns the iteration count, with
/// the tables routed through [`std::hint::black_box`].
pub fn bench_pass1_interleaved(nest: &LoopNest) -> u64 {
    struct LegacyRef<'a> {
        array: usize,
        coeffs: Vec<i64>,
        constant: i64,
        sparse: Option<&'a ArrayRef>,
    }
    let plan = make_plan(nest, 1, None);
    let lrefs: Vec<LegacyRef> = plan
        .refs
        .iter()
        .map(|rp| match &rp.mode {
            RefMode::Dense {
                outer,
                stride,
                constant,
            } => {
                let mut coeffs = outer.clone();
                coeffs.push(*stride);
                LegacyRef {
                    array: rp.array,
                    coeffs,
                    constant: *constant,
                    sparse: None,
                }
            }
            RefMode::Sparse => LegacyRef {
                array: rp.array,
                coeffs: Vec::new(),
                constant: 0,
                sparse: Some(&rp.r),
            },
        })
        .collect();
    let mut dense: Vec<Vec<(u32, u32)>> = plan
        .boxes
        .iter()
        .map(|b| match b {
            Some(bx) => vec![(UNTOUCHED, 0u32); bx.cells() as usize],
            None => Vec::new(),
        })
        .collect();
    let mut sparse: Vec<HashMap<Vec<i64>, (u32, u32)>> =
        (0..nest.arrays().len()).map(|_| HashMap::new()).collect();
    let mut idx_buf = vec![0i64; plan.max_rank];
    let mut t: u32 = 0;
    let (lo, hi) = outer_range(nest);
    let flow = try_for_each_iteration_outer::<(), _>(nest, lo, hi, &mut |iter| {
        for lr in &lrefs {
            match lr.sparse {
                None => {
                    let mut off = lr.constant;
                    for (&c, &x) in lr.coeffs.iter().zip(iter) {
                        off += c * x;
                    }
                    let cell = &mut dense[lr.array][off as usize];
                    if cell.0 == UNTOUCHED {
                        *cell = (t, t);
                    } else {
                        cell.1 = t;
                    }
                }
                Some(r) => {
                    let d = r.rank();
                    for (dim, slot) in idx_buf[..d].iter_mut().enumerate() {
                        let mut s = r.offset[dim] as i128;
                        for (&c, &x) in r.matrix.row(dim).iter().zip(iter) {
                            s += (c as i128) * (x as i128);
                        }
                        *slot = i64::try_from(s).expect("subscript overflows i64");
                    }
                    match sparse[lr.array].get_mut(&idx_buf[..d]) {
                        Some(cell) => cell.1 = t,
                        None => {
                            sparse[lr.array].insert(idx_buf[..d].to_vec(), (t, t));
                        }
                    }
                }
            }
        }
        t = t.checked_add(1).expect("u32 iteration budget exceeded");
        ControlFlow::Continue(())
    });
    let _ = flow; // the closure never breaks
    std::hint::black_box(&dense);
    std::hint::black_box(&sparse);
    t as u64
}

/// Exact maximum window size of the lexicographic stream prefix
/// `[0, quota)`: a single-threaded, budget-free re-sweep with a clean stop
/// at the quota, folded through the standard pass 2.
///
/// Soundness of using it as a *lower bound* on the full MWS: within a
/// stream prefix every recorded first touch is the element's true first
/// touch, and every recorded last touch is no later than its true last
/// touch, so the prefix live count at any time never exceeds the true live
/// count — the prefix maximum is ≤ the true maximum (DESIGN.md §13).
fn prefix_mws(nest: &LoopNest, quota: u64, max_table_bytes: Option<u64>) -> Option<u64> {
    let tracker = BudgetTracker::unlimited();
    let plan = make_plan(nest, 1, max_table_bytes);
    let (lo, hi) = outer_range(nest);
    let out = sweep_chunk(nest, &plan, lo, hi, &tracker, Some(quota)).ok()?;
    Some(out.fold(&plan.ref_counts(), false, false).mws_total)
}

/// The `Exhausted` payload after a budget trip: when the trip has a
/// deterministic logical position (a real iteration-cap trip, or an
/// injected poll fault — see [`BudgetTracker::salvage_quota`]), salvage the
/// already-earned work by re-sweeping that exact stream prefix and
/// reporting its MWS as the lower bound; otherwise (deadline, table caps,
/// real cancellation) fall back to the purely analytic ladder. The salvaged
/// payload depends only on the nest and the quota — never on thread count
/// or steal order — so it stays bit-identical across `t ∈ {1, 2, 4}`.
fn salvage_nest_bounds(
    nest: &LoopNest,
    nest_index: usize,
    tracker: &BudgetTracker,
    reason: TripReason,
) -> Bounds {
    let analytic = analytic_nest_bounds(nest);
    let Some(quota) = tracker.salvage_quota(reason) else {
        return analytic;
    };
    let max_table_bytes = tracker.max_table_bytes();
    let mut quota = quota.min(SALVAGE_MAX_ITERS);
    if let Some(cap) = max_table_bytes {
        // The prefix fold's scratch is at most 4 bytes per iteration;
        // honour the caller's byte cap during salvage too.
        quota = quota.min(cap / 4);
    }
    if quota == 0 {
        return analytic;
    }
    match catch_unwind(AssertUnwindSafe(|| {
        prefix_mws(nest, quota, max_table_bytes)
    })) {
        Ok(Some(prefix)) => {
            // The salvage event carries only plan/quota-derived values
            // (the quota and the deterministic prefix bound), so it is
            // safe to emit on this failure path: which worker observed
            // the trip varies, what was salvaged does not.
            if let Some(sink) = tracker.trace() {
                sink.record(TraceEvent {
                    phase: Phase::Pass1,
                    nest: Some(nest_index as u32),
                    ord: (u64::MAX, 1),
                    kind: EventKind::Salvage {
                        iterations: quota,
                        lower: prefix.max(analytic.lower),
                    },
                });
            }
            Bounds {
                lower: prefix.max(analytic.lower),
                upper: analytic.upper,
                method: BoundsMethod::SalvagedPrefix,
            }
        }
        _ => analytic,
    }
}

/// Runs `f` with panics contained: a panic anywhere inside it surfaces as
/// [`AnalysisError::NestPanicked`] tagged with `nest_index`.
pub(crate) fn contain<T>(
    nest_index: usize,
    f: impl FnOnce() -> Result<T, AnalysisError>,
) -> Result<T, AnalysisError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(AnalysisError::NestPanicked {
            nest: nest_index,
            message: panic_message(payload),
        })
    })
}

/// Governed pass 1 of one nest, the first half of every nest simulation
/// (alone or inside a program). Nests whose pass-2 fold alone could exceed
/// the tracker's table cap (its scratch bound of 4 bytes per estimated
/// iteration, the same criterion as the program engine's global gate) are
/// refused up front, so one oversized nest in a batch degrades alone.
/// Panics are contained ([`contain`]), overflow reports
/// [`AnalysisError::Overflow`], and a budget trip reports
/// [`AnalysisError::Exhausted`]: with `salvage`, the bounds of
/// [`salvage_nest_bounds`]; without, the purely analytic ones. Salvage is
/// the choice of whoever owns the tracker: the §4 search compares many
/// candidates against one shared budget, and re-sweeping a prefix per
/// failed candidate would multiply the tripped budget's cost for bounds
/// nobody reads.
pub(crate) fn try_pass1(
    nest_index: usize,
    nest: &LoopNest,
    threads: usize,
    tracker: &BudgetTracker,
    salvage: bool,
) -> Result<NestPass1, AnalysisError> {
    if let Some(cap) = tracker.max_table_bytes() {
        if estimated_iterations_of(nest).saturating_mul(4) > cap as u128 {
            return Err(AnalysisError::Exhausted {
                reason: TripReason::MaxTableBytes,
                partial: analytic_nest_bounds(nest),
            });
        }
    }
    let swept = contain(nest_index, || {
        if tracker.fault_take_panic(nest_index) {
            panic!("{}", crate::faults::INJECTED_PANIC);
        }
        Ok(sweep_all(nest, nest_index, threads, tracker))
    })?;
    match swept {
        Ok((plan, merged)) => Ok(NestPass1::new(plan, merged)),
        Err(SweepError::Trip(reason)) => Err(AnalysisError::Exhausted {
            reason,
            partial: if salvage {
                salvage_nest_bounds(nest, nest_index, tracker, reason)
            } else {
                analytic_nest_bounds(nest)
            },
        }),
        Err(SweepError::Overflow(context)) => Err(AnalysisError::Overflow { context }),
        Err(SweepError::Stopped) => unreachable!("no prefix quota was set"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::AnalysisBudget;
    use crate::window::{simulate_hashmap_with_profile, try_simulate_with_threads, SimResult};
    use loopmem_ir::parse;

    /// The dense engine's exact answer, with the window profile.
    fn simulate(nest: &LoopNest, threads: usize) -> SimResult {
        try_simulate_with_threads(nest, true, threads, &AnalysisBudget::unlimited()).unwrap()
    }

    fn assert_same(a: &SimResult, b: &SimResult) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.mws_total, b.mws_total);
        assert_eq!(a.per_array, b.per_array);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn matches_hashmap_engine_on_small_nests() {
        for src in [
            "array A[12][12]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
            "array A[10]\narray B[5]\nfor i = 1 to 10 { for j = 1 to 5 { A[i] = B[j]; } }",
            "array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j] = A[j][i]; } }",
        ] {
            let nest = parse(src).unwrap();
            assert_same(&simulate(&nest, 1), &simulate_hashmap_with_profile(&nest));
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        for (src, workers) in [
            // Above the serial cutoff: really swept in parallel.
            (
                "array A[520][520]\nfor i = 2 to 512 { for j = 1 to 512 { A[i][j] = A[i-1][j]; } }",
                16,
            ),
            // Below it: a pinned thread count still sweeps serially.
            (
                "array A[64][64]\nfor i = 2 to 60 { for j = 1 to 60 { A[i][j] = A[i-1][j]; } }",
                1,
            ),
        ] {
            let nest = parse(src).unwrap();
            assert_eq!(sweep_threads(&nest, 16), workers, "{src}");
            let one = simulate(&nest, 1);
            for threads in [2, 3, 5, 16] {
                assert_same(&simulate(&nest, threads), &one);
            }
        }
    }

    include!("../tests/common/fold_boundary.rs");

    /// The fold's scratch stays within the 4 bytes per iteration the
    /// `MaxTableBytes` gates charge, on real pass-1 tables of both kinds:
    /// each kernel class on each side of the fold's sparse/dense boundary.
    #[test]
    fn pass2_scratch_is_within_the_table_byte_gates() {
        use crate::fold::FoldPath;
        for (class, sparse_in_time, dense_in_time) in FOLD_BOUNDARY {
            for (src, path) in [
                (sparse_in_time, FoldPath::Sparse),
                (dense_in_time, FoldPath::Dense),
            ] {
                let tracker = BudgetTracker::unlimited();
                let np = try_pass1(0, &parse(src).unwrap(), 1, &tracker, true).unwrap();
                for per_array in [false, true] {
                    let f = np.tables.fold(&np.refs, per_array, false);
                    assert_eq!(f.path, path, "{class}:\n{src}");
                    assert!(
                        f.scratch_bytes <= 4 * np.tables.iters,
                        "{class}: {} > 4 × {}",
                        f.scratch_bytes,
                        np.tables.iters
                    );
                }
            }
        }
    }

    /// `C[i][j] = A[i][j] + A[i][j]` over `i in 2..=n, j in 1..=n` after
    /// T = [[-5,-3],[2,1]], as the optimizer builds it: the subscripts
    /// become `(t1 + 3·t2, -2·t1 - 5·t2)` and the regenerated inner bounds
    /// divide by 3 and 5.
    fn skewed_consumer(n: i64) -> LoopNest {
        use loopmem_ir::bounds::BoundPiece;
        use loopmem_ir::{AccessKind, Affine, ArrayDecl, Bound, Loop, Statement};
        use loopmem_linalg::IMat;
        let piece = |coeffs: Vec<i64>, constant, div| BoundPiece {
            expr: Affine::new(coeffs, constant),
            div,
        };
        let t1 = Loop {
            var: "t1".into(),
            lower: Bound::constant(2, -8 * n),
            upper: Bound::constant(2, -13),
        };
        let t2 = Loop {
            var: "t2".into(),
            lower: Bound::from_pieces(vec![piece(vec![-1, 0], 2, 3), piece(vec![-2, 0], -n, 5)]),
            upper: Bound::from_pieces(vec![piece(vec![-1, 0], n, 3), piece(vec![-2, 0], -1, 5)]),
        };
        let at = |a: usize, kind| {
            let m = IMat::from_rows(&[vec![1, 3], vec![-2, -5]]);
            ArrayRef::new(ArrayId(a), m, vec![0, 0], kind)
        };
        let decls = ["A", "C"].map(|name| ArrayDecl::new(name, vec![n + 4, n + 4]));
        let refs = vec![
            at(1, AccessKind::Write),
            at(0, AccessKind::Read),
            at(0, AccessKind::Read),
        ];
        LoopNest::new(vec![t1, t2], decls.to_vec(), vec![Statement::new(refs)]).unwrap()
    }

    /// An optimizer candidate of the benchmark's largest `program` input:
    /// its tables cover the untransformed nest's box, 2 × 81 × 82 cells
    /// for 6,642 iterations, where interval analysis over the skewed
    /// variable box would plan ~7.8·10⁶.
    #[test]
    fn skewed_candidate_plans_the_untransformed_box() {
        let skewed = skewed_consumer(82);
        let plain = parse(
            "array A[86][86]\narray C[86][86]\n\
             for i = 2 to 82 { for j = 1 to 82 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let (sp, pp) = (make_plan(&skewed, 1, None), make_plan(&plain, 1, None));
        assert_eq!(sp.boxes, pp.boxes);
        let cells: u128 = sp.boxes.iter().flatten().map(ElementBox::cells).sum();
        assert_eq!(cells, 13_284);
        let vr = skewed.var_ranges().unwrap();
        let mut interval: u128 = 0;
        for a in 0..2 {
            let mut union: Option<Vec<(i64, i64)>> = None;
            for r in skewed.refs().filter(|r| r.array.0 == a) {
                let ir = r.index_ranges(&vr);
                union = Some(match union {
                    None => ir,
                    Some(u) => u
                        .iter()
                        .zip(&ir)
                        .map(|(x, y)| (x.0.min(y.0), x.1.max(y.1)))
                        .collect(),
                });
            }
            interval += ElementBox::new(&union.unwrap()).cells();
        }
        assert_eq!(interval, 7_820_956);
        let dense = simulate(&skewed, 1);
        assert_eq!(dense.iterations, 6_642);
        assert_same(&dense, &simulate_hashmap_with_profile(&skewed));
    }

    #[test]
    fn sparse_fallback_is_exact() {
        // Subscript stride so large the dense box fails the sparsity test.
        let nest =
            parse("array X[2000000000]\nfor i = 1 to 20 { for j = 1 to 5 { X[100000000i + j]; } }")
                .unwrap();
        let plan = make_plan(&nest, 1, None);
        assert!(plan.boxes.iter().all(Option::is_none), "expected fallback");
        assert_same(&simulate(&nest, 1), &simulate_hashmap_with_profile(&nest));
    }

    /// Satellite regression: a box whose linear form needs a term product
    /// outside `i64` must be demoted to the sparse path, never wrapped.
    /// Here the flattened coefficient is `2^62` and the variable is
    /// pinned to 2, so the *product* `2^63` overflows while every
    /// partial sum still fits (`constant ≈ -2^63` cancels it) — exactly
    /// the case the old partial-sum-only check accepted, after which the
    /// sweep's `off += c * x` wrapped.
    #[test]
    fn near_overflow_form_is_demoted_to_sparse() {
        let nest = parse("array X[1]\nfor i = 2 to 2 { X[4611686018427387904i]; }").unwrap();
        let plan = make_plan(&nest, 1, None);
        assert!(
            plan.boxes.iter().all(Option::is_none),
            "near-overflow form must fall back to the hashmap path"
        );
        // The sparse path then reports the genuine subscript overflow
        // instead of simulating a wrapped offset.
        let err =
            try_simulate_with_threads(&nest, false, 1, &AnalysisBudget::unlimited()).unwrap_err();
        assert!(
            matches!(err, loopmem_ir::AnalysisError::Overflow { .. }),
            "expected a subscript overflow report, got {err:?}"
        );
    }

    /// Two references of one array touching the same cells within a single
    /// innermost run: the `last` lane must fold with `max` across sibling
    /// references (a pure slice fill is only sound for sole references).
    #[test]
    fn sibling_refs_in_one_run_keep_exact_last_stamps() {
        for src in [
            // Same cell, same iteration, two refs.
            "array A[40]\nfor i = 1 to 30 { A[i] = A[i]; } ",
            // Shifted overlap: ref 2 touches cells ref 1 reaches later.
            "array A[40]\nfor i = 1 to 30 { A[i] = A[i+3]; } ",
            // Opposite strides crossing mid-run.
            "array A[40]\nfor i = 1 to 30 { A[i] = A[31-i]; } ",
            // Stride-0 against stride-1 inside an inner run.
            "array A[40]\nfor i = 1 to 5 { for j = 1 to 6 { A[i] = A[j]; } }",
        ] {
            let nest = parse(src).unwrap();
            assert_same(&simulate(&nest, 1), &simulate_hashmap_with_profile(&nest));
        }
    }

    #[test]
    fn empty_nest() {
        let nest = parse("array A[10]\nfor i = 5 to 4 { A[i]; }").unwrap();
        let s = simulate(&nest, 4);
        assert_eq!(s.iterations, 0);
        assert!(s.per_array.is_empty());
        assert_eq!(s.profile.as_deref(), Some(&[][..]));
    }

    #[test]
    fn chunk_split_covers_range() {
        assert_eq!(split_range(1, 10, 3), vec![(1, 3), (4, 6), (7, 10)]);
        assert_eq!(split_range(1, 2, 8), vec![(1, 1), (2, 2)]);
        assert_eq!(split_range(5, 4, 4), vec![(5, 4)]);
    }

    /// Regression: spans wider than `i64::MAX` used to truncate the
    /// `u128` prefix width through an `i64` cast, producing chunk ends far
    /// outside `[lo, hi]` (and panicking in debug builds).
    #[test]
    fn chunk_split_survives_near_max_bounds() {
        for (lo, hi) in [
            (i64::MIN, i64::MAX),
            (i64::MIN + 1, i64::MAX - 1),
            (-9_223_372_036_854_775_000, 9_223_372_036_854_775_000),
            (0, i64::MAX),
        ] {
            for parts in [2, 3, 7] {
                let chunks = split_range(lo, hi, parts);
                assert_eq!(chunks.first().unwrap().0, lo);
                assert_eq!(chunks.last().unwrap().1, hi);
                for w in chunks.windows(2) {
                    assert!(w[0].1 < w[1].0, "{chunks:?}");
                    assert_eq!(w[0].1 + 1, w[1].0, "{chunks:?}");
                }
                for &(a, b) in &chunks {
                    assert!(lo <= a && a <= b && b <= hi, "{chunks:?}");
                }
            }
        }
    }

    fn volume(nest: &LoopNest, v: i64) -> u128 {
        outer_volume(nest, v, &mut vec![(0, 0); nest.depth()])
    }

    /// The chunk planner before its volumes shared one buffer: a fresh
    /// allocation and a full interval pass per outer value.
    fn chunk_ranges_per_value(nest: &LoopNest, lo: i64, hi: i64, parts: usize) -> Vec<(i64, i64)> {
        if lo > hi || parts <= 1 {
            return vec![(lo, hi)];
        }
        let span = (hi as i128 - lo as i128 + 1) as u128;
        if span > VOLUME_SCAN_LIMIT {
            return split_range(lo, hi, parts);
        }
        let parts = parts.min(span as usize);
        let vols: Vec<u128> = (lo..=hi).map(|v| volume(nest, v).max(1)).collect();
        let total: u128 = vols.iter().fold(0u128, |a, &b| a.saturating_add(b));
        let mut out = Vec::new();
        let mut start = lo;
        let mut acc: u128 = 0;
        for (i, &w) in vols.iter().enumerate() {
            acc = acc.saturating_add(w);
            let v = lo + i as i64;
            if v < hi
                && out.len() + 1 < parts
                && acc.saturating_mul(parts as u128) >= total.saturating_mul(out.len() as u128 + 1)
            {
                out.push((start, v));
                start = v + 1;
            }
        }
        out.push((start, hi));
        out
    }

    /// Trace bytes depend on the chunk list, so the allocation-free
    /// planner must reproduce the per-value scan exactly.
    #[test]
    fn chunk_plan_matches_the_per_value_scan() {
        for src in [
            "array A[41][41]\nfor i = 1 to 40 { for j = 1 to 40 { A[i][j]; } }",
            "array A[101][101]\nfor i = 1 to 100 { for j = i to 100 { A[i][j]; } }",
            "array A[64][64]\nfor i = 1 to 60 { for j = 1 to i { for k = j to 60 { A[i][k]; } } }",
            "array A[32][32]\nfor i = 1 to 20 { for j = i to 10 { A[i][j]; } }",
            // ~2^20-wide spans: the uniform fast path and a triangle.
            "array X[2000001]\nfor i = 1 to 1000000 { for j = 1 to 1000000 { X[i + j]; } }",
            "array X[2100000]\nfor i = 1 to 1048576 { for j = i to 1048576 { X[i + j]; } }",
            "array X[10]\nfor i = 1 to 1048577 { for j = 1 to 3 { X[j]; } }",
        ] {
            let nest = parse(src).unwrap();
            let (lo, hi) = outer_range(&nest);
            for parts in [2, 3, 8, TRACE_CHUNK_PARTS] {
                assert_eq!(
                    chunk_ranges(&nest, lo, hi, parts),
                    chunk_ranges_per_value(&nest, lo, hi, parts),
                    "{src} in {parts} parts"
                );
            }
        }
    }

    /// Chunk lists always partition `[lo, hi]` into consecutive ranges.
    fn assert_partitions(chunks: &[(i64, i64)], lo: i64, hi: i64) {
        assert_eq!(chunks.first().unwrap().0, lo);
        assert_eq!(chunks.last().unwrap().1, hi);
        for w in chunks.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0, "{chunks:?}");
        }
    }

    #[test]
    fn volume_chunks_balance_triangular_nests() {
        // for j = i to 100: per-value volume 101-i, front-loaded. An even
        // split's first chunk carries ~44% of the work; volume cuts keep
        // every chunk near 25%.
        let nest =
            parse("array A[101][101]\nfor i = 1 to 100 { for j = i to 100 { A[i][j]; } }").unwrap();
        let chunks = chunk_ranges(&nest, 1, 100, 4);
        assert_partitions(&chunks, 1, 100);
        assert!(chunks.len() >= 2, "{chunks:?}");
        let total: u128 = (1..=100).map(|v| volume(&nest, v)).sum();
        let ideal = total / chunks.len() as u128;
        for &(lo, hi) in &chunks {
            let vol: u128 = (lo..=hi).map(|v| volume(&nest, v)).sum();
            assert!(
                vol <= ideal * 2 && vol * 3 >= ideal,
                "chunk {lo}..={hi} holds {vol} of ideal {ideal}: {chunks:?}"
            );
        }
        // The triangle's exact volume: interval analysis is sharp here.
        assert_eq!(total, 5050);
        assert_eq!(volume(&nest, 1), 100);
        assert_eq!(volume(&nest, 100), 1);
    }

    #[test]
    fn volume_chunks_are_even_for_rectangular_nests() {
        let nest =
            parse("array A[40][40]\nfor i = 1 to 40 { for j = 1 to 40 { A[i][j]; } }").unwrap();
        let chunks = chunk_ranges(&nest, 1, 40, 4);
        assert_partitions(&chunks, 1, 40);
        assert_eq!(chunks, vec![(1, 10), (11, 20), (21, 30), (31, 40)]);
    }

    /// Triangles whose range boxes (370², 51³) reach the serial cutoff, so
    /// every `threads > 1` leg steals volume-cut chunks.
    #[test]
    fn work_stealing_matches_serial_on_triangular_nests() {
        for src in [
            "array A[371][371]\nfor i = 1 to 370 { for j = i to 370 { A[i][j] = A[j][i]; } }",
            "array A[371][371]\nfor i = 1 to 370 { for j = 1 to i { A[i][j] = A[i-1][j]; } }",
            "array X[160]\nfor i = 1 to 51 { for j = i to 51 { for k = j to 51 { X[i + j + k]; } } }",
        ] {
            let nest = parse(src).unwrap();
            assert!(estimated_iterations_of(&nest) >= PARALLEL_THRESHOLD, "{src}");
            let one = simulate(&nest, 1);
            for threads in [2, 3, 4, 8] {
                assert_same(&simulate(&nest, threads), &one);
            }
            assert_same(&one, &simulate_hashmap_with_profile(&nest));
        }
    }

    #[test]
    fn empty_inner_ranges_have_zero_volume() {
        // j = i to 400 is empty for i > 400; outer i runs to 800. The
        // 800 × 400 range box reaches the serial cutoff, so the parallel
        // legs cut chunks around the empty half.
        let nest =
            parse("array A[801][401]\nfor i = 1 to 800 { for j = i to 400 { A[i][j]; } }").unwrap();
        assert!(estimated_iterations_of(&nest) >= PARALLEL_THRESHOLD);
        assert_eq!(volume(&nest, 500), 0);
        assert_eq!(volume(&nest, 400), 1);
        let one = simulate(&nest, 1);
        for threads in [2, 5] {
            assert_same(&simulate(&nest, threads), &one);
        }
    }
}
