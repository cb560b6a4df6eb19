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
//!   one *innermost run* at a time ([`crate::exec::try_for_each_inner_run`]): the
//!   outer-iteration part of each reference's linear form is hoisted out
//!   of the run, so the innermost loop advances the offset by a constant
//!   stride and dispatches to a stride-specialized kernel (stride 0 →
//!   one `min`/`max` per run; stride ±1 → contiguous branch-free lane
//!   updates that autovectorize; general stride → strided branch-free
//!   loop). See `DESIGN.md` §11 for the equivalence argument. An array
//!   whose box would blow the memory budget, or be absurdly sparse
//!   relative to the access count, is first *delinearized*
//!   (`Delinearized`): a subscript `g·h + l` whose low part `l` stays
//!   inside one window of `|g|` values, such as the linearized
//!   `X[10⁸·i + j]`, indexes the cell `(h, l)` of a virtual array with
//!   one more dimension, a box the subscript fills. Only an array whose
//!   delinearized box fails the same caps falls back to the hashmap
//!   representation, keeping results exact for *any* nest, including
//!   out-of-declared-bounds accesses.
//!
//! * **Parallelism.** Pass 1 splits a nest on its *split loop*
//!   (`split_level`): the outermost loop, other than the innermost,
//!   that some subscript indexes. A loop no subscript indexes lies in the
//!   common null space of the access matrices (the §3.2 reuse space): a
//!   time loop `t` around a stencil is one, and chunks of it would each
//!   touch the whole footprint. Chunks of the split loop's values touch
//!   bands of it instead. Every nest whose outermost loop indexes a
//!   subscript keeps loop 0 as its split loop. Chunk boundaries are
//!   placed by *estimated iteration volume* (not value count), so
//!   triangular nests get balanced chunks, and workers pull chunk indices
//!   from an atomic queue — finished threads steal the remaining chunks
//!   instead of idling behind the largest one. Each chunk records into
//!   its *window*, the subscript box over its cut variable ranges, and
//!   stamps nest-global time: its block under each prefix of the outer
//!   loops starts where the nest's `Clock` says, counted in closed form
//!   for rectangular nests and run by run otherwise. Windows then fold
//!   into the nest's tables by `min`/`max`, band by band, in any order,
//!   which makes the result bit-identical for every thread count and
//!   every steal order. A split that would cost more than it saves
//!   (windows much larger than the work, a nest past the u32 clock) is
//!   swept whole on one thread.
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
use crate::exec::{outer_range, try_for_each_iteration_outer, try_for_each_split_run};
use crate::fold::{fold, Fold, FoldSpec, Stamps};
use crate::window::{ArrayStats, SimResult};
use loopmem_ir::{
    AnalysisError, ArrayId, ArrayRef, Bounds, BoundsMethod, ElementBox, LoopNest, TripReason,
};
use loopmem_linalg::IMat;
use loopmem_obs::{EventKind, Phase, TraceEvent};
use loopmem_poly::Polyhedron;
use std::collections::HashMap;
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
/// better balance on skewed (e.g. triangular) nests, but every chunk
/// resets and folds its own window, and overlapping windows fold some
/// cells twice; [`Split::new`] refuses a split whose windows outweigh its
/// iterations.
const CHUNKS_PER_THREAD: usize = 4;

/// Outer spans wider than this skip the per-value volume scan and fall
/// back to even splitting (a span this wide dwarfs the u32 iteration
/// budget anyway, so balance is moot).
const VOLUME_SCAN_LIMIT: u128 = 1 << 20;

/// Memory budget in bytes for all concurrently live dense touch tables.
const DENSE_BUDGET_BYTES: u128 = 768 << 20;

/// A dense table may be at most this many times larger than the
/// worst-case number of accesses to the array. Beyond that the planner
/// delinearizes the array's subscripts ([`delinearize`]), and the hashmap
/// backs the array only when the delinearized box is too sparse as well:
/// the hashmap path sweeps one to three orders of magnitude fewer
/// iterations per second than the dense lanes.
const SPARSITY_FACTOR: u128 = 64;

/// Nests with (conservatively) fewer iterations than this are swept on
/// one thread whatever worker count the caller asked for: thread
/// spawn/merge overhead dominates below it (see [`sweep_threads`]).
const PARALLEL_THRESHOLD: u128 = 1 << 17;

/// Upper limit on the iterations a salvage pass re-sweeps after a budget
/// trip. Keeps salvage cost bounded (a few milliseconds) even when the
/// tripped iteration cap was astronomically large.
const SALVAGE_MAX_ITERS: u64 = 1 << 22;

/// Chunk-grid size used whenever a sweep narrates to a trace sink. The
/// untraced grid is `threads × CHUNKS_PER_THREAD`, which would make the
/// poll/commit event stream depend on the thread count; pinning the grid
/// makes the trace bytes bit-identical across t ∈ {1, 2, 3, 4} (answers
/// are chunking-invariant already — stamps are nest-global and the fold
/// is order-free).
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
#[derive(Clone)]
enum RefMode {
    /// Flattened linear form, split for the run kernels:
    /// `offset = outer · iter[..depth-1] + stride · iter[depth-1] + constant`,
    /// indexing the array's dense lanes. In range at every *executed*
    /// iteration of the sweep (the table's box encloses the reference over
    /// the nest's polytope, or the chunk's part of it, not over the whole
    /// variable box, so only the iterations the run kernels visit are
    /// covered), and free of `i64` overflow on every term product and
    /// partial sum over the sweep's variable ranges ([`dense_form`]
    /// verified both against the i128 interval — the run kernels rely on
    /// that invariant).
    Dense {
        outer: Vec<i64>,
        stride: i64,
        constant: i64,
    },
    /// Coordinate vector into the array's hashmap.
    Sparse,
}

impl RefMode {
    /// The run kernels' form of `r` flattened into `bx` over `vr`, or
    /// `None` when [`dense_form`] finds it would overflow.
    fn dense(r: &ArrayRef, bx: &ElementBox, vr: &[(i64, i64)]) -> Option<RefMode> {
        let (mut outer, constant) = dense_form(r, bx, vr)?;
        let stride = outer.pop().expect("nest depth is at least 1");
        Some(RefMode::Dense {
            outer,
            stride,
            constant,
        })
    }
}

struct RefPlan {
    array: usize,
    /// `true` when this is the array's only reference in the nest: the
    /// run kernels may then overwrite the `last` lane unconditionally
    /// (the reference's stamps strictly increase within and across runs),
    /// instead of folding with `max` against sibling references.
    sole: bool,
    r: ArrayRef,
}

/// The tables one sweep records into: a box per array (`None` = hashmap
/// fallback for that array) and each reference's form in it. A
/// whole-nest sweep records into the plan's boxes; a chunk of a split
/// sweep into its window ([`Layout::window`]).
#[derive(Clone)]
struct Layout {
    boxes: Vec<Option<ElementBox>>,
    /// Per reference, in [`Plan::refs`] order.
    modes: Vec<RefMode>,
}

impl Layout {
    /// The window of a chunk whose variables range over `ranges`: each
    /// dense array's box cut to the union of its references' subscript
    /// ranges there, and each reference's form in the window. The window
    /// holds every cell the chunk touches, since the box and the interval
    /// ranges both do. `None` when a form would overflow.
    fn window(&self, refs: &[RefPlan], ranges: &[(i64, i64)]) -> Option<Layout> {
        let mut spans: Vec<Option<Vec<(i64, i64)>>> = vec![None; self.boxes.len()];
        for rp in refs.iter().filter(|rp| self.boxes[rp.array].is_some()) {
            let ir = rp.r.index_ranges(ranges);
            match &mut spans[rp.array] {
                slot @ None => *slot = Some(ir),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(&ir) {
                        *a = (a.0.min(b.0), a.1.max(b.1));
                    }
                }
            }
        }
        let boxes: Vec<Option<ElementBox>> = self
            .boxes
            .iter()
            .zip(spans)
            .map(|(bx, span)| {
                let (bx, span) = (bx.as_ref()?, span?);
                let clipped: Vec<(i64, i64)> = span
                    .iter()
                    .enumerate()
                    .map(|(d, &(lo, hi))| {
                        let blo = bx.lo()[d];
                        (lo.max(blo), hi.min(blo + (bx.extents()[d] - 1)))
                    })
                    .collect();
                Some(ElementBox::new(&clipped))
            })
            .collect();
        let modes = refs
            .iter()
            .map(|rp| match &boxes[rp.array] {
                Some(bx) => RefMode::dense(&rp.r, bx, ranges),
                None => Some(RefMode::Sparse),
            })
            .collect::<Option<_>>()?;
        Some(Layout { boxes, modes })
    }

    /// Dense cells of the layout's tables.
    fn cells(&self) -> u128 {
        self.boxes.iter().flatten().map(ElementBox::cells).sum()
    }
}

struct Plan {
    /// The whole-nest tables.
    layout: Layout,
    /// The nest's references, a delinearized array's as references to
    /// its cells.
    refs: Vec<RefPlan>,
    /// Per array, how its table's cells map back to elements when the
    /// planner delinearized it.
    splits: Vec<Option<Delinearized>>,
    /// Largest reference rank, for the shared coordinate buffer.
    max_rank: usize,
}

impl Plan {
    /// References per array: the most elements of each array a single
    /// iteration can touch, which bounds the pass-2 lane width.
    fn ref_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.layout.boxes.len()];
        for rp in &self.refs {
            counts[rp.array] += 1;
        }
        counts
    }
}

/// Worker threads a pass-1 sweep of `nest` uses when the caller asks for
/// `threads`: one below 2¹⁷ estimated iterations (`PARALLEL_THRESHOLD`),
/// where spawning and merging cost more than they save, and one when the
/// nest does not split or the split does not pay (see `Split::new`).
/// Results never depend on it; thread-invariance tests use it to check
/// that their `threads > 1` legs really run in parallel.
pub fn sweep_threads(nest: &LoopNest, threads: usize) -> usize {
    schedule(nest, threads, &BudgetTracker::unlimited(), false).map_or(1, |s| s.workers)
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

    /// The box of `refs`' subscripts at every executed iteration: the
    /// per-dimension union of their [`Self::subscript_box`]es.
    fn union_box<'r>(
        &mut self,
        refs: impl IntoIterator<Item = &'r ArrayRef>,
        vr: &[(i64, i64)],
    ) -> ElementBox {
        let mut union: Option<Vec<(i64, i64)>> = None;
        for r in refs {
            let ir = self.subscript_box(r, vr);
            match &mut union {
                slot @ None => *slot = Some(ir),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(&ir) {
                        *a = (a.0.min(b.0), a.1.max(b.1));
                    }
                }
            }
        }
        ElementBox::new(&union.unwrap_or_default())
    }
}

/// The cells of a delinearized array: per element dimension, `Some(g)`
/// when its subscripts, written `g·h + l`, index the two cell
/// coordinates `(h, l)`, and `None` when they index one. `h` takes the
/// terms whose coefficients `g` divides, divided by `g`; `l` the other
/// terms and the offset. So `X[10⁸·i + j − 1]` records into the cell
/// `(i, j − 1)` of a virtual `n × (m + 1)` array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Delinearized(Vec<Option<i64>>);

impl Delinearized {
    /// `r` as a reference to the cells.
    fn reference(&self, r: &ArrayRef) -> ArrayRef {
        let (mut rows, mut offset) = (Vec::new(), Vec::new());
        for (d, g) in self.0.iter().enumerate() {
            let row = r.matrix.row(d);
            match *g {
                None => {
                    rows.push(row.to_vec());
                    offset.push(r.offset[d]);
                }
                Some(g) => {
                    rows.push(row.iter().map(|&c| split_term(c, g).0).collect());
                    rows.push(row.iter().map(|&c| split_term(c, g).1).collect());
                    offset.extend([0, r.offset[d]]);
                }
            }
        }
        ArrayRef::new(r.array, IMat::from_rows(&rows), offset, r.kind)
    }

    /// The element whose cell is `cell`: `g·h + l` in a split dimension.
    /// A touched cell decodes to a subscript some iteration computed, and
    /// [`delinearize`] splits only rows whose subscripts fit `i64`.
    pub(crate) fn element(&self, cell: &[i64]) -> Vec<i64> {
        let mut at = cell.iter().copied();
        let mut next = || at.next().expect("one coordinate per cell dimension");
        self.0
            .iter()
            .map(|g| match *g {
                Some(g) => {
                    let h = next() as i128;
                    i64::try_from(g as i128 * h + next() as i128)
                        .expect("a touched cell's subscript fits i64")
                }
                None => next(),
            })
            .collect()
    }
}

/// A row coefficient `c` of a subscript split by `g`, as its coefficients
/// `(in h, in l)`: `(c / g, 0)` when `g` divides it, `(0, c)` otherwise.
fn split_term(c: i64, g: i64) -> (i64, i64) {
    if c % g == 0 {
        (c / g, 0)
    } else {
        (0, c)
    }
}

/// The range of `offset + Σ coeffs[k]·x[k]` over `x ∈ vr`, or `None`
/// when it leaves `i64`.
fn affine_span(
    coeffs: impl IntoIterator<Item = i64>,
    offset: i64,
    vr: &[(i64, i64)],
) -> Option<(i64, i64)> {
    let start = (offset as i128, offset as i128);
    let (lo, hi) = coeffs
        .into_iter()
        .zip(vr)
        .fold(start, |(lo, hi), (c, &(a, b))| {
            let (x, y) = (c as i128 * a as i128, c as i128 * b as i128);
            (lo.saturating_add(x.min(y)), hi.saturating_add(x.max(y)))
        });
    Some((i64::try_from(lo).ok()?, i64::try_from(hi).ok()?))
}

/// Delinearizes the references `refs` of one array over the variable
/// ranges `vr`. Row `d` of each reference is written `g·h + l`, with `g`
/// the coefficient of largest magnitude in row `d` of any of them. The
/// row splits when `|g| ≥ 2` and `l`, over `vr` and every reference,
/// stays inside one window `[L, L + |g|)`: an element `s` then has the
/// one cell `l = L + (s − L) mod |g|`, `h = (s − l) / g`, so each element
/// keeps one cell and distinct elements distinct cells. `None` when no
/// row splits, or when some subscript's range leaves `i64`: the hashmap
/// path then reports the overflow, as it would without the split. A
/// row whose `h` or `l` range leaves `i64` does not split.
fn delinearize(refs: &[&ArrayRef], vr: &[(i64, i64)]) -> Option<Delinearized> {
    let rows = |d: usize| refs.iter().map(move |r| (r.matrix.row(d), r.offset[d]));
    let rank = refs.first()?.rank();
    for d in 0..rank {
        for (row, offset) in rows(d) {
            affine_span(row.iter().copied(), offset, vr)?;
        }
    }
    let split: Vec<Option<i64>> = (0..rank)
        .map(|d| {
            let g = rows(d)
                .flat_map(|(row, _)| row.iter().copied())
                .max_by_key(|c| c.unsigned_abs())
                .filter(|g| g.unsigned_abs() >= 2)?;
            let mut window = (i64::MAX, i64::MIN);
            for (row, offset) in rows(d) {
                affine_span(row.iter().map(|&c| split_term(c, g).0), 0, vr)?;
                let (lo, hi) = affine_span(row.iter().map(|&c| split_term(c, g).1), offset, vr)?;
                window = (window.0.min(lo), window.1.max(hi));
            }
            ((window.1 as i128 - window.0 as i128) < g.unsigned_abs() as i128).then_some(g)
        })
        .collect();
    split
        .iter()
        .any(Option::is_some)
        .then_some(Delinearized(split))
}

/// `true` when `bx` can back the dense lanes of an array's references
/// `refs`: it holds between 1 and `room` cells, and no reference's
/// linear form into it overflows. All references of an array share one
/// representation.
fn admits<'r>(
    bx: &ElementBox,
    room: u128,
    refs: impl IntoIterator<Item = &'r ArrayRef>,
    vr: &[(i64, i64)],
) -> bool {
    (1..=room).contains(&bx.cells()) && refs.into_iter().all(|r| dense_form(r, bx, vr).is_some())
}

/// Plans dense vs. sparse representation per array. An array's table is
/// the box of its subscripts over the nest; a box that fails the
/// sparsity test ([`SPARSITY_FACTOR`]) or the byte budget sends the
/// array through [`delinearize`], and the box of its cells must pass the
/// same two caps. An array both refuse records through the hashmap
/// (sparse) path, which is governed by the iteration budget during the
/// sweep. `max_table_bytes` tightens the built-in [`DENSE_BUDGET_BYTES`]
/// cap.
fn make_plan(nest: &LoopNest, threads: usize, max_table_bytes: Option<u64>) -> Plan {
    let mut refs: Vec<ArrayRef> = nest.refs().cloned().collect();
    let narrays = nest.arrays().len();
    let max_rank = refs.iter().map(ArrayRef::rank).max().unwrap_or(0).max(1);
    let mut boxes: Vec<Option<ElementBox>> = vec![None; narrays];
    let mut splits: Vec<Option<Delinearized>> = vec![None; narrays];
    let mut ref_count = vec![0u128; narrays];
    for r in &refs {
        ref_count[r.array.0] += 1;
    }

    let vr = nest.var_ranges();
    if let Some(vr) = &vr {
        let est_iters = estimated_iterations_of(nest);
        let mut polytope = PolytopeRanges::new(nest);
        // A split sweep keeps one chunk window per worker plus the merged
        // whole-nest tables live, and a window is never larger than the
        // box; split the byte budget across them (8 bytes per cell).
        let budget_bytes = match max_table_bytes {
            Some(cap) => DENSE_BUDGET_BYTES.min(cap as u128),
            None => DENSE_BUDGET_BYTES,
        };
        let budget_cells = budget_bytes / (8 * (threads as u128 + 1));
        let mut used: u128 = 0;
        for a in (0..narrays).filter(|&a| ref_count[a] > 0) {
            let mine = || refs.iter().filter(move |r| r.array.0 == a);
            let max_touched = est_iters.saturating_mul(ref_count[a]);
            let sparsity_cap = max_touched
                .saturating_mul(SPARSITY_FACTOR)
                .saturating_add(4096);
            let room = budget_cells.saturating_sub(used).min(sparsity_cap);
            let bx = polytope.union_box(mine(), vr);
            if admits(&bx, room, mine(), vr) {
                used += bx.cells();
                boxes[a] = Some(bx);
                continue;
            }
            let elements: Vec<&ArrayRef> = mine().collect();
            let Some(split) = delinearize(&elements, vr) else {
                continue;
            };
            let cells: Vec<ArrayRef> = elements.iter().map(|r| split.reference(r)).collect();
            let bx = polytope.union_box(&cells, vr);
            if admits(&bx, room, &cells, vr) {
                used += bx.cells();
                boxes[a] = Some(bx);
                splits[a] = Some(split);
                for (r, cell) in refs.iter_mut().filter(|r| r.array.0 == a).zip(cells) {
                    *r = cell;
                }
            }
        }
    }
    // A provably empty nest (`vr` is `None`) plans no table: every array
    // stays sparse.
    let modes = refs
        .iter()
        .map(|r| match (&boxes[r.array.0], &vr) {
            (Some(bx), Some(vr)) => {
                RefMode::dense(r, bx, vr).expect("checked during box selection")
            }
            _ => RefMode::Sparse,
        })
        .collect();
    let refs = refs
        .into_iter()
        .map(|r| RefPlan {
            array: r.array.0,
            sole: ref_count[r.array.0] == 1,
            r,
        })
        .collect();
    Plan {
        layout: Layout { boxes, modes },
        refs,
        splits,
        max_rank,
    }
}

/// Pass-1 output of one chunk of a sweep, recorded into its layout's
/// tables (after the fold, of the whole nest into the plan's), stamped in
/// nest-global 32-bit time. Dense touch tables are structure-of-arrays:
/// `first[a]` and `last[a]` are separate lanes over the same flattened box
/// offsets, so the run kernels and the chunk fold update each lane with
/// branch-free `min`/`max`/fill loops the compiler can vectorize. Elements
/// the planner demoted to the hashmap path sit in `sparse[a]`.
#[derive(Default)]
pub(crate) struct ChunkOut {
    /// Iterations the chunk stamped.
    pub iters: u64,
    pub accesses: Vec<u64>,
    /// First-touch stamp per cell, [`UNTOUCHED`] when never touched.
    pub first: Vec<Vec<u32>>,
    /// Last-touch stamp per cell; 0 where `first` is [`UNTOUCHED`] —
    /// always read through the `first` lane's mask.
    pub last: Vec<Vec<u32>>,
    pub sparse: Vec<HashMap<Vec<i64>, (u32, u32)>>,
    /// Chunk-local trace events (polls, the trailing commit), buffered
    /// here and flushed in chunk order by [`sweep_all`] only when the
    /// whole sweep succeeds — a failed sweep's set of completed chunks is
    /// schedule-dependent, so its events never reach the sink. Empty
    /// (never allocated) when the sweep does not narrate.
    events: Vec<TraceEvent>,
}

impl ChunkOut {
    /// Resets these tables to untouched over `boxes`, keeping their
    /// allocations: a worker sweeps every chunk it takes into one set.
    fn reset(&mut self, boxes: &[Option<ElementBox>]) {
        let n = boxes.len();
        self.iters = 0;
        self.accesses.clear();
        self.accesses.resize(n, 0);
        for (lanes, fill) in [(&mut self.first, UNTOUCHED), (&mut self.last, 0)] {
            lanes.resize_with(n, Vec::new);
            for (lane, bx) in lanes.iter_mut().zip(boxes) {
                let cells = bx.as_ref().map_or(0, |bx| bx.cells() as usize);
                // A fresh lane takes `vec!`'s allocation, zeroed by the
                // allocator where it can be, so a whole-nest sweep's
                // tables cost what they always did.
                if lane.capacity() == 0 {
                    *lane = vec![fill; cells];
                } else {
                    lane.clear();
                    lane.resize(cells, fill);
                }
            }
        }
        self.sparse.resize_with(n, HashMap::new);
        self.sparse.iter_mut().for_each(HashMap::clear);
        self.events.clear();
    }
}

/// Calls `f(dst, src, len)` for each row of window `w` inside box `bx`:
/// the row's `len` cells start at `src` in the window's lanes and at `dst`
/// in the box's. Rows run along the last dimension, so each is one
/// contiguous slice of both, and `dst` grows row by row.
fn window_rows(bx: &ElementBox, w: &ElementBox, mut f: impl FnMut(usize, usize, usize)) {
    if w.cells() == 0 {
        return;
    }
    let rank = w.lo().len();
    let len = w.extents().last().map_or(1, |&e| e as usize);
    let mut idx = vec![0i64; rank.saturating_sub(1)];
    for row in 0..(w.cells() / len as u128) as usize {
        let dst: i64 = (0..rank)
            .map(|d| (w.lo()[d] - bx.lo()[d] + idx.get(d).copied().unwrap_or(0)) * bx.strides()[d])
            .sum();
        f(dst as usize, row * len, len);
        for d in (0..idx.len()).rev() {
            idx[d] += 1;
            if idx[d] < w.extents()[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

/// Cells of one [`Band`] of the whole-nest tables.
const FOLD_BAND: usize = 1 << 16;

/// A band of the whole-nest tables a split sweep builds: [`FOLD_BAND`]
/// cells of one array's lanes, behind its own lock. Lanes are allocated
/// zeroed, which costs nothing until touched; [`Band::ready`] writes the
/// band's untouched values once, page faults included. The sweeping
/// thread readies every band while its workers sweep, so the faults
/// overlap the sweep instead of stalling the folds.
struct Band<'a> {
    ready: bool,
    first: &'a mut [u32],
    last: &'a mut [u32],
}

impl Band<'_> {
    fn ready(&mut self) -> &mut Self {
        if !self.ready {
            self.first.fill(UNTOUCHED);
            self.last.fill(0);
            self.ready = true;
        }
        self
    }
}

/// Each array's bands, in lane order.
type Bands<'a> = Vec<Vec<Mutex<Band<'a>>>>;

/// A zeroed lane over each dense box, empty for a hashmap array.
fn zeroed_lanes(boxes: &[Option<ElementBox>]) -> Vec<Vec<u32>> {
    boxes
        .iter()
        .map(|b| {
            b.as_ref()
                .map_or(Vec::new(), |bx| vec![0; bx.cells() as usize])
        })
        .collect()
}

/// Each array's `first` and `last` lanes cut into unready [`Band`]s.
fn bands<'a>(first: &'a mut [Vec<u32>], last: &'a mut [Vec<u32>]) -> Bands<'a> {
    first
        .iter_mut()
        .zip(last.iter_mut())
        .map(|(first, last)| {
            first
                .chunks_mut(FOLD_BAND)
                .zip(last.chunks_mut(FOLD_BAND))
                .map(|(first, last)| {
                    Mutex::new(Band {
                        ready: false,
                        first,
                        last,
                    })
                })
                .collect()
        })
        .collect()
}

/// Folds chunk `c`'s tables, recorded into `windows`, into the
/// whole-nest tables over `boxes` (each window lies inside its box). Both
/// carry nest-global stamps, so `first` folds by `min` and `last` by
/// `max` — a cell the chunk never touched holds [`UNTOUCHED`] / 0 and
/// loses both — and the result is the same in every fold order. A band
/// stays locked only while the window rows that fall in it fold, so
/// chunks over different bands fold side by side.
fn fold_window(
    bands: &Bands,
    boxes: &[Option<ElementBox>],
    c: &ChunkOut,
    windows: &[Option<ElementBox>],
) {
    for (a, (bx, w)) in boxes.iter().zip(windows).enumerate() {
        let (Some(bx), Some(w)) = (bx, w) else {
            continue;
        };
        let mut held: Option<(usize, std::sync::MutexGuard<Band>)> = None;
        window_rows(bx, w, |dst, src, len| {
            let (mut off, mut from, end) = (dst, src, src + len);
            while from < end {
                let (b, at) = (off / FOLD_BAND, off % FOLD_BAND);
                let n = (end - from).min(FOLD_BAND - at);
                if held.as_ref().map(|h| h.0) != Some(b) {
                    drop(held.take());
                    // A band is poisoned only by a panic that already
                    // fails the sweep; folding on keeps that panic the
                    // one reported.
                    let band = bands[a][b].lock().unwrap_or_else(|e| e.into_inner());
                    held = Some((b, band));
                }
                let band = held.as_mut().expect("band is held").1.ready();
                for (x, &y) in band.first[at..at + n]
                    .iter_mut()
                    .zip(&c.first[a][from..from + n])
                {
                    *x = (*x).min(y);
                }
                for (x, &y) in band.last[at..at + n]
                    .iter_mut()
                    .zip(&c.last[a][from..from + n])
                {
                    *x = (*x).max(y);
                }
                off += n;
                from += n;
            }
        });
    }
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

/// One chunk of a sweep: the values `lo ..= hi` of loop `level` under
/// every prefix of the loops outside it, the `index`-th chunk of its
/// split, recorded into `layout` and stamped from the starts `clock`
/// gives it.
struct Part<'a> {
    level: usize,
    index: usize,
    lo: i64,
    hi: i64,
    layout: &'a Layout,
    clock: &'a Clock,
}

impl<'a> Part<'a> {
    /// The whole nest as one chunk into the plan's tables, stamped from 0.
    fn whole(nest: &LoopNest, plan: &'a Plan) -> Part<'a> {
        let (lo, hi) = outer_range(nest);
        Part {
            level: 0,
            index: 0,
            lo,
            hi,
            layout: &plan.layout,
            clock: &Clock::Whole,
        }
    }
}

/// Sweeps one chunk under governance, one *innermost run* at a time
/// ([`try_for_each_split_run`]), into `part.layout`'s tables. Runs are cut
/// into segments of at most [`POLL_INTERVAL`] iterations, so that (a) the
/// locally counted work is charged to the shared tracker at exactly the
/// same `POLL_INTERVAL`-quanta trip points as the legacy per-iteration
/// sweep — budget trips and trip-time charges are bit-compatible — and
/// (b) cancellation is observed within ~a thousand iterations even inside
/// a single astronomically long run. Within a segment, dense references
/// dispatch to the stride-specialized [`dense_run`] kernels (the
/// outer-iteration part of the linear form is hoisted into `base`, so
/// the innermost loop walks a constant stride); sparse references keep
/// the legacy per-iteration checked-arithmetic loop (the dense path
/// needs none: the planner's `dense_form` already verified every
/// reachable term product and partial sum fits `i64`).
///
/// Stamps are nest-global: each prefix's block of the chunk starts at
/// the stamp `part.clock` gives it, so chunks fold in any order.
/// `stop_after` cleanly stops the sweep once exactly that many iterations
/// have been stamped, returning the partial tables instead of an error —
/// the salvage pass uses it to re-sweep a deterministic stream prefix.
/// `tracing` buffers the chunk's poll and commit events for
/// [`sweep_all`] to flush. The tables are `out`'s allocations, reset to
/// untouched over the layout. An error comes with the stamp it stopped
/// at.
fn sweep_chunk(
    nest: &LoopNest,
    plan: &Plan,
    part: &Part,
    tracker: &BudgetTracker,
    stop_after: Option<u64>,
    tracing: bool,
    mut out: ChunkOut,
) -> Result<ChunkOut, (SweepError, u64)> {
    let depth = nest.depth();
    let layout = part.layout;
    out.reset(&layout.boxes);
    let ChunkOut {
        first,
        last,
        sparse,
        accesses,
        ..
    } = &mut out;
    let mut idx_buf = vec![0i64; plan.max_rank];
    // Sparse references are processed per-iteration in statement order
    // (their hashmap update depends on processing order); dense and
    // sparse references touch disjoint state, and the dense lanes fold
    // with order-independent min/max, so splitting them preserves the
    // legacy interleaved result exactly.
    let sparse_refs: Vec<&RefPlan> = plan
        .refs
        .iter()
        .zip(&layout.modes)
        .filter(|(_, mode)| matches!(mode, RefMode::Sparse))
        .map(|(rp, _)| rp)
        .collect();
    // `t` is the next nest-global stamp, `done` the iterations stamped.
    let mut t: u32 = 0;
    let mut done: u64 = 0;
    let mut prefix = None;
    let mut unpolled: u32 = 0;
    // Chunk-local event buffer: `ord` starts as (0, seq); `sweep_all`
    // rewrites the chunk component to the chunk's index, so the key is
    // (chunk index, poll sequence) — schedule-independent.
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
    let (level, lo, hi) = (part.level, part.lo, part.hi);
    let flow = try_for_each_split_run(nest, level, lo, hi, &mut |p, iter, run_lo, run_hi| {
        if prefix != Some(p) {
            prefix = Some(p);
            t = part.clock.start(p, part.index, part.lo);
        }
        let mut j = run_lo;
        let mut remaining = (run_hi as i128 - run_lo as i128) as u128 + 1;
        while remaining > 0 {
            // Stamps left before the u32 clock would poison the
            // UNTOUCHED sentinel. Only a whole-nest sweep gets here: a
            // split sweep stamps fewer iterations than that. The legacy
            // sweep detected this one (discarded) iteration later; the
            // charge sequence is identical because that poisoned
            // iteration was never charged either.
            let cap = UNTOUCHED - t;
            if cap == 0 {
                return ControlFlow::Break(SweepError::Overflow(
                    "chunk exceeds the engine's u32 iteration budget".to_string(),
                ));
            }
            let mut quota = (POLL_INTERVAL - unpolled).min(cap);
            if let Some(limit) = stop_after {
                let left = limit.saturating_sub(done);
                if left == 0 {
                    return ControlFlow::Break(SweepError::Stopped);
                }
                quota = quota.min(left.min(u32::MAX as u64) as u32);
            }
            let seg = remaining.min(quota as u128) as u32;
            let seg_hi = j + (seg as i64 - 1);
            for (rp, mode) in plan.refs.iter().zip(&layout.modes) {
                accesses[rp.array] += seg as u64;
                if let RefMode::Dense {
                    outer,
                    stride,
                    constant,
                } = mode
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
            done += seg as u64;
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
        ControlFlow::Break(err) => return Err((err, t as u64)),
        ControlFlow::Continue(()) => {}
    }
    if unpolled > 0 {
        if let Err(reason) = tracker.charge_iterations(unpolled as u64) {
            return Err((SweepError::Trip(reason), t as u64));
        }
        // Trailing-charge consultation: keeps the injected overflow
        // thread-count invariant even when the threshold lands on a
        // chunk's final partial quantum.
        if tracker.fault_take_overflow() {
            return Err((
                SweepError::Overflow("chunk exceeds the engine's u32 iteration budget".to_string()),
                t as u64,
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
                lo: part.lo,
                hi: part.hi,
                iters: done,
            },
        });
    }
    out.iters = done;
    out.events = events;
    Ok(out)
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

/// Estimated iteration volume of one value `v` of loop `outer.len()`,
/// the loops outside it ranging over `outer`: the product of conservative
/// inner-range lengths with that loop pinned to `v` (the same interval
/// enclosure as [`LoopNest::var_ranges`], one level sharper). Exact for
/// rectangular and outer-dependent triangular bounds; only load balance
/// depends on it, never results. `ranges` is scratch of `nest.depth()`
/// entries, reused across calls.
fn level_volume(nest: &LoopNest, outer: &[(i64, i64)], v: i64, ranges: &mut [(i64, i64)]) -> u128 {
    let level = outer.len();
    ranges.fill((0, 0));
    ranges[..level].copy_from_slice(outer);
    ranges[level] = (v, v);
    let mut vol: u128 = 1;
    for k in level + 1..ranges.len() {
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

/// `true` when some bound of a loop inside `level` mentions its variable.
/// If none does, every inner range — and so [`level_volume`] — is the
/// same for every value of it.
fn inner_bounds_mention(nest: &LoopNest, level: usize) -> bool {
    nest.loops()[level + 1..].iter().any(|l| {
        [&l.lower, &l.upper]
            .iter()
            .any(|b| b.pieces().iter().any(|p| p.expr.coeffs()[level] != 0))
    })
}

/// Splits `lo ..= hi`, the values of loop `outer.len()` (the loops
/// outside it ranging over `outer`), into at most `parts` contiguous
/// chunks whose *estimated iteration volumes* are balanced. An even split
/// of values gives a triangular nest (`for j = i to N`) chunks whose work
/// differs by the triangle's aspect ratio; cutting by cumulative volume
/// keeps every chunk within one value's volume of the ideal share.
/// Volumes cost one scratch buffer, not one allocation per value, and
/// O(1) when no inner bound mentions the split variable.
fn chunk_ranges(
    nest: &LoopNest,
    outer: &[(i64, i64)],
    lo: i64,
    hi: i64,
    parts: usize,
) -> Vec<(i64, i64)> {
    if lo > hi || parts <= 1 {
        return vec![(lo, hi)];
    }
    let span = (hi as i128 - lo as i128 + 1) as u128;
    if span > VOLUME_SCAN_LIMIT {
        return split_range(lo, hi, parts);
    }
    let parts = parts.min(span as usize);
    // One volume per value, or a single one shared by all of them.
    let mut ranges = vec![(0i64, 0i64); nest.depth()];
    let vols: Vec<u128> = if inner_bounds_mention(nest, outer.len()) {
        (lo..=hi)
            .map(|v| level_volume(nest, outer, v, &mut ranges).max(1))
            .collect()
    } else {
        vec![level_volume(nest, outer, lo, &mut ranges).max(1)]
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

/// The loop pass 1 splits a nest on: the outermost loop, other than the
/// innermost, that some subscript indexes. The loops no subscript indexes
/// span the common null space of the access matrices, whose vectors are
/// §3.2's reuse vectors: along them the nest touches the same elements
/// again. Chunks of such a loop (a time loop) would each touch the whole
/// footprint; chunks of the split loop touch bands of it that overlap
/// only by the references' offsets. Loop 0 when no loop qualifies.
fn split_level(nest: &LoopNest) -> usize {
    (0..nest.depth().saturating_sub(1))
        .find(|&k| {
            nest.refs()
                .any(|r| (0..r.rank()).any(|d| r.matrix.row(d)[k] != 0))
        })
        .unwrap_or(0)
}

/// The variable ranges of the iterations whose loop `level` lies in
/// `lo ..= hi`: `vr` with that loop cut, and the loops inside it
/// re-ranged over the cut (interval enclosures, as in
/// [`LoopNest::var_ranges`]).
fn cut_ranges(
    nest: &LoopNest,
    vr: &[(i64, i64)],
    level: usize,
    lo: i64,
    hi: i64,
) -> Vec<(i64, i64)> {
    let mut ranges = vr.to_vec();
    ranges[level] = (lo.max(vr[level].0), hi.min(vr[level].1));
    for k in level + 1..ranges.len() {
        let l = &nest.loops()[k];
        let (a, _) = l.lower.value_range(&ranges);
        let (_, b) = l.upper.value_range(&ranges);
        ranges[k] = (a.max(vr[k].0), b.min(vr[k].1));
    }
    ranges
}

/// Most (prefix, chunk) starts a counted [`Clock`] keeps, 8 bytes each.
const CLOCK_CAP: usize = 1 << 20;

/// A counted [`Clock`] stops paying once the nest's innermost runs
/// average fewer iterations than this: counting them then costs a large
/// share of sweeping them.
const MIN_COUNTED_RUN: u64 = 16;

/// Where the chunks of a sweep start on the nest's clock: the stamp of
/// chunk `k`'s first iteration under prefix `p` is the number of
/// iterations before it in execution order.
enum Clock {
    /// A whole-nest sweep: one chunk, one prefix, from stamp 0.
    Whole,
    /// A rectangular nest, in closed form: every prefix holds `row`
    /// iterations and every value of the split loop, which starts at
    /// `lo`, holds `inner`.
    Closed { lo: i64, row: u64, inner: u64 },
    /// Counted run by run: `starts[p · chunks + k]`.
    Counted { starts: Vec<u64>, chunks: usize },
}

impl Clock {
    /// The clock of `chunks` of loop `level`, or `None` when the nest
    /// cannot be split: it has more iterations than the u32 stamps hold
    /// below [`UNTOUCHED`] (the whole-nest sweep then overflows or trips
    /// exactly as it does on one worker), or it is not rectangular and
    /// counting its runs does not pay. A rectangular nest's clock is
    /// closed-form; any other is counted run by run, polling `tracker`
    /// every [`POLL_INTERVAL`] runs without charging it.
    fn new(
        nest: &LoopNest,
        level: usize,
        chunks: &[(i64, i64)],
        tracker: &BudgetTracker,
    ) -> Result<Option<Clock>, SweepError> {
        if let Some(r) = nest.rectangular_ranges() {
            let width = |&(lo, hi): &(i64, i64)| (hi as i128 - lo as i128 + 1).max(0) as u128;
            let inner = r[level + 1..]
                .iter()
                .map(width)
                .fold(1u128, u128::saturating_mul);
            let row = width(&r[level]).saturating_mul(inner);
            let total = r[..level].iter().map(width).fold(row, u128::saturating_mul);
            return Ok((total <= UNTOUCHED as u128).then(|| Clock::Closed {
                lo: r[level].0,
                row: row as u64,
                inner: inner as u64,
            }));
        }
        let parts = chunks.len();
        let (lo, hi) = (chunks[0].0, chunks[parts - 1].1);
        let mut starts: Vec<u64> = Vec::new();
        let (mut total, mut runs) = (0u64, 0u64);
        let flow = try_for_each_split_run(nest, level, lo, hi, &mut |p, iter, a, b| {
            let row = p as usize * parts;
            if row + parts > CLOCK_CAP {
                return ControlFlow::Break(None);
            }
            if starts.len() < row + parts {
                starts.resize(row + parts, 0);
            }
            let len = (b as i128 - a as i128 + 1) as u64;
            total = total.saturating_add(len);
            if total > UNTOUCHED as u64 {
                return ControlFlow::Break(None);
            }
            starts[row + chunks.partition_point(|c| c.1 < iter[level])] += len;
            runs += 1;
            if runs % POLL_INTERVAL as u64 == 0 {
                if let Err(reason) = tracker.check() {
                    return ControlFlow::Break(Some(reason));
                }
                if total < runs * MIN_COUNTED_RUN {
                    return ControlFlow::Break(None);
                }
            }
            ControlFlow::Continue(())
        });
        match flow {
            ControlFlow::Break(None) => return Ok(None),
            ControlFlow::Break(Some(reason)) => return Err(SweepError::Trip(reason)),
            ControlFlow::Continue(()) => {}
        }
        // Exclusive prefix sums, in (prefix, chunk) order: execution order.
        let mut at = 0;
        for s in &mut starts {
            (*s, at) = (at, at + *s);
        }
        Ok(Some(Clock::Counted {
            starts,
            chunks: parts,
        }))
    }

    /// The stamp chunk `index`, whose values start at `lo`, starts at
    /// under `prefix`.
    fn start(&self, prefix: u64, index: usize, lo: i64) -> u32 {
        let at = match self {
            Clock::Whole => 0,
            Clock::Closed {
                lo: base,
                row,
                inner,
            } => prefix * row + (lo as i128 - *base as i128) as u64 * inner,
            Clock::Counted { starts, chunks } => starts[prefix as usize * chunks + index],
        };
        at as u32
    }
}

/// A split pays while its windows hold at most this many cells per
/// iteration. Each window cell costs its worker one reset and one
/// `min`/`max` fold into the nest's tables, a fraction of what sweeping
/// an iteration costs, and both spread over the workers alike. Measured
/// on 2 workers: a split whose windows hold 1.5 cells per iteration runs
/// as fast as one worker, one with 9 runs 12% slower.
const WINDOW_CELLS_PER_ITERATION: u128 = 4;

/// A sweep cut into chunks of one loop's values, each recorded into its
/// own window and stamped on the nest's clock.
struct Split {
    level: usize,
    chunks: Vec<(i64, i64)>,
    windows: Vec<Layout>,
    clock: Clock,
}

impl Split {
    /// Cuts `nest` into at most `parts` chunks of its split loop
    /// ([`split_level`]), or `None` when it does not split: fewer than
    /// two chunks, a window form that overflows, or no [`Clock`]. A
    /// `priced` split, one whose grid follows the worker count, is also
    /// refused when it does not pay: when its windows hold more than
    /// [`WINDOW_CELLS_PER_ITERATION`] cells per estimated iteration. This
    /// is the heartbeat rule of SNIPPETS.md: promote parallelism only
    /// where the split's own cost is amortized.
    fn new(
        nest: &LoopNest,
        plan: &Plan,
        parts: usize,
        priced: bool,
        tracker: &BudgetTracker,
    ) -> Result<Option<Split>, SweepError> {
        let vr = nest.var_ranges();
        let level = vr.as_ref().map_or(0, |_| split_level(nest));
        let (lo, hi) = match &vr {
            Some(vr) if level > 0 => vr[level],
            _ => outer_range(nest),
        };
        let outer = vr.as_ref().map_or(&[][..], |vr| &vr[..level]);
        let chunks = chunk_ranges(nest, outer, lo, hi, parts);
        if chunks.len() <= 1 {
            return Ok(None);
        }
        // A provably empty nest plans no dense table, so every chunk
        // records into the plan's (empty) layout.
        let windows = match &vr {
            Some(vr) => chunks
                .iter()
                .map(|&(a, b)| {
                    let ranges = cut_ranges(nest, vr, level, a, b);
                    plan.layout.window(&plan.refs, &ranges)
                })
                .collect::<Option<Vec<Layout>>>(),
            None => Some(vec![plan.layout.clone(); chunks.len()]),
        };
        let Some(windows) = windows else {
            return Ok(None);
        };
        if priced {
            let cells: u128 = windows.iter().map(Layout::cells).sum();
            let iters = estimated_iterations_of(nest);
            if cells > iters.saturating_mul(WINDOW_CELLS_PER_ITERATION) {
                return Ok(None);
            }
        }
        let Some(clock) = Clock::new(nest, level, &chunks, tracker)? else {
            return Ok(None);
        };
        Ok(Some(Split {
            level,
            chunks,
            windows,
            clock,
        }))
    }
}

/// How pass 1 sweeps a nest: its plan, its split (`None` sweeps the whole
/// nest as one chunk) and the workers that sweep the split's chunks.
struct Schedule {
    plan: Plan,
    split: Option<Split>,
    workers: usize,
}

/// Plans and splits `nest` for a sweep asked to run on `threads` workers.
/// Below [`PARALLEL_THRESHOLD`] estimated iterations it runs on one, and
/// an untraced one-worker sweep is one chunk. A traced sweep cuts the
/// pinned [`TRACE_CHUNK_PARTS`] grid whatever its worker count, so its
/// events do not depend on it.
fn schedule(
    nest: &LoopNest,
    threads: usize,
    tracker: &BudgetTracker,
    tracing: bool,
) -> Result<Schedule, SweepError> {
    let threads = if threads > 1 && estimated_iterations_of(nest) < PARALLEL_THRESHOLD {
        1
    } else {
        threads.max(1)
    };
    // An injected table-rejection fault plans as if the table cap were
    // zero: every array demotes to the sparse path (results stay exact).
    let plan_cap = if tracker.fault_reject_tables() {
        Some(0)
    } else {
        tracker.max_table_bytes()
    };
    let plan = make_plan(nest, threads, plan_cap);
    let split = if tracing {
        Split::new(nest, &plan, TRACE_CHUNK_PARTS, false, tracker)?
    } else if threads > 1 {
        Split::new(nest, &plan, threads * CHUNKS_PER_THREAD, true, tracker)?
    } else {
        None
    };
    let workers = if split.is_some() { threads } else { 1 };
    Ok(Schedule {
        plan,
        split,
        workers,
    })
}

/// Pass 1 over the whole nest: plan, split, sweep the chunks
/// (work-stealing when the schedule has more than one worker), and fold
/// each chunk's window into the nest's tables as it finishes. Stamps are
/// nest-global, so the fold is order-free and the returned tables are
/// bit-identical for every `threads` value and steal order. On a budget
/// trip or overflow, a deterministic failure wins over a
/// schedule-dependent one (workers stop pulling chunks once any error is
/// recorded), matching the error a serial sweep reports when the failing
/// computation is deterministic.
///
/// Only a `reported` sweep (see [`try_pass1`]) narrates to the tracker's
/// sink; any other sweeps exactly as it would without one.
fn sweep_all(
    nest: &LoopNest,
    nest_index: usize,
    threads: usize,
    tracker: &BudgetTracker,
    reported: bool,
) -> Result<(Plan, ChunkOut), SweepError> {
    let tracing = reported && tracker.trace().is_some();
    let started = tracing.then(std::time::Instant::now);
    let Schedule {
        plan,
        split,
        workers,
    } = schedule(nest, threads, tracker, tracing)?;
    let Some(split) = split else {
        let whole = Part::whole(nest, &plan);
        let mut out = sweep_chunk(
            nest,
            &plan,
            &whole,
            tracker,
            None,
            tracing,
            ChunkOut::default(),
        )
        .map_err(|(e, _)| e)?;
        if tracing {
            for e in &mut out.events {
                e.ord.0 = 1;
            }
            let events = std::mem::take(&mut out.events);
            flush_sweep_events(tracker, nest_index, started, events, out.iters);
        }
        return Ok((plan, out));
    };
    let chunks = &split.chunks;
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // The recorded failure, keyed for ranking: (rank, stamp or chunk
    // index), plus the chunk index panics compare against.
    type Failure = ((usize, u64), usize, SweepError);
    let failure: Mutex<Option<Failure>> = Mutex::new(None);
    // A panic inside a chunk is caught here and re-raised with its
    // original payload after the scope joins; letting it escape the
    // scoped thread would replace the payload with the generic
    // "a scoped thread panicked", diverging from the serial sweep.
    let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    // The whole-nest lanes, zeroed, cut into bands the chunks fold into;
    // and each chunk's counts, hashmap entries and events, by chunk.
    let boxes = &plan.layout.boxes;
    let (mut first, mut last) = (zeroed_lanes(boxes), zeroed_lanes(boxes));
    let bands = bands(&mut first, &mut last);
    let tallies: Vec<Mutex<Option<ChunkOut>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
    {
        let (plan, split, next, stop, failure, panicked, bands, tallies) = (
            &plan, &split, &next, &stop, &failure, &panicked, &bands, &tallies,
        );
        std::thread::scope(|s| {
            for _ in 0..workers.min(chunks.len()) {
                s.spawn(move || {
                    let mut scratch = ChunkOut::default();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= chunks.len() {
                            break;
                        }
                        let (lo, hi) = chunks[k];
                        let window = &split.windows[k];
                        let part = Part {
                            level: split.level,
                            index: k,
                            lo,
                            hi,
                            layout: window,
                            clock: &split.clock,
                        };
                        let tables = std::mem::take(&mut scratch);
                        let swept = catch_unwind(AssertUnwindSafe(|| {
                            let out =
                                sweep_chunk(nest, plan, &part, tracker, None, tracing, tables)?;
                            fold_window(bands, &plan.layout.boxes, &out, &window.boxes);
                            Ok(out)
                        }));
                        match swept {
                            Ok(Ok(mut out)) => {
                                let tally = ChunkOut {
                                    iters: out.iters,
                                    accesses: std::mem::take(&mut out.accesses),
                                    sparse: std::mem::take(&mut out.sparse),
                                    events: std::mem::take(&mut out.events),
                                    ..ChunkOut::default()
                                };
                                *tallies[k].lock().expect("chunk tally poisoned") = Some(tally);
                                scratch = out;
                            }
                            Ok(Err((e, at))) => {
                                // Overflow outranks budget trips: an
                                // overflow fires at a fixed point in the
                                // iteration stream, and among overflows
                                // the earliest stamp wins, which is the
                                // one a serial sweep meets first. Which
                                // chunks trip the shared budget is
                                // schedule-dependent, but every trip of
                                // one run reports the same reason; the
                                // smallest chunk index wins among them.
                                let key = match e {
                                    SweepError::Overflow(_) => (0, at),
                                    _ => (1, k as u64),
                                };
                                let mut slot = failure.lock().expect("failure slot poisoned");
                                if slot.as_ref().is_none_or(|prev| key < prev.0) {
                                    *slot = Some((key, k, e));
                                }
                                stop.store(true, Ordering::Relaxed);
                            }
                            Err(payload) => {
                                let mut slot = panicked.lock().expect("panic slot poisoned");
                                if slot.as_ref().is_none_or(|(prev_k, _)| k < *prev_k) {
                                    *slot = Some((k, payload));
                                }
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
            for band in bands.iter().flatten() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                band.lock().unwrap_or_else(|e| e.into_inner()).ready();
            }
        });
    }
    // A panic fires at a fixed point in the iteration stream (like an
    // overflow), so it ranks with the deterministic failures: between a
    // panic and an overflow the smaller chunk index wins, and any
    // schedule-dependent budget trip loses to it — the serial sweep would
    // have panicked before ever reaching the later chunk.
    let panic_hit = panicked.into_inner().expect("panic slot poisoned");
    let err_hit = failure.into_inner().expect("failure slot poisoned");
    if let Some((pk, payload)) = panic_hit {
        let panic_wins = match &err_hit {
            Some((_, ek, SweepError::Overflow(_))) => pk < *ek,
            _ => true,
        };
        if panic_wins {
            std::panic::resume_unwind(payload);
        }
    }
    if let Some((_, _, e)) = err_hit {
        return Err(e);
    }
    drop(bands);
    let narrays = plan.layout.boxes.len();
    let mut merged = ChunkOut {
        iters: 0,
        accesses: vec![0; narrays],
        first,
        last,
        sparse: (0..narrays).map(|_| HashMap::new()).collect(),
        events: Vec::new(),
    };
    // Chunk k's events sort after every chunk < k and after the sweep's
    // span-begin (which uses chunk component 0).
    let mut events = Vec::new();
    for (k, tally) in tallies.into_iter().enumerate() {
        let tally = tally
            .into_inner()
            .expect("chunk tally poisoned")
            .expect("every chunk swept");
        merged.iters += tally.iters;
        for (total, add) in merged.accesses.iter_mut().zip(&tally.accesses) {
            *total += add;
        }
        for (bm, cm) in merged.sparse.iter_mut().zip(tally.sparse) {
            if bm.is_empty() {
                *bm = cm;
                continue;
            }
            for (key, (f, l)) in cm {
                let cell = bm.entry(key).or_insert((f, l));
                *cell = (cell.0.min(f), cell.1.max(l));
            }
        }
        events.extend(tally.events.into_iter().map(|mut e| {
            e.ord.0 = 1 + k as u64;
            e
        }));
    }
    if tracing {
        flush_sweep_events(tracker, nest_index, started, events, merged.iters);
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
    let nest = Some(nest_index as u32);
    let [begin, end] = TraceEvent::span(Phase::Pass1, nest, "pass1", u64::MAX, started, iters);
    let mut out = Vec::with_capacity(events.len() + 2);
    out.push(begin);
    for mut e in events {
        e.nest = nest;
        out.push(e);
    }
    out.push(end);
    sink.record_all(out);
}

/// Merged pass-1 touch tables of one nest in nest-local 32-bit time —
/// everything the program engine needs to rebase the nest onto a global
/// timeline. `boxes[a]` is the dense box backing the tables'
/// `first[a]`/`last[a]` lanes (a cell is touched iff
/// `first[a][off] != UNTOUCHED`), in element coordinates unless
/// `splits[a]` says how its cells map back to elements; `refs[a]` is the
/// nest's reference count of array `a`.
pub(crate) struct NestPass1 {
    boxes: Vec<Option<ElementBox>>,
    splits: Vec<Option<Delinearized>>,
    pub refs: Vec<u32>,
    pub tables: ChunkOut,
}

impl NestPass1 {
    fn new(plan: Plan, tables: ChunkOut) -> Self {
        NestPass1 {
            refs: plan.ref_counts(),
            boxes: plan.layout.boxes,
            splits: plan.splits,
            tables,
        }
    }

    /// The box of array `a`'s dense lanes when its cells are elements:
    /// `None` for a hashmap array and for a delinearized one.
    pub(crate) fn element_box(&self, a: usize) -> Option<&ElementBox> {
        self.boxes[a].as_ref().filter(|_| self.splits[a].is_none())
    }

    /// Calls `emit(element, first, last)` for each touched dense cell of
    /// array `a`, decoded through the split when it was delinearized.
    pub(crate) fn touched_elements(&self, a: usize, mut emit: impl FnMut(Vec<i64>, u32, u32)) {
        let Some(bx) = &self.boxes[a] else { return };
        let mut cell = vec![0i64; bx.lo().len()];
        let lanes = self.tables.first[a].iter().zip(&self.tables.last[a]);
        for (off, (&first, &last)) in lanes.enumerate() {
            if first == UNTOUCHED {
                continue;
            }
            let mut rest = off as i64;
            for ((c, &lo), &s) in cell.iter_mut().zip(bx.lo()).zip(bx.strides()) {
                *c = lo + rest / s;
                rest %= s;
            }
            let element = match &self.splits[a] {
                Some(split) => split.element(&cell),
                None => cell.clone(),
            };
            emit(element, first, last);
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
        .zip(&plan.layout.modes)
        .map(|(rp, mode)| match mode {
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
        .layout
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
    let whole = Part::whole(nest, &plan);
    let out = sweep_chunk(
        nest,
        &plan,
        &whole,
        &tracker,
        Some(quota),
        false,
        ChunkOut::default(),
    );
    let out = out.ok()?;
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
/// [`AnalysisError::Exhausted`]: when `reported`, the bounds of
/// [`salvage_nest_bounds`]; otherwise the purely analytic ones.
///
/// `reported` is set by whoever owns the tracker when it reports this
/// sweep as its answer (a nest simulation, each nest of a program). Only
/// such a sweep salvages a prefix on a trip and records trace events. The
/// §4 search sweeps its baseline and every candidate against one shared
/// budget and reports none of them: re-sweeping a prefix per failed
/// candidate would multiply the tripped budget's cost for bounds nobody
/// reads, and their events would make the search's stream depend on
/// which candidates finished before a trip.
pub(crate) fn try_pass1(
    nest_index: usize,
    nest: &LoopNest,
    threads: usize,
    tracker: &BudgetTracker,
    reported: bool,
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
        Ok(sweep_all(nest, nest_index, threads, tracker, reported))
    })?;
    match swept {
        Ok((plan, merged)) => Ok(NestPass1::new(plan, merged)),
        Err(SweepError::Trip(reason)) => Err(AnalysisError::Exhausted {
            reason,
            partial: if reported {
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

    /// Pass 1 splits a time-looped nest on `i`, the outermost loop a
    /// subscript indexes, and sweeps its bands in parallel; every band's
    /// stamps land where the hashmap engine's do, profile on and off.
    #[test]
    fn time_looped_nests_split_on_the_indexed_loop() {
        for (class, src) in TIME_LOOPED {
            let nest = parse(src).unwrap();
            assert_eq!(split_level(&nest), 1, "{class}");
            let (on, off) = (
                simulate_hashmap_with_profile(&nest),
                crate::window::simulate_hashmap(&nest),
            );
            for threads in [1, 2, 3, 4] {
                assert_eq!(sweep_threads(&nest, threads), threads, "{class}");
                assert_same(&simulate(&nest, threads), &on);
                let budget = AnalysisBudget::unlimited();
                let got = try_simulate_with_threads(&nest, false, threads, &budget).unwrap();
                assert_same(&got, &off);
            }
        }
    }

    /// The paper kernels and the robustness corpus index their outermost
    /// loop, so their sweeps split where they always did.
    #[test]
    fn corpus_nests_split_on_loop_zero() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut nests = 0;
        for dir in ["kernels", "tests/robustness"] {
            for entry in std::fs::read_dir(root.join(dir)).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_none_or(|x| x != "loop") {
                    continue;
                }
                let text = std::fs::read_to_string(&path).unwrap();
                for nest in loopmem_ir::parse_program(&text).unwrap().nests() {
                    assert_eq!(split_level(nest), 0, "{}", path.display());
                    nests += 1;
                }
            }
        }
        assert!(nests >= 12, "{nests} nests");
    }

    /// Every chunk's start on the clock is the number of iterations
    /// before its first one in execution order, counted here iteration
    /// by iteration: closed-form for rectangular nests, counted run by
    /// run for the rest.
    #[test]
    fn clock_starts_count_the_stream_before_each_chunk() {
        for src in [
            "array A[12][12]\nfor t = 1 to 3 { for i = 2 to 10 { for j = 1 to 7 { A[i][j] = A[i-1][j]; } } }",
            "array A[12][12]\nfor t = 1 to 3 { for i = 2 to 10 { for j = i to 10 { A[i][j]; } } }",
            "array A[12][12]\nfor t = 1 to 4 { for i = t to 10 { for j = 1 to i { A[i][j]; } } }",
            "array A[12][12]\nfor i = 1 to 10 { for j = i to 10 { A[i][j] = A[j][i]; } }",
            "array X[40]\nfor t = 1 to 2 { for u = 1 to 3 { for i = 1 to 9 { for j = u to 9 { X[i + j]; } } } }",
        ] {
            let nest = parse(src).unwrap();
            let level = split_level(&nest);
            let vr = nest.var_ranges().unwrap();
            let (lo, hi) = vr[level];
            for parts in [2, 3, 5] {
                let chunks = chunk_ranges(&nest, &vr[..level], lo, hi, parts);
                let tracker = BudgetTracker::unlimited();
                let clock = Clock::new(&nest, level, &chunks, &tracker).unwrap().unwrap();
                assert_eq!(
                    matches!(clock, Clock::Closed { .. }),
                    nest.is_rectangular(),
                    "{src}"
                );
                let mut seen = std::collections::HashSet::new();
                let mut at = 0u64;
                let _ = try_for_each_split_run::<(), _>(&nest, level, lo, hi, &mut |p, it, a, b| {
                    let k = chunks.partition_point(|c| c.1 < it[level]);
                    if seen.insert((p, k)) {
                        assert_eq!(clock.start(p, k, chunks[k].0) as u64, at, "{src} {p} {k}");
                    }
                    at += (b - a + 1) as u64;
                    ControlFlow::Continue(())
                });
            }
        }
    }

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
        assert_eq!(sp.layout.boxes, pp.layout.boxes);
        let cells = sp.layout.cells();
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

    /// `X[10⁸·i + j]` touches 100 of the 2·10⁹ cells its element box
    /// spans: the planner delinearizes it into the 20 × 6 cells
    /// `(i, j − 1 ..= j)`. `X[100000007·i + 99999989·j]` has no such
    /// split (its low part `99999989·j` spans more than `g` = 100000007
    /// values) and falls back to the hashmap. Both agree with the hashmap
    /// engine.
    #[test]
    fn sparse_fallback_is_exact() {
        let split = parse(
            "array X[2000000006]\n\
             for i = 1 to 20 { for j = 1 to 5 { X[100000000i + j] = X[100000000i + j - 1]; } }",
        )
        .unwrap();
        let plan = make_plan(&split, 1, None);
        assert_eq!(
            plan.layout.boxes,
            [Some(ElementBox::new(&[(1, 20), (0, 5)]))]
        );
        assert_eq!(plan.splits, [Some(Delinearized(vec![Some(100_000_000)]))]);
        let refused = parse(
            "array X[1000000000]\nfor i = 1 to 20 { for j = 1 to 5 { X[100000007i + 99999989j]; } }",
        )
        .unwrap();
        let plan = make_plan(&refused, 1, None);
        assert_eq!(plan.layout.boxes, [None], "expected fallback");
        for nest in [split, refused] {
            assert_same(&simulate(&nest, 1), &simulate_hashmap_with_profile(&nest));
        }
    }

    /// The split is exact only while the low part stays inside one window
    /// of `|g|` values: over every reference, `j − 1 ..= j` spans exactly
    /// 7 values for `j ≤ 6` and 8 for `j ≤ 7`. Cell coordinates must fit
    /// `i64` as the subscripts do: `(2⁶² + 2)·i + (2⁶² + 1)·j` is −2 at
    /// `(−2, 2)`, where its low part is 2⁶³ + 2.
    #[test]
    fn delinearize_splits_a_window_of_exactly_g_values() {
        let window = |jhi: i64| {
            format!("array X[100]\nfor i = 1 to 9 {{ for j = 1 to {jhi} {{ X[7i + j] = X[7i + j - 1]; }} }}")
        };
        for (src, split) in [
            (window(6), Some(Delinearized(vec![Some(7)]))),
            (window(7), None),
            (
                "array X[10]\nfor i = -2 to -2 { for j = 2 to 2 { \
                 X[4611686018427387906i + 4611686018427387905j]; } }"
                    .to_string(),
                None,
            ),
        ] {
            let nest = parse(&src).unwrap();
            let refs: Vec<&ArrayRef> = nest.refs().collect();
            assert_eq!(
                delinearize(&refs, &nest.var_ranges().unwrap()),
                split,
                "{src}"
            );
        }
    }

    /// A negative `g` splits like a positive one, and an array splits
    /// only the rows whose coefficients call for it: each nest plans its
    /// cells, and they decode back to the elements the hashmap engine
    /// records.
    #[test]
    fn delinearized_cells_decode_to_their_elements() {
        for (src, split, cells) in [
            (
                "array X[3000000010]\nfor i = 1 to 20 { for j = 1 to 5 { X[3000000000 - 100000000i + j]; } }",
                vec![Some(-100_000_000)],
                vec![(1, 20), (3_000_000_001, 3_000_000_005)],
            ),
            (
                "array A[2000000010][8]\n\
                 for i = 1 to 20 { for j = 1 to 5 { for k = 1 to 6 { A[100000000i + j][k] = A[100000000i + j][k + 1]; } } }",
                vec![Some(100_000_000), None],
                vec![(1, 20), (1, 5), (1, 7)],
            ),
        ] {
            let nest = parse(src).unwrap();
            let plan = make_plan(&nest, 1, None);
            let split = Delinearized(split);
            assert_eq!(plan.layout.boxes, [Some(ElementBox::new(&cells))], "{src}");
            assert_eq!(plan.splits, [Some(split.clone())], "{src}");
            for (rp, r) in plan.refs.iter().zip(nest.refs()) {
                for iter in [[1, 1, 1], [20, 5, 6], [7, 3, 2]] {
                    let iter = &iter[..nest.depth()];
                    assert_eq!(split.element(&rp.r.index_at(iter)), r.index_at(iter), "{src}");
                }
            }
            assert_same(&simulate(&nest, 1), &simulate_hashmap_with_profile(&nest));
        }
    }

    /// The fold-boundary `delinearized` nests record into their cells,
    /// and the `hashmap` nests, which no split fits, into the hashmap.
    #[test]
    fn fold_boundary_classes_plan_their_tables() {
        for (class, sparse_in_time, dense_in_time) in FOLD_BOUNDARY {
            for src in [sparse_in_time, dense_in_time] {
                let plan = make_plan(&parse(src).unwrap(), 4, None);
                let x = plan.splits.len() - 1;
                match class {
                    "delinearized" => assert!(plan.splits[x].is_some(), "{src}"),
                    "hashmap" => assert_eq!(plan.layout.boxes[x], None, "{src}"),
                    _ => assert!(plan.splits.iter().all(Option::is_none), "{src}"),
                }
            }
        }
    }

    /// Windows fold into the nest's tables in any order: a split's chunks,
    /// swept one by one and folded in seeded random orders, give the
    /// whole-nest sweep's lanes bit for bit. A delinearized nest above
    /// the parallel cutoff (its windows are row bands of cells) and a
    /// time-looped stencil.
    #[test]
    fn window_folds_are_order_free() {
        let delinearized = "array X[40000000402]\n\
             for i = 1 to 400 { for j = 1 to 400 { X[100000000i + j] = X[100000000i + j - 1]; } }";
        let mut rng = loopmem_linalg::rng::Lcg::new(0x0F01_D0DE);
        for src in [delinearized, TIME_LOOPED[0].1] {
            let nest = parse(src).unwrap();
            assert!(
                estimated_iterations_of(&nest) >= PARALLEL_THRESHOLD,
                "{src}"
            );
            let tracker = BudgetTracker::unlimited();
            let plan = make_plan(&nest, 4, None);
            assert_eq!(plan.splits[0].is_some(), src == delinearized, "{src}");
            let split = Split::new(&nest, &plan, 4 * CHUNKS_PER_THREAD, true, &tracker)
                .unwrap()
                .expect("the nest splits");
            let sweep = |part: &Part| {
                sweep_chunk(
                    &nest,
                    &plan,
                    part,
                    &tracker,
                    None,
                    false,
                    ChunkOut::default(),
                )
                .unwrap_or_else(|(e, _)| panic!("{e:?}"))
            };
            let whole = sweep(&Part::whole(&nest, &plan));
            let chunks: Vec<ChunkOut> = split
                .chunks
                .iter()
                .zip(&split.windows)
                .enumerate()
                .map(|(index, (&(lo, hi), layout))| {
                    let (level, clock) = (split.level, &split.clock);
                    sweep(&Part {
                        level,
                        index,
                        lo,
                        hi,
                        layout,
                        clock,
                    })
                })
                .collect();
            let boxes = &plan.layout.boxes;
            let mut order: Vec<usize> = (0..chunks.len()).collect();
            for _ in 0..6 {
                for k in (1..order.len()).rev() {
                    order.swap(k, rng.range_usize(0, k));
                }
                let (mut first, mut last) = (zeroed_lanes(boxes), zeroed_lanes(boxes));
                let bands = bands(&mut first, &mut last);
                for &k in &order {
                    fold_window(&bands, boxes, &chunks[k], &split.windows[k].boxes);
                }
                for band in bands.iter().flatten() {
                    band.lock().unwrap().ready();
                }
                drop(bands);
                assert!(
                    first == whole.first && last == whole.last,
                    "{src}: {order:?}"
                );
            }
        }
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
            plan.layout.boxes.iter().all(Option::is_none),
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
        level_volume(nest, &[], v, &mut vec![(0, 0); nest.depth()])
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
                    chunk_ranges(&nest, &[], lo, hi, parts),
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
        let chunks = chunk_ranges(&nest, &[], 1, 100, 4);
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
        let chunks = chunk_ranges(&nest, &[], 1, 40, 4);
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
