//! Whole-program simulation: window tracking across a sequence of nests.
//!
//! A value produced by one nest and consumed by a later one is live across
//! the boundary; per-nest analysis cannot see it. The program tracker runs
//! the same first/last-touch sweep over the concatenated execution and
//! additionally reports the live set at every nest boundary — the minimum
//! inter-phase buffer.
//!
//! Pass 1 (touch recording) is *sharded across nests*: each nest runs the
//! dense engine's pass 1 (`dense::try_pass1` — flat touch tables,
//! work-stealing chunks) in nest-local time, so the nests sweep
//! concurrently on [`shard_map`](crate::dense::shard_map)'s scoped pool,
//! whose workers pull nest indices from an atomic queue. The
//! per-nest tables then fold into per-array *global* tables in execution
//! order with cumulative time offsets (the earliest nest keeps `first`,
//! the latest overwrites `last`), which reproduces the serial global-time
//! sweep bit for bit regardless of the worker count. Each global table is
//! a dense lane over the union of the nest boxes when that union stays
//! within budget; touches outside it (hashmap-fallback arrays, wildly
//! disjoint nest boxes) land in a per-array overflow map keyed by
//! coordinates. A nest table the planner delinearized holds cells, not
//! elements: it stays out of the union, and its touched cells decode
//! back to element coordinates on their way into the global table.
//!
//! Pass 2 is the window fold of [`crate::fold`], run once per nest over
//! its own tables (the per-nest MWS) and once over the global tables with
//! the nest boundaries as time marks (total MWS, boundary live sets,
//! live-through counts and the peak's nest).

use crate::budget::{analytic_nest_bounds, analytic_program_bounds, BudgetTracker};
use crate::dense::{shard_map, try_pass1, NestPass1, UNTOUCHED};
use crate::fold::{fold, FoldSpec, Stamps};
use loopmem_ir::{AnalysisError, ArrayId, Bounds, BoundsMethod, ElementBox, Program, TripReason};
use loopmem_obs::{Phase, TraceEvent};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Global-time "never touched" sentinel for the `first` slot.
const NEVER: u64 = u64::MAX;

/// Byte budget for all global dense tables of one program (16 bytes per
/// cell: a `(u64, u64)` first/last pair).
const GLOBAL_DENSE_BUDGET_BYTES: u128 = 768 << 20;

/// A union box may be at most this many times larger than the summed
/// per-nest table sizes; beyond that the nests touch far-apart regions
/// and the overflow map is both smaller and not meaningfully slower.
const UNION_SPARSITY_FACTOR: u128 = 64;

/// Result of simulating a program.
#[derive(Clone, Debug)]
pub struct ProgramSimResult {
    /// Iterations executed per nest.
    pub per_nest_iterations: Vec<u64>,
    /// Exact MWS over the whole execution (sum over arrays at the peak).
    pub mws_total: u64,
    /// Live words at each internal nest boundary (after nest `k`,
    /// `k = 0 .. len-2`): elements already touched that a later nest will
    /// touch again.
    pub boundary_live: Vec<u64>,
    /// Distinct elements per array over the whole program.
    pub distinct: HashMap<ArrayId, u64>,
    /// The peak's location: index of the nest during which the maximum
    /// window occurred.
    pub peak_nest: usize,
    /// Exact single-nest MWS per nest, computed from each nest's own
    /// pass-1 tables in nest-local time (equals the nest's
    /// [`try_simulate_with_threads`](crate::window::try_simulate_with_threads)
    /// `mws_total`, without re-sweeping the iteration space).
    pub per_nest_mws: Vec<u64>,
    /// Per nest `k`: elements whose lifetime crosses a boundary of nest
    /// `k` — live at its entry (`first` in an earlier nest), at its exit
    /// (`last` in a later nest), or both. This is `|in_k ∪ out_k|`, the
    /// inter-nest traffic the shared-scratchpad sizing adds to nest `k`'s
    /// internal window (`in_k` = `boundary_live[k-1]`, `out_k` =
    /// `boundary_live[k]`).
    pub live_through: Vec<u64>,
}

impl ProgramSimResult {
    /// Total distinct elements.
    pub fn distinct_total(&self) -> u64 {
        self.distinct.values().sum()
    }
}

/// Pass 1 over every nest, sharded on [`shard_map`]'s scoped pool:
/// outputs land in their nest's slot, so downstream merging is independent
/// of completion order. A single-nest program hands the whole pool to that
/// nest's chunk queue; otherwise leftover threads (`threads > nests`)
/// split evenly across the nest sweeps. Each nest runs through
/// [`try_pass1`], which contains panics with `catch_unwind` and polls the
/// shared tracker — so one poisoned or over-budget nest yields a per-nest
/// error (salvaged on a trip) while the remaining nests complete.
///
/// An iteration cap or an injected fault trips at a fixed position in the
/// cumulative charged-iteration stream, which nests swept side by side
/// would race to reach. Under such a budget the nests run one after
/// another in program order, each with the whole pool, so every nest's
/// outcome is the one the serial sweep gives.
fn try_sweep_nests_sharded(
    program: &Program,
    threads: usize,
    tracker: &BudgetTracker,
) -> Vec<Result<NestPass1, AnalysisError>> {
    let nests = program.nests();
    let threads = threads.max(1);
    let (workers, per_nest) = if nests.len() == 1 || tracker.trips_on_count() {
        (1, threads)
    } else {
        let workers = threads.min(nests.len());
        (workers, (threads / workers).max(1))
    };
    shard_map(nests.len(), workers, |k| {
        try_pass1(k, &nests[k], per_nest, tracker, true)
    })
}

/// Global first/last table of one array: a dense lane over the union of
/// the nest boxes (when affordable) plus an overflow map for everything
/// outside it. Times are global (u64) — a program may exceed the per-nest
/// u32 iteration budget. `touched` counts the elements recorded so far.
struct GlobalTable {
    bx: Option<ElementBox>,
    cells: Vec<(u64, u64)>,
    overflow: HashMap<Vec<i64>, (u64, u64)>,
    touched: u64,
}

impl GlobalTable {
    fn touch_cell(&mut self, off: usize, f: u64, l: u64) {
        let cell = &mut self.cells[off];
        if cell.0 == NEVER {
            *cell = (f, l);
            self.touched += 1;
        } else {
            cell.1 = l;
        }
    }

    fn touch_coords(&mut self, coords: Vec<i64>, f: u64, l: u64) {
        if let Some(off) = self.bx.as_ref().and_then(|bx| bx.flatten(&coords)) {
            self.touch_cell(off, f, l);
            return;
        }
        match self.overflow.entry(coords) {
            Entry::Occupied(mut e) => e.get_mut().1 = l,
            Entry::Vacant(e) => {
                e.insert((f, l));
                self.touched += 1;
            }
        }
    }
}

/// The folded global tables as pass-2 stamps.
struct GlobalStamps<'a>(&'a [GlobalTable]);

impl Stamps for GlobalStamps<'_> {
    fn array(&self, a: usize, mut emit: impl FnMut(u64, u64)) -> u64 {
        let g = &self.0[a];
        for &(f, l) in &g.cells {
            if f != NEVER {
                emit(f, l);
            }
        }
        for &(f, l) in g.overflow.values() {
            emit(f, l);
        }
        g.touched
    }
}

/// Chooses each array's global box: the per-dimension union of the nest
/// boxes, unless the union blows the byte budget or is far sparser than
/// the tables it absorbs (disjoint nest boxes) — then `None`, and every
/// touch of the array goes through the overflow map.
fn plan_global_tables(
    narrays: usize,
    per_nest: &[Option<NestPass1>],
    max_table_bytes: Option<u64>,
) -> Vec<GlobalTable> {
    let budget_bytes = match max_table_bytes {
        Some(cap) => GLOBAL_DENSE_BUDGET_BYTES.min(cap as u128),
        None => GLOBAL_DENSE_BUDGET_BYTES,
    };
    let mut budget = budget_bytes / 16;
    (0..narrays)
        .map(|a| {
            let mut union: Option<Vec<(i64, i64)>> = None;
            let mut absorbed: u128 = 0;
            for np in per_nest.iter().flatten() {
                // Delinearized cells are not elements: `assemble` decodes
                // them instead.
                let Some(bx) = np.element_box(a) else {
                    continue;
                };
                absorbed += bx.cells();
                // A nest box always has extents >= 1 per dimension, but the
                // upper corner `lo + extent - 1` can still leave `i64` for
                // planner-saturated boxes; saturate rather than overflow
                // (the union is only used conservatively).
                let ranges: Vec<(i64, i64)> = bx
                    .lo()
                    .iter()
                    .zip(bx.extents())
                    .map(|(&l, &e)| (l, l.saturating_add(e.saturating_sub(1))))
                    .collect();
                match &mut union {
                    slot @ None => *slot = Some(ranges),
                    Some(acc) => {
                        for (u, r) in acc.iter_mut().zip(&ranges) {
                            u.0 = u.0.min(r.0);
                            u.1 = u.1.max(r.1);
                        }
                    }
                }
            }
            let bx = union.as_deref().map(ElementBox::new).filter(|bx| {
                let cells = bx.cells();
                cells > 0
                    && cells <= budget
                    && cells
                        <= absorbed
                            .saturating_mul(UNION_SPARSITY_FACTOR)
                            .saturating_add(4096)
            });
            let cells = match &bx {
                Some(bx) => {
                    budget -= bx.cells();
                    vec![(NEVER, 0u64); bx.cells() as usize]
                }
                None => Vec::new(),
            };
            GlobalTable {
                bx,
                cells,
                overflow: HashMap::new(),
                touched: 0,
            }
        })
        .collect()
}

/// Folds one nest's dense lanes (over `nest_bx`, nest-local time) into the
/// array's global table, rebasing times by `t0`. The nest box is a
/// sub-box of the global box by construction, so the walk keeps a running
/// global offset like an odometer — no per-cell division.
fn fold_dense_table(
    nest_bx: &ElementBox,
    first: &[u32],
    last: &[u32],
    g: &mut GlobalTable,
    t0: u64,
) {
    let gbx =
        g.bx.as_ref()
            .expect("dense fold target must have a global box");
    let rank = nest_bx.lo().len();
    let ext = nest_bx.extents();
    let gs = gbx.strides().to_vec();
    let mut goff: usize = 0;
    for ((&nlo, &glo), &s) in nest_bx.lo().iter().zip(gbx.lo()).zip(&gs) {
        goff += (nlo - glo) as usize * s as usize;
    }
    let mut idx = vec![0i64; rank];
    for (&f, &l) in first.iter().zip(last) {
        if f != UNTOUCHED {
            g.touch_cell(goff, f as u64 + t0, l as u64 + t0);
        }
        let mut d = rank - 1;
        loop {
            idx[d] += 1;
            goff += gs[d] as usize;
            if idx[d] < ext[d] {
                break;
            }
            goff -= ext[d] as usize * gs[d] as usize;
            idx[d] = 0;
            if d == 0 {
                break;
            }
            d -= 1;
        }
    }
}

/// Fold + pass-2 sweep over per-nest pass-1 tables. `None` slots are nests
/// whose governed sweep failed: they contribute zero iterations and no
/// touches, so the result is the exact simulation of the program restricted
/// to the successful nests (a valid lower bound on the full program's MWS —
/// dropping accesses only shrinks windows).
fn assemble(
    narrays: usize,
    per_nest: Vec<Option<NestPass1>>,
    max_table_bytes: Option<u64>,
) -> ProgramSimResult {
    // Fold the per-nest tables in execution order, rebasing nest-local
    // times by the cumulative iteration count: an element's `first` comes
    // from the earliest nest touching it, `last` from the latest.
    let nnests = per_nest.len();
    let mut tables = plan_global_tables(narrays, &per_nest, max_table_bytes);
    let mut per_nest_iterations = Vec::with_capacity(nnests);
    let mut per_nest_mws = Vec::with_capacity(nnests);
    // Per array, the most references any one nest makes to it: one global
    // iteration runs one nest, so this bounds the global lane's step.
    let mut refs = vec![0u32; narrays];
    let mut nest_end = Vec::with_capacity(nnests); // global t after each nest
    let mut t = 0u64;
    for np_slot in per_nest {
        let Some(np) = np_slot else {
            per_nest_iterations.push(0);
            per_nest_mws.push(0);
            nest_end.push(t);
            continue;
        };
        // Exact single-nest MWS straight off the nest's own tables, the
        // same fold `simulate` runs: no re-sweep of the iteration space.
        per_nest_mws.push(np.tables.fold(&np.refs, false, false).mws_total);
        for (r, &nr) in refs.iter_mut().zip(&np.refs) {
            *r = (*r).max(nr);
        }
        for (a, g) in tables.iter_mut().enumerate() {
            if np.tables.accesses[a] == 0 {
                continue;
            }
            match (np.element_box(a), &g.bx) {
                (Some(nest_bx), Some(_)) => {
                    fold_dense_table(nest_bx, &np.tables.first[a], &np.tables.last[a], g, t);
                }
                // Union box rejected, or the nest's cells delinearized:
                // the touched cells go in by element coordinates.
                _ => np.touched_elements(a, |element, f, l| {
                    g.touch_coords(element, f as u64 + t, l as u64 + t);
                }),
            }
            for (coords, &(f, l)) in &np.tables.sparse[a] {
                g.touch_coords(coords.clone(), f as u64 + t, l as u64 + t);
            }
        }
        t += np.tables.iters;
        per_nest_iterations.push(np.tables.iters);
        nest_end.push(t);
    }

    // Pass 2 over global time, with every nest start and end as a time
    // boundary `b` (`live_at[b]`: elements with `first < b ≤ last`):
    // `boundary_live` is the live set at each internal nest end, and
    // nest `k`'s live-through is `|in_k ∪ out_k| = in_k + out_k − cross_k`,
    // where `in_k`/`out_k` are the live sets at its start/end and `cross_k`
    // the elements live across both.
    let bounds: Vec<u64> = std::iter::once(0).chain(nest_end.iter().copied()).collect();
    let spec = FoldSpec {
        iters: t,
        refs: &refs,
        elements: tables.iter().map(|g| g.touched).sum(),
        per_array: false,
        profile: false,
        bounds: &bounds,
    };
    let fold = fold(&spec, &GlobalStamps(&tables));
    let boundary_live = fold.live_at[1..nnests.max(1)].to_vec();
    let live_through = (0..nnests)
        .map(|k| fold.live_at[k] + fold.live_at[k + 1] - fold.live_across[k])
        .collect();
    let distinct = (0..narrays)
        .filter(|&a| fold.distinct[a] > 0)
        .map(|a| (ArrayId(a), fold.distinct[a]))
        .collect();
    let peak_nest = nest_end
        .iter()
        .position(|&end| fold.peak_t < end)
        .unwrap_or(0);

    ProgramSimResult {
        per_nest_iterations,
        mws_total: fold.mws_total,
        boundary_live,
        per_nest_mws,
        live_through,
        distinct,
        peak_nest,
    }
}

/// Outcome of a governed program simulation: per-nest results, the exact
/// simulation of the successful subset, and analytical bounds on the full
/// program's MWS.
#[derive(Debug)]
pub struct GovernedProgramSim {
    /// Per nest, in program order: iterations swept, or why the nest's
    /// analysis failed (`Exhausted` entries carry that nest's own
    /// analytical MWS bounds).
    pub per_nest: Vec<Result<u64, AnalysisError>>,
    /// Exact window tracking over the successful nests only: the whole
    /// program's exact simulation when
    /// [`all_exact`](GovernedProgramSim::all_exact) holds.
    pub sim: ProgramSimResult,
    /// Bounds on the *full* program's MWS. A point interval when every
    /// nest succeeded; otherwise `[subset MWS, subset MWS + Σ failed-nest
    /// distinct-element uppers]` — removing a nest's accesses can only
    /// shrink windows (lower), and restoring them can grow the window by at
    /// most the elements that nest touches (upper).
    pub mws_bounds: Bounds,
}

impl GovernedProgramSim {
    /// True when every nest simulated exactly.
    pub fn all_exact(&self) -> bool {
        self.per_nest.iter().all(Result::is_ok)
    }
}

/// The failed nests of `per_nest` folded into one interval: `upper` sums
/// their analytical MWS uppers (the `Exhausted` payload's, recomputed for
/// the other failure modes by pure interval analysis, which cannot
/// panic), and `lower` is the best salvaged-prefix lower among them. That
/// lower bounds its nest's own MWS, and so every whole-program quantity
/// the nest's window enters, beyond what the successful subset shows.
pub fn failed_nest_bounds<T>(program: &Program, per_nest: &[Result<T, AnalysisError>]) -> Bounds {
    let mut failed = Bounds {
        lower: 0,
        upper: 0,
        method: BoundsMethod::PartialProgram,
    };
    for (k, outcome) in per_nest.iter().enumerate() {
        let Err(e) = outcome else { continue };
        let b = e
            .bounds()
            .unwrap_or_else(|| analytic_nest_bounds(&program.nests()[k]));
        failed.lower = failed.lower.max(b.lower);
        failed.upper = failed.upper.saturating_add(b.upper);
    }
    failed
}

/// Governed whole-program simulation with exact window tracking across
/// nest boundaries, charging `tracker` (one deadline and one cumulative
/// iteration count, shared with whatever other governed work its owner
/// runs). Each nest's pass 1 is wrapped in `catch_unwind` (a poisoned nest
/// yields [`AnalysisError::NestPanicked`] for that nest while the rest of
/// the program completes) and polls the tracker. Per-nest failures degrade
/// that nest to salvaged or analytical bounds; the program-level result
/// composes the exact subset simulation with those bounds. The top-level
/// `Err` is reserved for whole-program failures (the global fold itself
/// exceeding the tracker's table cap). Pass-1 sweeps shard across nests;
/// the fold and pass-2 sweep are serial, so the result is bit-identical
/// for every `threads` value.
///
/// `loopmem::Session::simulate_program` is the front door: it builds the
/// tracker from the session's budget.
pub fn try_simulate_program_tracked(
    program: &Program,
    threads: usize,
    tracker: &BudgetTracker,
) -> Result<GovernedProgramSim, AnalysisError> {
    let narrays = program.arrays().len();
    let max_table_bytes = tracker.max_table_bytes();
    let results = try_sweep_nests_sharded(program, threads, tracker);

    // The pass-2 fold's scratch is at most 4 bytes per global iteration;
    // gate it on the same byte budget as the touch tables before allocating.
    let total_iters: u64 = results
        .iter()
        .filter_map(|r| r.as_ref().ok().map(|np| np.tables.iters))
        .fold(0, u64::saturating_add);
    if let Some(cap) = max_table_bytes {
        if total_iters.saturating_mul(4) > cap {
            return Err(AnalysisError::Exhausted {
                reason: TripReason::MaxTableBytes,
                partial: analytic_program_bounds(program),
            });
        }
    }

    let mut per_nest: Vec<Result<u64, AnalysisError>> = Vec::with_capacity(results.len());
    let slots: Vec<Option<NestPass1>> = results
        .into_iter()
        .map(|r| match r {
            Ok(np) => {
                per_nest.push(Ok(np.tables.iters));
                Some(np)
            }
            Err(e) => {
                per_nest.push(Err(e));
                None
            }
        })
        .collect();
    // The global fold + pass-2 sweep is serial and deterministic; its span
    // charges the global iteration total (schedule-independent whenever
    // the per-nest outcome set is — the scope chaos oracle 6 pins).
    let fold_started = tracker.trace().map(|_| std::time::Instant::now());
    let sim = assemble(narrays, slots, max_table_bytes);
    if let Some(sink) = tracker.trace() {
        let span = TraceEvent::span(Phase::Pass2, None, "pass2", 1, fold_started, total_iters);
        sink.record_all(span.into());
    }

    let mws_bounds = if per_nest.iter().all(Result::is_ok) {
        Bounds::exact(sim.mws_total)
    } else {
        let failed = failed_nest_bounds(program, &per_nest);
        Bounds {
            lower: sim.mws_total.max(failed.lower),
            upper: sim.mws_total.saturating_add(failed.upper),
            method: BoundsMethod::PartialProgram,
        }
    };
    Ok(GovernedProgramSim {
        per_nest,
        sim,
        mws_bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::AnalysisBudget;
    use crate::window::{try_simulate_with_threads, SimResult};
    use loopmem_ir::{parse_program, LoopNest};

    fn simulate_program(p: &Program, threads: usize) -> ProgramSimResult {
        let gov = try_simulate_program_tracked(p, threads, &BudgetTracker::unlimited()).unwrap();
        assert!(gov.all_exact());
        gov.sim
    }

    fn simulate(nest: &LoopNest) -> SimResult {
        try_simulate_with_threads(nest, false, 1, &AnalysisBudget::unlimited()).unwrap()
    }

    #[test]
    fn single_nest_program_matches_nest_simulation() {
        let src = "array X[200]\n\
                   for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }";
        let p = parse_program(src).unwrap();
        let ps = simulate_program(&p, 2);
        let ns = simulate(&p.nests()[0]);
        assert_eq!(ps.mws_total, ns.mws_total);
        assert_eq!(ps.distinct_total(), ns.distinct_total());
        assert!(ps.boundary_live.is_empty());
        assert_eq!(ps.peak_nest, 0);
    }

    #[test]
    fn producer_consumer_keeps_array_live_across_boundary() {
        // Nest 0 writes all of A; nest 1 reads all of A into a fresh
        // output. Every element of A is live at the boundary (and only A:
        // B and C are each touched in one nest only).
        let p = parse_program(
            "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let ps = simulate_program(&p, 2);
        assert_eq!(ps.boundary_live, vec![64], "all of A crosses the boundary");
        assert!(ps.mws_total >= 64);
        // Per-nest analysis sees only tiny windows — the whole point.
        assert!(simulate(&p.nests()[0]).mws_total <= 2);
    }

    #[test]
    fn independent_phases_have_empty_boundaries() {
        let p = parse_program(
            "array A[8]\narray B[8]\n\
             for i = 1 to 8 { A[i] = A[i] + 1; }\n\
             for i = 1 to 8 { B[i] = B[i] + 1; }",
        )
        .unwrap();
        let ps = simulate_program(&p, 2);
        assert_eq!(ps.boundary_live, vec![0]);
        assert_eq!(ps.distinct_total(), 16);
    }

    #[test]
    fn three_phase_pipeline_boundaries() {
        // A -> B -> C pipeline over rows: boundary 0 carries B(written by
        // phase 0? no: phase 0 writes B from A; boundary carries B).
        let p = parse_program(
            "array A[6][6]\narray B[6][6]\narray C[6][6]\n\
             for i = 1 to 6 { for j = 1 to 6 { B[i][j] = A[i][j]; } }\n\
             for i = 1 to 6 { for j = 1 to 6 { C[i][j] = B[i][j]; } }\n\
             for i = 1 to 6 { for j = 1 to 6 { C[i][j] = C[i][j] + 1; } }",
        )
        .unwrap();
        let ps = simulate_program(&p, 2);
        assert_eq!(ps.per_nest_iterations, vec![36, 36, 36]);
        assert_eq!(ps.boundary_live.len(), 2);
        assert_eq!(ps.boundary_live[0], 36, "B crosses boundary 0");
        assert_eq!(ps.boundary_live[1], 36, "C crosses boundary 1");
    }

    #[test]
    fn thread_count_does_not_change_program_results() {
        let p = parse_program(
            "array A[20][20]\narray B[20][20]\n\
             for i = 1 to 20 { for j = 1 to 20 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 20 { for j = i to 20 { B[i][j] = A[i][j]; } }\n\
             for i = 2 to 20 { for j = 1 to 20 { A[i][j] = A[i-1][j]; } }",
        )
        .unwrap();
        let one = simulate_program(&p, 1);
        for threads in [2, 3, 4, 8] {
            let par = simulate_program(&p, threads);
            assert_eq!(par.per_nest_iterations, one.per_nest_iterations);
            assert_eq!(par.mws_total, one.mws_total);
            assert_eq!(par.boundary_live, one.boundary_live);
            assert_eq!(par.distinct, one.distinct);
            assert_eq!(par.peak_nest, one.peak_nest);
            assert_eq!(par.per_nest_mws, one.per_nest_mws);
            assert_eq!(par.live_through, one.live_through);
        }
    }

    #[test]
    fn per_nest_mws_matches_single_nest_simulation() {
        // Mixed shapes: stencil, triangular, producer/consumer — the
        // tables-derived per-nest MWS must equal each nest's own exact
        // simulation.
        let p = parse_program(
            "array A[20][20]\narray B[20][20]\n\
             for i = 2 to 20 { for j = 1 to 20 { A[i][j] = A[i-1][j] + A[i][j]; } }\n\
             for i = 1 to 20 { for j = i to 20 { B[i][j] = A[i][j]; } }\n\
             for i = 1 to 20 { for j = 1 to 20 { B[i][j] = B[i][j] + 1; } }",
        )
        .unwrap();
        let ps = simulate_program(&p, 2);
        for (k, nest) in p.nests().iter().enumerate() {
            assert_eq!(
                ps.per_nest_mws[k],
                simulate(nest).mws_total,
                "nest {k} per-nest MWS off"
            );
        }
    }

    #[test]
    fn live_through_counts_boundary_crossers() {
        // A crosses boundary 0 only (64 elements); B and C stay inside
        // their own nest. live_through is `|in ∪ out|` per nest.
        let p = parse_program(
            "array A[8][8]\narray B[8][8]\narray C[8][8]\n\
             for i = 1 to 8 { for j = 1 to 8 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 8 { for j = 1 to 8 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap();
        let ps = simulate_program(&p, 2);
        assert_eq!(ps.live_through, vec![64, 64]);
        // An element spanning all three nests counts once per nest it
        // crosses, not once per boundary: union, not sum.
        let p3 = parse_program(
            "array A[5]\narray B[5]\n\
             for i = 1 to 5 { A[i] = A[i] + 1; }\n\
             for i = 1 to 5 { B[i] = B[i] + 1; }\n\
             for i = 1 to 5 { A[i] = A[i] + B[i]; }",
        )
        .unwrap();
        let ps3 = simulate_program(&p3, 2);
        // Nest 1: A passes over it (5, in cross set), B enters and exits
        // within... B first-touched in nest 1, last in nest 2: crosses its
        // exit only (5). Union = 10.
        assert_eq!(ps3.boundary_live, vec![5, 10]);
        assert_eq!(ps3.live_through, vec![5, 10, 10]);
        // Every boundary crosser is a live-through of both adjacent nests.
        for (k, &b) in ps3.boundary_live.iter().enumerate() {
            assert!(ps3.live_through[k] >= b);
            assert!(ps3.live_through[k + 1] >= b);
        }
    }

    /// Every internal boundary gets a live count, also after leading
    /// nests that run no iterations (the live set there is empty).
    #[test]
    fn leading_empty_nests_keep_every_boundary() {
        let p = parse_program(
            "array A[8]\narray B[8]\n\
             for i = 5 to 4 { A[i] = A[i] + 1; }\n\
             for i = 1 to 8 { A[i] = B[i]; }\n\
             for i = 1 to 8 { B[i] = A[i]; }",
        )
        .unwrap();
        let ps = simulate_program(&p, 2);
        assert_eq!(ps.per_nest_iterations, vec![0, 8, 8]);
        assert_eq!(ps.boundary_live, vec![0, 16]);
        assert_eq!(ps.live_through, vec![0, 16, 16]);
        assert_eq!(ps.peak_nest, 1);
    }

    #[test]
    fn peak_nest_is_identified() {
        // Phase 1 touches a big array twice (peak inside phase 1).
        let p = parse_program(
            "array A[4]\narray B[12][12]\n\
             for i = 1 to 4 { A[i] = A[i] + 1; }\n\
             for t = 1 to 2 { for i = 1 to 12 { for j = 1 to 12 { B[i][j] = B[i][j] + 1; } } }",
        )
        .unwrap();
        let ps = simulate_program(&p, 2);
        assert_eq!(ps.peak_nest, 1);
        assert_eq!(ps.mws_total, 144);
    }
}
