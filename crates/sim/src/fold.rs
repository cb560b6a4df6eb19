//! Pass 2: the window fold.
//!
//! Pass 1 leaves one `(first, last)` stamp pair per touched element. An
//! element is in the window after iteration `t` exactly when
//! `first ≤ t < last` (§2.3), so the live count changes only at stamps:
//! `+1` at `first`, `−1` at `last`. [`fold`] turns the stamps into
//! per-array and total MWS, the earliest iteration at the peak, the live
//! counts at requested time boundaries and, on request, the per-iteration
//! profile. It walks the stamps once (once per pass when a dense lane
//! splits, below) and picks one of two representations from the input
//! alone:
//!
//! * **Sparse in time** (`2 · elements · SPARSE_RATIO ≤ iterations`): the
//!   `±1` events are counting-sorted by time block (about one event per
//!   block), each block is sorted exactly, and one pass over the events
//!   tracks every array's live count and the total. Removals sort before
//!   additions at equal times, so taking maxima after each addition sees
//!   exactly the live counts after whole iterations. Work and memory
//!   follow the touched elements, not the iterations.
//! * **Dense in time**: the events fold into one difference lane over
//!   iteration time, no wider than the nest's reference count needs. One
//!   iteration first-touches at most one element per reference and
//!   last-touches at most one per reference, so an array with `r`
//!   references moves its live count by at most `±r` per iteration: ≤ 127
//!   references fit an `i8` step, ≤ 32767 an `i16`. With per-array MWS
//!   each iteration's lane entry holds one such step per array, side by
//!   side, and one scan keeps every array's running sum and their total.
//!   Only when the entry would exceed 4 bytes do the arrays split over
//!   several lane passes, one after another, followed by a pass over the
//!   total alone.
//!
//! **Memory bound.** Scratch never exceeds 4 bytes per iteration: a lane
//! entry is at most 4 bytes, and the sparse branch is taken only when
//! its event buffers (2 × 16 bytes per event) and block counters (8 bytes
//! per block, at most one block per event) fit in 2.5 bytes per
//! iteration. The `MaxTableBytes` gates charge pass 2 exactly those 4
//! bytes per iteration, so they are true upper bounds. A requested
//! profile is output, not scratch, and costs 8 bytes per iteration more.

/// Sparse branch threshold: events are sorted instead of laned when
/// `events · SPARSE_RATIO ≤ iterations`.
const SPARSE_RATIO: u64 = 16;

/// The sparse branch is never taken below this many iterations, so its
/// fixed-size block counters stay inside the 4-bytes-per-iteration bound.
const SPARSE_MIN_ITERS: u64 = 16;

/// Widest dense lane entry in bytes (the 4-bytes-per-iteration bound).
const MAX_ENTRY_BYTES: usize = 4;

/// A fold's input: every touched element exactly once, as a
/// `(first, last)` pair with `first ≤ last < iterations`, array by array.
pub(crate) trait Stamps {
    /// Calls `emit(first, last)` once per touched element of `array` and
    /// returns the number of calls.
    fn array(&self, array: usize, emit: impl FnMut(u64, u64)) -> u64;
}

/// What one fold is asked for.
pub(crate) struct FoldSpec<'a> {
    /// Timeline length: every stamp is below it.
    pub iters: u64,
    /// Per array: the most elements of the array a single iteration can
    /// touch, i.e. its reference count (0 for arrays never referenced).
    pub refs: &'a [u32],
    /// Upper bound on the number of stamps the source emits.
    pub elements: u64,
    /// Report per-array MWS, not only the total.
    pub per_array: bool,
    /// Return the per-iteration total live count.
    pub profile: bool,
    /// Non-decreasing time boundaries `b`: the fold reports the live count
    /// at each (elements with `first < b ≤ last`) and, per consecutive
    /// pair, the elements live across both.
    pub bounds: &'a [u64],
}

/// Which representation a fold used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FoldPath {
    /// Events counting-sorted by time block.
    Sparse,
    /// A difference lane over iteration time.
    Dense,
}

/// Result of one [`fold`].
pub(crate) struct Fold {
    /// Elements per array.
    pub distinct: Vec<u64>,
    /// Per-array MWS, when [`FoldSpec::per_array`] asked for it.
    pub mws: Option<Vec<u64>>,
    /// Maximum over iterations of the total live count.
    pub mws_total: u64,
    /// Earliest iteration whose total live count is `mws_total` (0 when
    /// the maximum is 0).
    pub peak_t: u64,
    /// Per boundary `b`: elements with `first < b ≤ last`.
    pub live_at: Vec<u64>,
    /// Per consecutive boundary pair `(b, b')`: elements with
    /// `first < b` and `last ≥ b'`.
    pub live_across: Vec<u64>,
    /// Total live count after each iteration, when requested.
    pub profile: Option<Vec<u64>>,
    /// The representation the input selected.
    #[cfg_attr(not(test), allow(dead_code))]
    pub path: FoldPath,
    /// Peak bytes of per-iteration and per-event scratch (lane, event
    /// buffers, block counters), excluding the returned profile.
    #[cfg_attr(not(test), allow(dead_code))]
    pub scratch_bytes: u64,
}

/// Runs pass 2 over `stamps`. Results depend only on the stamps, never on
/// which branch computed them.
pub(crate) fn fold(spec: &FoldSpec, stamps: &impl Stamps) -> Fold {
    let events = spec.elements.saturating_mul(2);
    let mut tally = Tally::new(spec.refs.len(), spec.bounds);
    let core =
        if spec.iters >= SPARSE_MIN_ITERS && events.saturating_mul(SPARSE_RATIO) <= spec.iters {
            sparse(spec, stamps, events, &mut tally)
        } else {
            dense(spec, stamps, &mut tally)
        };
    let (live_at, live_across) = tally.boundaries();
    Fold {
        distinct: tally.distinct,
        mws: spec.per_array.then_some(core.mws),
        mws_total: core.peak,
        peak_t: core.peak_t,
        live_at,
        live_across,
        profile: core.profile,
        path: core.path,
        scratch_bytes: core.scratch_bytes,
    }
}

/// Bookkeeping shared by both branches: distinct counts per array and
/// the boundary difference lanes (indexed by boundary, not by time).
struct Tally<'a> {
    bounds: &'a [u64],
    distinct: Vec<u64>,
    at: Vec<i64>,
    across: Vec<i64>,
}

impl<'a> Tally<'a> {
    fn new(narrays: usize, bounds: &'a [u64]) -> Self {
        let nb = bounds.len();
        Tally {
            bounds,
            distinct: vec![0; narrays],
            at: vec![0; if nb == 0 { 0 } else { nb + 1 }],
            across: vec![0; nb],
        }
    }

    /// Records one element against the boundaries (a no-op without
    /// boundaries).
    #[inline]
    fn element(&mut self, f: u64, l: u64) {
        if f < l && !self.bounds.is_empty() {
            // Boundaries j ≥ jf lie after `first`; j < jl lie at or before
            // `last`. The element is live at boundaries jf..jl and across
            // pairs (j, j+1) for j in jf..jl-1.
            let jf = self.bounds.partition_point(|&b| b <= f);
            let jl = self.bounds.partition_point(|&b| b <= l);
            self.at[jf] += 1;
            self.at[jl] -= 1;
            if jl > jf + 1 {
                self.across[jf] += 1;
                self.across[jl - 1] -= 1;
            }
        }
    }

    fn boundaries(&self) -> (Vec<u64>, Vec<u64>) {
        let prefix = |lane: &[i64], n: usize| {
            let mut cur = 0i64;
            lane[..n]
                .iter()
                .map(|&d| {
                    cur += d;
                    cur as u64
                })
                .collect::<Vec<u64>>()
        };
        let nb = self.bounds.len();
        (
            prefix(&self.at, nb),
            prefix(&self.across, nb.saturating_sub(1)),
        )
    }
}

/// What each branch computes besides the tally.
struct Core {
    mws: Vec<u64>,
    peak: u64,
    peak_t: u64,
    profile: Option<Vec<u64>>,
    path: FoldPath,
    scratch_bytes: u64,
}

/// Sort key of one event: time, then removals before additions, then
/// array.
#[inline]
fn event_key(t: u64, add: bool, a: usize) -> u128 {
    ((t as u128) << 64) | ((add as u128) << 32) | a as u128
}

fn sparse(spec: &FoldSpec, stamps: &impl Stamps, events: u64, tally: &mut Tally) -> Core {
    let iters = spec.iters;
    let narrays = spec.refs.len();
    // Smallest block width giving at most one block per event bound.
    let cap = events.max(1);
    let mut shift = 0u32;
    while ((iters - 1) >> shift) + 1 > cap {
        shift += 1;
    }
    let nblocks = (((iters - 1) >> shift) + 1) as usize;
    let mut starts = vec![0usize; nblocks + 1];
    let mut raw: Vec<u128> = Vec::with_capacity(events as usize);
    for a in 0..narrays {
        tally.distinct[a] = stamps.array(a, |f, l| {
            tally.element(f, l);
            if f < l {
                raw.push(event_key(f, true, a));
                raw.push(event_key(l, false, a));
                starts[(f >> shift) as usize + 1] += 1;
                starts[(l >> shift) as usize + 1] += 1;
            }
        });
    }
    debug_assert!(
        raw.len() as u64 <= events,
        "stamp source exceeded its bound"
    );
    for b in 1..=nblocks {
        starts[b] += starts[b - 1];
    }
    let mut sorted = vec![0u128; raw.len()];
    let scratch_bytes = (raw.capacity() * 16 + sorted.len() * 16 + starts.len() * 8) as u64;
    for &e in &raw {
        let slot = &mut starts[((e >> 64) as u64 >> shift) as usize];
        sorted[*slot] = e;
        *slot += 1;
    }
    drop(raw);
    // `starts[b]` now ends block b (and starts block b + 1).
    let mut lo = 0;
    for &hi in &starts[..nblocks] {
        sorted[lo..hi].sort_unstable();
        lo = hi;
    }

    let mut cur = vec![0i64; narrays];
    let mut max = vec![0i64; narrays];
    let (mut total, mut peak, mut peak_t) = (0i64, 0i64, 0u64);
    let mut profile = spec.profile.then(|| Vec::with_capacity(iters as usize));
    for &e in &sorted {
        let t = (e >> 64) as u64;
        let a = e as u32 as usize;
        if let Some(p) = profile.as_mut() {
            p.resize(t as usize, total as u64);
        }
        if (e >> 32) & 1 == 1 {
            cur[a] += 1;
            max[a] = max[a].max(cur[a]);
            total += 1;
            if total > peak {
                peak = total;
                peak_t = t;
            }
        } else {
            cur[a] -= 1;
            total -= 1;
        }
    }
    if let Some(p) = profile.as_mut() {
        p.resize(iters as usize, total as u64);
    }
    Core {
        mws: max.into_iter().map(|m| m as u64).collect(),
        peak: peak as u64,
        peak_t,
        profile,
        path: FoldPath::Sparse,
        scratch_bytes,
    }
}

/// One scan over a lane: which arrays add into which field of an entry.
struct Pass {
    /// Bytes per field: 1, 2 or 4.
    width: usize,
    /// Per field, the array it holds (`None`: the total of every array).
    fields: Vec<Option<usize>>,
    /// The arrays this pass walks, each with its field index.
    walk: Vec<(usize, usize)>,
    /// The field sum is the total live count (every array is in).
    total: bool,
}

/// Bytes of a signed field holding `±r`.
fn field_width(r: u64) -> usize {
    match r {
        0..=0x7f => 1,
        0x80..=0x7fff => 2,
        _ => {
            assert!(
                r <= i32::MAX as u64,
                "{r} references exceed a 32-bit lane field"
            );
            4
        }
    }
}

/// Lane layout. Without per-array MWS: one pass over a single total
/// field. With it: one field per referenced array, all as wide as the
/// widest needs — one pass when they fit a 4-byte entry (the total is
/// their sum), otherwise per-array passes over groups that fit, then a
/// total pass.
fn plan_passes(refs: &[u32], per_array: bool) -> Vec<Pass> {
    let used: Vec<usize> = (0..refs.len()).filter(|&a| refs[a] > 0).collect();
    let total_refs: u64 = refs.iter().map(|&r| r as u64).sum();
    let total_pass = Pass {
        width: field_width(total_refs),
        fields: vec![None],
        walk: used.iter().map(|&a| (a, 0)).collect(),
        total: true,
    };
    let width = field_width(used.iter().map(|&a| refs[a] as u64).max().unwrap_or(0));
    let per_entry = MAX_ENTRY_BYTES / width;
    if !per_array || used.is_empty() {
        return vec![total_pass];
    }
    let group = |arrays: &[usize], total: bool| Pass {
        width,
        fields: arrays.iter().map(|&a| Some(a)).collect(),
        walk: arrays.iter().enumerate().map(|(k, &a)| (a, k)).collect(),
        total,
    };
    if used.len() <= per_entry {
        return vec![group(&used, true)];
    }
    used.chunks(per_entry)
        .map(|arrays| group(arrays, false))
        .chain(std::iter::once(total_pass))
        .collect()
}

/// A signed lane field.
trait Field: Copy + std::ops::AddAssign + std::ops::SubAssign {
    const ZERO: Self;
    const ONE: Self;
    fn get(self) -> i64;
}

macro_rules! field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
            #[inline]
            fn get(self) -> i64 {
                self as i64
            }
        }
    )*};
}
field!(i8, i16, i32);

fn dense(spec: &FoldSpec, stamps: &impl Stamps, tally: &mut Tally) -> Core {
    let passes = plan_passes(spec.refs, spec.per_array);
    let mut mws = vec![0u64; spec.refs.len()];
    let mut core = Core {
        mws: Vec::new(),
        peak: 0,
        peak_t: 0,
        profile: None,
        path: FoldPath::Dense,
        scratch_bytes: 0,
    };
    // Every array's stamps go through the last pass, so it alone tallies
    // them (each element exactly once).
    let last = passes.len() - 1;
    for (k, pass) in passes.iter().enumerate() {
        let tally = (k == last).then_some(&mut *tally);
        let scan = match (pass.width, pass.fields.len()) {
            (1, 1) => lane_pass::<i8, 1>(spec, pass, stamps, tally, &mut mws),
            (1, 2) => lane_pass::<i8, 2>(spec, pass, stamps, tally, &mut mws),
            (1, 3) => lane_pass::<i8, 3>(spec, pass, stamps, tally, &mut mws),
            (1, _) => lane_pass::<i8, 4>(spec, pass, stamps, tally, &mut mws),
            (2, 1) => lane_pass::<i16, 1>(spec, pass, stamps, tally, &mut mws),
            (2, _) => lane_pass::<i16, 2>(spec, pass, stamps, tally, &mut mws),
            _ => lane_pass::<i32, 1>(spec, pass, stamps, tally, &mut mws),
        };
        core.scratch_bytes = core.scratch_bytes.max(scan.bytes);
        if pass.total {
            core.peak = scan.peak;
            core.peak_t = scan.peak_t;
            core.profile = scan.profile;
        }
    }
    core.mws = mws;
    core
}

struct Scan {
    peak: u64,
    peak_t: u64,
    profile: Option<Vec<u64>>,
    bytes: u64,
}

/// Entries per block of a lane scan: locating the earliest peak walks
/// one block again.
const SCAN_BLOCK: usize = 4096;

/// Adds one lane entry to the running field sums `cur` (and, with several
/// fields, their maxima `max`) and returns their total: a sum of the
/// fields, so no loop-carried total of its own. A single field is the
/// total, so its maximum is the peak.
#[inline]
fn add_entry<F: Field, const N: usize>(
    cur: &mut [i64; N],
    max: &mut [i64; N],
    entry: &[F; N],
) -> i64 {
    if N == 1 {
        cur[0] += entry[0].get();
        return cur[0];
    }
    let mut total = 0;
    for k in 0..N {
        cur[k] += entry[k].get();
        max[k] = max[k].max(cur[k]);
        total += cur[k];
    }
    total
}

/// Fills and scans one lane of `N` fields of type `F` per iteration.
fn lane_pass<F: Field, const N: usize>(
    spec: &FoldSpec,
    pass: &Pass,
    stamps: &impl Stamps,
    mut tally: Option<&mut Tally>,
    mws: &mut [u64],
) -> Scan {
    debug_assert_eq!(pass.fields.len(), N);
    let mut lane = vec![[F::ZERO; N]; spec.iters as usize];
    for &(a, k) in &pass.walk {
        // Equal stamps would cancel in place; skip them.
        let n = match tally.as_mut().filter(|t| !t.bounds.is_empty()) {
            Some(t) => stamps.array(a, |f, l| {
                t.element(f, l);
                if f != l {
                    lane[f as usize][k] += F::ONE;
                    lane[l as usize][k] -= F::ONE;
                }
            }),
            None => stamps.array(a, |f, l| {
                if f != l {
                    lane[f as usize][k] += F::ONE;
                    lane[l as usize][k] -= F::ONE;
                }
            }),
        };
        if let Some(t) = tally.as_mut() {
            t.distinct[a] = n;
        }
    }
    let bytes = (lane.len() * N * std::mem::size_of::<F>()) as u64;
    let (mut cur, mut max) = ([0i64; N], [0i64; N]);
    let mut peak = 0i64;
    // A branch-free maximum inside each block; per block that raises it,
    // the block and the sums before it. Only the block where the peak was
    // first reached is walked again, for the earliest iteration at it.
    let mut peak_block = None;
    let mut profile = (spec.profile && pass.total).then(|| Vec::with_capacity(lane.len()));
    for (b, block) in lane.chunks(SCAN_BLOCK).enumerate() {
        let start = cur;
        let mut block_peak = peak;
        match profile.as_mut() {
            Some(p) => p.extend(block.iter().map(|e| {
                let total = add_entry(&mut cur, &mut max, e);
                block_peak = block_peak.max(total);
                total as u64
            })),
            None => {
                for e in block {
                    block_peak = block_peak.max(add_entry(&mut cur, &mut max, e));
                }
            }
        }
        if block_peak > peak {
            peak = block_peak;
            peak_block = Some((b, start));
        }
    }
    let peak_t = peak_block.map_or(0, |(b, mut sums)| {
        let at = lane[b * SCAN_BLOCK..]
            .iter()
            .position(|e| add_entry(&mut sums, &mut [0; N], e) == peak)
            .expect("the block reaches the peak");
        b * SCAN_BLOCK + at
    });
    if N == 1 {
        max[0] = peak;
    }
    for (field, &m) in pass.fields.iter().zip(&max) {
        if let Some(a) = *field {
            mws[a] = m as u64;
        }
    }
    Scan {
        peak: peak as u64,
        peak_t: peak_t as u64,
        profile,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stamps from a plain list.
    struct List(Vec<(usize, u64, u64)>);

    impl Stamps for List {
        fn array(&self, array: usize, mut emit: impl FnMut(u64, u64)) -> u64 {
            let mut n = 0;
            for &(a, f, l) in &self.0 {
                if a == array {
                    emit(f, l);
                    n += 1;
                }
            }
            n
        }
    }

    /// Quadratic reference: live counts straight from the definition.
    fn reference(iters: u64, narrays: usize, stamps: &[(usize, u64, u64)]) -> (Vec<u64>, Vec<u64>) {
        let mut per_array = vec![0u64; narrays];
        let mut profile = Vec::new();
        for t in 0..iters {
            let mut live = vec![0u64; narrays];
            for &(a, f, l) in stamps {
                if f <= t && t < l {
                    live[a] += 1;
                }
            }
            for (m, &x) in per_array.iter_mut().zip(&live) {
                *m = (*m).max(x);
            }
            profile.push(live.iter().sum());
        }
        (per_array, profile)
    }

    /// Random stamps where iteration `t` first- and last-touches at most
    /// `refs[a]` elements of array `a`, as a real nest would.
    fn random_stamps(seed: u64, iters: u64, refs: &[u32], elems: usize) -> Vec<(usize, u64, u64)> {
        let mut rng = loopmem_linalg::rng::Lcg::new(seed);
        let mut firsts = vec![vec![0u32; iters as usize]; refs.len()];
        let mut lasts = vec![vec![0u32; iters as usize]; refs.len()];
        let mut out = Vec::new();
        for _ in 0..elems * 4 {
            if out.len() == elems {
                break;
            }
            let a = rng.range_i64(0, refs.len() as i64 - 1) as usize;
            let f = rng.range_i64(0, iters as i64 - 1) as u64;
            let l = rng.range_i64(f as i64, iters as i64 - 1) as u64;
            if firsts[a][f as usize] < refs[a] && lasts[a][l as usize] < refs[a] {
                firsts[a][f as usize] += 1;
                lasts[a][l as usize] += 1;
                out.push((a, f, l));
            }
        }
        out
    }

    fn run(iters: u64, refs: &[u32], stamps: &[(usize, u64, u64)], bounds: &[u64]) -> Fold {
        let spec = FoldSpec {
            iters,
            refs,
            elements: stamps.len() as u64,
            per_array: true,
            profile: true,
            bounds,
        };
        fold(&spec, &List(stamps.to_vec()))
    }

    fn check(iters: u64, refs: &[u32], stamps: &[(usize, u64, u64)]) -> Fold {
        let got = run(iters, refs, stamps, &[]);
        let (per_array, profile) = reference(iters, refs.len(), stamps);
        assert_eq!(got.mws.as_deref(), Some(&per_array[..]), "{:?}", got.path);
        assert_eq!(got.profile.as_deref(), Some(&profile[..]), "{:?}", got.path);
        let peak = profile.iter().copied().max().unwrap_or(0);
        assert_eq!(got.mws_total, peak);
        let first_peak = profile.iter().position(|&x| x == peak).unwrap_or(0) as u64;
        assert_eq!(got.peak_t, if peak == 0 { 0 } else { first_peak });
        for (a, &d) in got.distinct.iter().enumerate() {
            assert_eq!(d, stamps.iter().filter(|s| s.0 == a).count() as u64);
        }
        got
    }

    #[test]
    fn both_branches_match_the_definition() {
        for (seed, iters, elems) in [(1, 40, 30), (2, 400, 10), (3, 2000, 20), (4, 64, 64)] {
            for refs in [&[1u32][..], &[2, 1], &[3, 1, 2], &[127], &[128, 5]] {
                let stamps = random_stamps(seed, iters, refs, elems);
                check(iters, refs, &stamps);
            }
        }
    }

    #[test]
    fn branch_follows_event_density() {
        let stamps = random_stamps(5, 4000, &[2], 100);
        assert_eq!(check(4000, &[2], &stamps).path, FoldPath::Sparse);
        let stamps = random_stamps(6, 400, &[2], 100);
        assert_eq!(check(400, &[2], &stamps).path, FoldPath::Dense);
    }

    #[test]
    fn wide_field_sets_split_into_passes() {
        // Three 2-byte fields overflow a 4-byte entry; five and twenty
        // 1-byte fields need two and five entries. Each split ends with a
        // total pass.
        for (refs, passes) in [(vec![1000u32; 3], 3), (vec![1; 5], 3), (vec![3; 20], 6)] {
            assert_eq!(plan_passes(&refs, true).len(), passes, "{refs:?}");
            assert_eq!(plan_passes(&refs, false).len(), 1, "{refs:?}");
            let stamps = random_stamps(7, 300, &refs, 200);
            assert_eq!(check(300, &refs, &stamps).path, FoldPath::Dense);
        }
    }

    #[test]
    fn lane_width_follows_reference_count() {
        let layout = |refs: &[u32], per_array: bool| {
            let passes = plan_passes(refs, per_array);
            (passes.len(), passes[0].width, passes[0].fields.len())
        };
        assert_eq!(layout(&[127], true), (1, 1, 1));
        assert_eq!(layout(&[128], true), (1, 2, 1));
        assert_eq!(layout(&[1, 1, 1, 1], true), (1, 1, 4));
        assert_eq!(layout(&[3, 3, 3], true), (1, 1, 3));
        assert_eq!(layout(&[3, 3, 3], false), (1, 1, 1));
        assert_eq!(layout(&[200, 1], true), (1, 2, 2));
        assert_eq!(layout(&[40000], true), (1, 4, 1));
        assert_eq!(layout(&[40000, 1], true), (3, 4, 1));
    }

    /// The `MaxTableBytes` gates charge pass 2 four bytes per iteration;
    /// both branches must stay inside that, 4-byte lane entries included.
    #[test]
    fn scratch_stays_within_four_bytes_per_iteration() {
        for (iters, refs, elems, path) in [
            (16u64, vec![1u32], 0usize, FoldPath::Sparse),
            (5000, vec![1], 150, FoldPath::Sparse),
            (100_000, vec![4, 4], 3000, FoldPath::Sparse),
            (3, vec![1], 1, FoldPath::Dense),
            (4000, vec![2], 1000, FoldPath::Dense),
            (2000, vec![1000, 1000, 1000], 900, FoldPath::Dense),
            (2000, vec![40000], 900, FoldPath::Dense),
            (2000, vec![3; 20], 900, FoldPath::Dense),
        ] {
            let stamps = random_stamps(iters, iters, &refs, elems);
            let got = check(iters, &refs, &stamps);
            assert_eq!(got.path, path, "iters {iters} refs {refs:?}");
            assert!(
                got.scratch_bytes <= 4 * iters,
                "{} bytes for {iters} iterations ({:?})",
                got.scratch_bytes,
                got.path
            );
        }
    }

    /// The dense scan locates the earliest peak one block at a time: here
    /// the peak is first reached in the third block, on top of a sum
    /// carried into it, and reached again two blocks later.
    #[test]
    fn earliest_peak_is_found_across_scan_blocks() {
        let iters = 5 * SCAN_BLOCK as u64;
        let stamps = [
            (30, 40),
            (100, 9500),
            (9000, 18000),
            (9005, 9100),
            (16500, 17050),
            (17000, 17100),
        ];
        let stamps: Vec<_> = stamps.iter().map(|&(f, l)| (0, f, l)).collect();
        for (elements, path) in [(6, FoldPath::Sparse), (iters, FoldPath::Dense)] {
            let spec = FoldSpec {
                iters,
                refs: &[1],
                elements,
                per_array: true,
                profile: false,
                bounds: &[],
            };
            let got = fold(&spec, &List(stamps.clone()));
            assert_eq!(got.path, path);
            assert_eq!((got.mws_total, got.peak_t), (3, 9005), "{path:?}");
        }
    }

    #[test]
    fn boundary_counts_match_the_definition() {
        let refs = [2u32, 1];
        for (seed, iters, elems) in [(11, 60, 40), (12, 5000, 60)] {
            let stamps = random_stamps(seed, iters, &refs, elems);
            let bounds = [0, 0, 7, 20, 20, 33, iters];
            let got = run(iters, &refs, &stamps, &bounds);
            for (j, &b) in bounds.iter().enumerate() {
                let want = stamps.iter().filter(|s| s.1 < b && b <= s.2).count() as u64;
                assert_eq!(got.live_at[j], want, "live at {b}");
            }
            for (j, w) in bounds.windows(2).enumerate() {
                let want = stamps.iter().filter(|s| s.1 < w[0] && s.2 >= w[1]).count() as u64;
                assert_eq!(got.live_across[j], want, "live across {w:?}");
            }
        }
    }

    #[test]
    fn empty_timeline() {
        let got = run(0, &[1], &[], &[0]);
        assert_eq!(got.mws_total, 0);
        assert_eq!(got.profile.as_deref(), Some(&[][..]));
        assert_eq!(got.live_at, vec![0]);
        assert!(got.live_across.is_empty());
    }
}
