//! Memory-layout effects — the extension the paper's §7 names as work in
//! progress ("to include the effects of memory layouts of arrays").
//!
//! The window analysis counts *elements*; a real scratchpad or cache moves
//! *lines*. This module linearizes every array under a chosen storage
//! order, slices the address space into lines, and re-runs the window and
//! replacement machinery at line granularity, exposing the spatial-
//! locality component that element counting cannot see: a row-streaming
//! kernel over a column-major array touches `N` lines per row instead
//! of `N/L`.

use crate::exec::for_each_iteration;
use crate::replacement::Trace;
use loopmem_ir::{ArrayId, LoopNest};
use std::collections::HashMap;

/// Storage order of one array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Last subscript fastest (C order).
    RowMajor,
    /// First subscript fastest (Fortran order).
    ColMajor,
}

/// A linear placement of the nest's arrays.
#[derive(Clone, Debug)]
pub struct AddressMap {
    bases: Vec<i64>,
    strides: Vec<Vec<i64>>,
}

impl AddressMap {
    /// Places every array consecutively (with guard padding so stray
    /// halo subscripts of one array can never collide with another) under
    /// per-array layouts.
    ///
    /// # Panics
    ///
    /// Panics if `layouts.len()` differs from the number of declared
    /// arrays.
    pub fn new(nest: &LoopNest, layouts: &[Layout]) -> Self {
        assert_eq!(
            layouts.len(),
            nest.arrays().len(),
            "one layout per declared array"
        );
        let mut bases = Vec::new();
        let mut strides = Vec::new();
        let mut cursor = 0i64;
        for (decl, &layout) in nest.arrays().iter().zip(layouts) {
            // Guard band: subscripts may stray one declared extent in any
            // direction (halos); triple spacing keeps arrays disjoint.
            // Bases are 64-aligned so common line sizes divide them, and
            // the canonical first element (1, 1, …) sits at the base.
            let span = decl.size();
            bases.push((cursor + span + 63) / 64 * 64);
            let dims = &decl.dims;
            let mut s = vec![0i64; dims.len()];
            match layout {
                Layout::RowMajor => {
                    let mut acc = 1i64;
                    for d in (0..dims.len()).rev() {
                        s[d] = acc;
                        acc *= dims[d];
                    }
                }
                Layout::ColMajor => {
                    let mut acc = 1i64;
                    for (d, &dim) in dims.iter().enumerate() {
                        s[d] = acc;
                        acc *= dim;
                    }
                }
            }
            strides.push(s);
            cursor += 3 * span + 64;
        }
        AddressMap { bases, strides }
    }

    /// Linear address of `index` within `array` (index `(1, 1, …)` sits at
    /// the array's aligned base, matching the DSL's 1-based convention).
    pub fn address(&self, array: ArrayId, index: &[i64]) -> i64 {
        let s = &self.strides[array.0];
        assert_eq!(index.len(), s.len(), "rank mismatch");
        self.bases[array.0]
            + index
                .iter()
                .zip(s)
                .map(|(&i, &st)| (i - 1) * st)
                .sum::<i64>()
    }
}

/// Line-granular statistics of a nest under a layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineStats {
    /// Distinct lines touched.
    pub distinct_lines: u64,
    /// Maximum line-window size (lines live between first and last use).
    pub mws_lines: u64,
    /// Total line-granular accesses (equal to element accesses).
    pub accesses: u64,
}

/// Computes line-granular window statistics and the line trace.
///
/// `line_words` is the line size in array elements (words); 1 reduces to
/// the element-granular analysis.
///
/// # Panics
///
/// Panics if `line_words == 0` or the layouts mismatch the declarations.
pub fn line_analysis(nest: &LoopNest, layouts: &[Layout], line_words: i64) -> (LineStats, Trace) {
    assert!(line_words > 0, "line size must be positive");
    let map = AddressMap::new(nest, layouts);

    // First/last touch per line, plus an interned line trace.
    struct Touch {
        first: u64,
        last: u64,
    }
    let mut touches: HashMap<i64, Touch> = HashMap::new();
    let mut intern: HashMap<i64, u32> = HashMap::new();
    let mut line_trace: Vec<u32> = Vec::new();
    let mut t = 0u64;
    for_each_iteration(nest, |it| {
        for r in nest.refs() {
            let line = map.address(r.array, &r.index_at(it)).div_euclid(line_words);
            touches
                .entry(line)
                .and_modify(|e| e.last = t)
                .or_insert(Touch { first: t, last: t });
            let next = intern.len() as u32;
            line_trace.push(*intern.entry(line).or_insert(next));
        }
        t += 1;
    });
    let iterations = t as usize;
    let mut add = vec![0i64; iterations];
    let mut rem = vec![0i64; iterations];
    for touch in touches.values() {
        add[touch.first as usize] += 1;
        rem[touch.last as usize] += 1;
    }
    let (mut cur, mut peak) = (0i64, 0i64);
    for ti in 0..iterations {
        cur += add[ti] - rem[ti];
        peak = peak.max(cur);
    }
    let stats = LineStats {
        distinct_lines: touches.len() as u64,
        mws_lines: peak as u64,
        accesses: line_trace.len() as u64,
    };
    (stats, Trace::from_line_ids(line_trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::{misses, Policy};
    use loopmem_ir::parse;

    fn row_stream() -> loopmem_ir::LoopNest {
        parse("array A[16][16]\nfor i = 1 to 16 { for j = 1 to 16 { A[i][j]; } }").unwrap()
    }

    #[test]
    fn line_size_one_matches_element_analysis() {
        let nest =
            parse("array A[20][20]\nfor i = 2 to 18 { for j = 1 to 18 { A[i][j] = A[i-1][j]; } }")
                .unwrap();
        let budget = crate::AnalysisBudget::unlimited();
        let sim = crate::try_simulate_with_threads(&nest, false, 1, &budget).unwrap();
        let (stats, _) = line_analysis(&nest, &[Layout::RowMajor], 1);
        assert_eq!(stats.distinct_lines, sim.distinct_total());
        assert_eq!(stats.mws_lines, sim.mws_total);
    }

    #[test]
    fn row_major_streaming_touches_fewer_line_transitions() {
        // Row streaming over row-major: 16*16/8 = 32 lines; over
        // column-major every consecutive access changes line.
        let nest = row_stream();
        let (rm, rm_trace) = line_analysis(&nest, &[Layout::RowMajor], 8);
        let (cm, cm_trace) = line_analysis(&nest, &[Layout::ColMajor], 8);
        assert_eq!(rm.distinct_lines, 32);
        assert_eq!(cm.distinct_lines, 32); // same footprint…
                                           // …but a tiny line buffer thrashes only under the bad layout.
        let rm_misses = misses(&rm_trace, 2, Policy::Lru);
        let cm_misses = misses(&cm_trace, 2, Policy::Lru);
        assert_eq!(rm_misses, 32, "row-major: one miss per line");
        assert!(cm_misses >= 128, "column-major thrashes: {cm_misses}");
    }

    #[test]
    fn column_major_favours_column_streaming() {
        let nest =
            parse("array A[16][16]\nfor j = 1 to 16 { for i = 1 to 16 { A[i][j]; } }").unwrap();
        let (_, cm_trace) = line_analysis(&nest, &[Layout::ColMajor], 8);
        assert_eq!(misses(&cm_trace, 2, Policy::Lru), 32);
    }

    #[test]
    fn arrays_never_share_lines() {
        let nest = parse("array A[8]\narray B[8]\nfor i = 1 to 8 { A[i] = B[i]; }").unwrap();
        let (stats, _) = line_analysis(&nest, &[Layout::RowMajor, Layout::RowMajor], 4);
        // 8 words at line size 4, two arrays: 2-3 lines each, never merged.
        assert!(stats.distinct_lines >= 4, "{stats:?}");
        let map = AddressMap::new(&nest, &[Layout::RowMajor, Layout::RowMajor]);
        let a_hi = map.address(loopmem_ir::ArrayId(0), &[8]);
        let b_lo = map.address(loopmem_ir::ArrayId(1), &[1]);
        assert!(b_lo - a_hi > 8, "guard band present");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_line_size_panics() {
        line_analysis(&row_stream(), &[Layout::RowMajor], 0);
    }
}
