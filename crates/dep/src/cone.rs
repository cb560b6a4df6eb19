//! Dependence-cone queries for static transform-feasibility checks.
//!
//! §4.2 searches for a unimodular `T` whose rows all satisfy the tiling
//! condition `row · δ ≥ 0` against every legality-constraining dependence
//! distance `δ`. Before spending any search effort, a static analyzer can
//! ask a cheaper structural question: *within a small coefficient box, how
//! many linearly independent tileable rows exist at all?* If that rank is
//! below the nest depth, no fully-permutable (tileable) transformation can
//! be assembled from rows in the searched family, and MWS minimization is
//! stuck at (at best) lexicographic-only transforms — the analyzer's
//! `no-legal-transform` lint. The lint is the only consumer: the §4.2 row
//! search (`loopmem_core::bnb`) enumerates its box by branch and bound
//! alone (see DESIGN.md §11).

use crate::analysis::DependenceSet;
use crate::legality::row_tileable;
use loopmem_linalg::IMat;

/// Maximum nest depth for which [`tileable_row_rank`] enumerates the
/// coefficient box; deeper nests return `None` (query declined, not a
/// verdict) to keep the pass cheap and total.
pub const MAX_CONE_DEPTH: usize = 4;

/// The deduplicated, sorted set of legality-constraining dependence
/// distances (flow/anti/output; input dependences never constrain).
pub fn constraining_distances(deps: &DependenceSet) -> Vec<Vec<i64>> {
    let mut out: Vec<Vec<i64>> = deps
        .iter()
        .filter(|d| d.kind.constrains_legality())
        .map(|d| d.distance.clone())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Rank of the set of tileable rows within the coefficient box
/// `[-bound, bound]^n`, or `None` when `n` is 0, exceeds
/// [`MAX_CONE_DEPTH`], or `bound < 1` (query declined).
///
/// A returned rank `< n` proves that no full-rank fully-permutable
/// transformation exists with all coefficients in the box: every candidate
/// row violating `row · δ ≥ 0` for some constraining `δ` is excluded, and
/// the survivors span a proper subspace. A rank of `n` means such rows
/// exist (though a *unimodular* completion is not guaranteed by this test
/// alone).
///
/// The box is scanned in a fixed order, greedily collecting tileable rows
/// that extend the rank, and the scan stops as soon as the rank reaches
/// `n`. A row independent of the final set would have been independent
/// of the smaller set at its turn, and been collected, so the count is
/// the rank of every tileable row in the box.
pub fn tileable_row_rank(deps: &DependenceSet, n: usize, bound: i64) -> Option<usize> {
    if n == 0 || n > MAX_CONE_DEPTH || bound < 1 {
        return None;
    }
    let width = (2 * bound + 1) as usize;
    let total = width.checked_pow(n as u32)?;
    let mut basis: Vec<Vec<i64>> = Vec::with_capacity(n);
    let mut row = vec![-bound; n];
    for idx in 0..total {
        // Decode idx into the box (mixed-radix counter).
        let mut rem = idx;
        for slot in row.iter_mut() {
            *slot = (rem % width) as i64 - bound;
            rem /= width;
        }
        if row.iter().all(|&x| x == 0) || !row_tileable(&row, deps) {
            continue;
        }
        basis.push(row.clone());
        if IMat::from_rows(&basis).rank() < basis.len() {
            basis.pop();
        } else if basis.len() == n {
            break;
        }
    }
    Some(basis.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use loopmem_ir::parse;

    #[test]
    fn example8_cone_admits_full_rank() {
        // §4.2: rows (2,3) and (1,1) are both tileable, so the cone admits
        // a rank-2 tileable family (and indeed a unimodular T exists).
        let nest = parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(tileable_row_rank(&deps, 2, 2), Some(2));
        let d = constraining_distances(&deps);
        assert!(d.contains(&vec![3, -2]), "{d:?}");
        assert!(d.contains(&vec![2, 0]));
        assert!(d.contains(&vec![5, -2]));
    }

    #[test]
    fn opposed_skews_collapse_the_cone() {
        // Distances (1,-3) and (1,3): a tileable row needs r1 >= 3|r2|,
        // so inside [-2,2]^2 only multiples of (1,0) survive — rank 1.
        let nest = parse(
            "array A[100][100]\n\
             for i = 2 to 99 {\n\
               for j = 4 to 97 {\n\
                 A[i][j] = A[i-1][j+3] + A[i-1][j-3];\n\
               }\n\
             }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(tileable_row_rank(&deps, 2, 2), Some(1));
    }

    #[test]
    fn rank1_basis_spans_all_tileable_rows_in_the_box() {
        let nest = parse(
            "array A[100][100]\n\
             for i = 2 to 99 {\n\
               for j = 4 to 97 {\n\
                 A[i][j] = A[i-1][j+3] + A[i-1][j-3];\n\
               }\n\
             }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(tileable_row_rank(&deps, 2, 2), Some(1));
        // Rank 1 means every tileable row in the box lies on one line:
        // each is collinear with the first one the scan meets.
        let rows: Vec<(i64, i64)> = (-2i64..=2)
            .flat_map(|a| (-2i64..=2).map(move |b| (a, b)))
            .filter(|&(a, b)| (a, b) != (0, 0) && row_tileable(&[a, b], &deps))
            .collect();
        let (a0, b0) = rows[0];
        for &(a, b) in &rows {
            assert_eq!(a * b0, b * a0, "tileable row ({a},{b}) off the line");
        }
    }

    #[test]
    fn no_dependences_means_every_row_is_tileable() {
        let nest =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j]; } }").unwrap();
        let deps = analyze(&nest);
        // Only an input self-dependence at distance 0 (if any); nothing
        // constrains, so the whole box survives.
        assert_eq!(tileable_row_rank(&deps, 2, 1), Some(2));
        assert!(constraining_distances(&deps).is_empty());
    }

    #[test]
    fn declines_out_of_family_queries() {
        let nest = parse("array A[10]\nfor i = 1 to 10 { A[i]; }").unwrap();
        let deps = analyze(&nest);
        assert_eq!(tileable_row_rank(&deps, 0, 2), None);
        assert_eq!(tileable_row_rank(&deps, 5, 2), None);
        assert_eq!(tileable_row_rank(&deps, 1, 0), None);
    }
}
