//! Static classification of which §3 estimator applies to each array.
//!
//! The static analyzer asks which closed form applies to each array and
//! what reuse structure makes it apply, so `loopmem check` can explain a
//! nest's analysis path (and the sanitizer can skip knowingly-approximate
//! forms). The answer is read straight off the case analysis behind
//! [`crate::estimate_distinct`], so the two cannot disagree; like the
//! estimators it costs time polynomial in the nest description and never
//! enumerates iterations.

use crate::distinct::{cases, Method};
use loopmem_ir::{ArrayId, LoopNest};

/// Structural facts about one array's reference set, enough for the
/// analyzer to explain (and the sanitizer to trust or skip) the estimate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayClassification {
    /// Which array.
    pub array: ArrayId,
    /// The closed form [`crate::estimate_distinct`] applies at this nest's
    /// extents; `None` when none applies and the exact count comes from
    /// simulation.
    pub method: Option<Method>,
    /// Rank of the (first group's) access matrix.
    pub rank: usize,
    /// Nest depth `n` (the rank ceiling).
    pub depth: usize,
    /// Primitive integer null-space basis of the (first group's) access
    /// matrix; empty when full-rank or when no single group exists.
    pub kernel: Vec<Vec<i64>>,
    /// Number of uniformly generated groups referencing the array.
    pub group_count: usize,
    /// Total references to the array across all groups.
    pub ref_count: usize,
}

impl ArrayClassification {
    /// `true` when the closed form for this array is exact (never
    /// over-counts): the §3.1 formula with `r ≤ 2` references, the
    /// null-space form, or the separable product. The §3.1 formula with
    /// `r > 2` references over-counts overlap (Example 3: 139 against a
    /// true 121), and bounds are not exact.
    pub fn closed_form_is_exact(&self) -> bool {
        match self.method {
            Some(Method::FullRankFormula) => self.ref_count <= 2,
            Some(Method::NullspaceFormula | Method::SeparableProduct) => true,
            _ => false,
        }
    }
}

/// Classifies every *referenced* array of the nest (declared-but-unused
/// arrays are omitted, as in [`crate::estimate_distinct`]). Deterministic
/// and polynomial in the nest description; never enumerates iterations.
pub fn classify_formulas(nest: &LoopNest) -> Vec<ArrayClassification> {
    cases(nest, false)
        .into_iter()
        .map(|c| ArrayClassification {
            array: c.array,
            method: c.estimate.map(|e| e.method),
            rank: c.rank,
            depth: nest.depth(),
            kernel: c.kernel,
            group_count: c.group_count,
            ref_count: c.ref_count,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distinct::estimate_distinct;
    use loopmem_ir::parse;

    fn class_of(src: &str) -> ArrayClassification {
        classify_formulas(&parse(src).unwrap())
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn example2_is_full_rank() {
        let c = class_of(
            "array A[30][30]\nfor i = 1 to 25 { for j = 1 to 20 { A[i][j] = A[i-1][j+2]; } }",
        );
        assert_eq!(c.method, Some(Method::FullRankFormula));
        assert_eq!((c.rank, c.depth, c.ref_count), (2, 2, 2));
        assert!(c.kernel.is_empty());
        assert!(c.closed_form_is_exact());
    }

    #[test]
    fn example4_nullspace_vector_is_named() {
        let c = class_of("array A[111]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }");
        assert_eq!(c.method, Some(Method::NullspaceFormula));
        assert_eq!(c.kernel, vec![vec![5, -2]]);
        assert!(c.closed_form_is_exact());
    }

    #[test]
    fn example6_is_non_uniform() {
        let c = class_of(
            "array A[200]\nfor i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
        );
        assert_eq!(c.method, Some(Method::NonUniformBounds));
        assert_eq!(c.group_count, 2);
        assert!(!c.closed_form_is_exact());
    }

    #[test]
    fn three_ref_full_rank_is_flagged_approximate() {
        // Example 3: the paper's 139 vs the true 121 — exactness lost.
        let c = class_of(
            "array A[11][11]\nfor i = 1 to 10 { for j = 1 to 10 {\n\
             A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1];\n} }",
        );
        assert_eq!(c.method, Some(Method::FullRankFormula));
        assert_eq!(c.ref_count, 4); // write + three reads
        assert!(!c.closed_form_is_exact());
    }

    #[test]
    fn classification_matches_estimator_method() {
        // The classification reports what estimate_distinct does.
        let cases = [
            (
                "array A[10][20]\nfor i = 1 to 10 { for j = 1 to 20 { A[i][j]; } }",
                Some(Method::FullRankFormula),
            ),
            (
                "array A[61][51]\nfor i = 1 to 10 { for j = 1 to 20 { for k = 1 to 30 { A[3i + k][j + k]; } } }",
                Some(Method::NullspaceFormula),
            ),
            (
                "array R[40][40]\nfor cy = 1 to 3 { for cx = 1 to 3 { for py = 1 to 16 { for px = 1 to 16 {\nR[8*cy + py][8*cx + px];\n} } } }",
                Some(Method::SeparableProduct),
            ),
            (
                "array R[40][40]\nfor cy = 1 to 3 { for cx = 1 to 3 { for py = 1 to 4 { for px = 1 to 4 {\nR[8*cy + py][8*cx + px];\n} } } }",
                None,
            ),
            (
                "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
                None,
            ),
            (
                "array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j]; } }",
                None,
            ),
        ];
        for (src, method) in cases {
            let nest = parse(src).unwrap();
            let est = estimate_distinct(&nest);
            let c = classify_formulas(&nest).into_iter().next().unwrap();
            assert_eq!(est.get(&c.array).map(|e| e.method), method, "{src}");
            assert_eq!(c.method, method, "{src}");
        }
    }

    #[test]
    fn unreferenced_arrays_are_omitted() {
        let nest = parse("array A[10]\narray B[10]\nfor i = 1 to 10 { A[i]; }").unwrap();
        let cs = classify_formulas(&nest);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].array, ArrayId(0));
    }
}
