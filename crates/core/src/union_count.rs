//! Exact distinct-access counting for full-rank uniformly generated
//! groups by inclusion–exclusion — our fix for the §3.1 formula's
//! higher-order overlap blindness.
//!
//! With a full-rank access matrix, each reference's element set is the
//! image of the iteration box shifted by `A⁻¹·c_k`; two references
//! overlap only if their shift difference is integral (otherwise their
//! lattices are disjoint). Within such a *lattice class* the union of `r`
//! shifted copies of a box is computed exactly by inclusion–exclusion:
//! every intersection of shifted boxes is itself a box, so each of the
//! `2^r − 1` terms is a closed-form volume. Example 3 — where the paper's
//! formula reports 139 — comes out at the true 121.

use crate::distinct::{DistinctEstimate, Method};
use loopmem_dep::uniform::UniformGroup;
use loopmem_linalg::hnf::solve_diophantine;

/// Exact distinct-element count of a full-rank uniformly generated group
/// over the rectangular iteration ranges, or `None` when the group's
/// access matrix is rank-deficient (use the null-space machinery instead)
/// or too many references would make inclusion–exclusion explode
/// (`r > 20`).
pub fn exact_union_count(g: &UniformGroup, ranges: &[(i64, i64)]) -> Option<DistinctEstimate> {
    let n = g.matrix.ncols();
    if g.matrix.rank() != n || g.len() > 20 {
        return None;
    }
    // Integer shifts relative to each lattice class representative.
    let offsets: Vec<&Vec<i64>> = g.members.iter().map(|(_, o, _)| o).collect();
    let shift = |a: usize, b: usize| -> Option<Vec<i64>> {
        let rhs: Vec<i64> = offsets[a]
            .iter()
            .zip(offsets[b])
            .map(|(&x, &y)| x - y)
            .collect();
        solve_diophantine(&g.matrix, &rhs).map(|s| s.particular)
    };

    // Partition references into lattice classes (disjoint element sets).
    let r = offsets.len();
    let mut class_of: Vec<Option<usize>> = vec![None; r];
    let mut classes: Vec<Vec<(usize, Vec<i64>)>> = Vec::new(); // (ref, shift vs rep)
    for k in 0..r {
        if class_of[k].is_some() {
            continue;
        }
        let cid = classes.len();
        class_of[k] = Some(cid);
        let mut members = vec![(k, vec![0i64; n])];
        #[allow(clippy::needless_range_loop)] // class_of is mutated while scanning
        for j in k + 1..r {
            if class_of[j].is_some() {
                continue;
            }
            if let Some(d) = shift(j, k) {
                class_of[j] = Some(cid);
                members.push((j, d));
            }
        }
        classes.push(members);
    }

    // Inclusion–exclusion within each class; classes are disjoint.
    let mut total: i64 = 0;
    for class in &classes {
        // Deduplicate identical shifts (identical element sets).
        let mut shifts: Vec<&Vec<i64>> = class.iter().map(|(_, d)| d).collect();
        shifts.sort();
        shifts.dedup();
        let m = shifts.len();
        debug_assert!(m <= 20);
        for mask in 1u32..(1 << m) {
            // Intersection of the selected shifted boxes: per dimension,
            // [max (lo + d), min (hi + d)].
            let mut vol: i64 = 1;
            for (dim, &(lo, hi)) in ranges.iter().enumerate() {
                let mut ilo = i64::MIN;
                let mut ihi = i64::MAX;
                for (bit, d) in shifts.iter().enumerate() {
                    if mask & (1 << bit) != 0 {
                        ilo = ilo.max(lo + d[dim]);
                        ihi = ihi.min(hi + d[dim]);
                    }
                }
                vol *= (ihi - ilo + 1).max(0);
                if vol == 0 {
                    break;
                }
            }
            if mask.count_ones() % 2 == 1 {
                total += vol;
            } else {
                total -= vol;
            }
        }
    }
    Some(DistinctEstimate {
        lower: total,
        upper: total,
        method: Method::InclusionExclusion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_dep::uniform::uniform_groups;
    use loopmem_ir::{parse, ArrayId};
    use loopmem_poly::count::distinct_accesses_for;

    fn group_of(src: &str) -> (loopmem_ir::LoopNest, UniformGroup) {
        let nest = parse(src).expect("test source parses");
        let g = uniform_groups(&nest).into_iter().next().expect("one group");
        (nest, g)
    }

    #[test]
    fn example3_true_union_is_121() {
        let (nest, g) = group_of(
            "array A[11][11]\nfor i = 1 to 10 { for j = 1 to 10 {\
               A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1]; } }",
        );
        let e = exact_union_count(&g, &[(1, 10), (1, 10)]).unwrap();
        assert_eq!(e.value(), Some(121), "the paper's formula says 139");
        assert_eq!(
            distinct_accesses_for(&nest, ArrayId(0)),
            121,
            "enumeration agrees"
        );
    }

    #[test]
    fn pairwise_case_matches_paper_formula() {
        // r = 2 has no higher-order terms: IE == the §3.1 formula.
        let (nest, g) = group_of(
            "array A[30][30]\nfor i = 1 to 25 { for j = 1 to 20 { A[i][j] = A[i-1][j+2]; } }",
        );
        let e = exact_union_count(&g, &[(1, 25), (1, 20)]).unwrap();
        assert_eq!(e.value(), Some(2 * 500 - 24 * 18));
        assert_eq!(
            e.value().unwrap() as u64,
            distinct_accesses_for(&nest, ArrayId(0))
        );
    }

    #[test]
    fn disjoint_lattice_classes_sum() {
        // A[2i][j] and A[2i+1][j]: two classes, no overlap.
        let (nest, g) = group_of(
            "array A[25][12]\nfor i = 1 to 10 { for j = 1 to 10 { A[2i][j] = A[2i+1][j]; } }",
        );
        let e = exact_union_count(&g, &[(1, 10), (1, 10)]).unwrap();
        assert_eq!(e.value(), Some(200));
        assert_eq!(distinct_accesses_for(&nest, ArrayId(0)), 200);
    }

    #[test]
    fn identical_offsets_dedupe() {
        let (_, g) = group_of(
            "array A[10][10]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i][j] + 1; } }",
        );
        let e = exact_union_count(&g, &[(1, 10), (1, 10)]).unwrap();
        assert_eq!(e.value(), Some(100));
    }

    #[test]
    fn rank_deficient_is_rejected() {
        let (_, g) =
            group_of("array A[200]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }");
        assert!(exact_union_count(&g, &[(1, 20), (1, 10)]).is_none());
    }

    #[test]
    fn random_stencils_match_enumeration() {
        // A handful of irregular multi-reference stencils: IE must equal
        // enumeration exactly.
        for (o1, o2, o3, o4, o5, o6) in [
            (0i64, 0i64, -2i64, 1i64, 1i64, -3i64),
            (1, 1, -1, -1, 2, 2),
            (0, 3, 3, 0, -3, -3),
            (2, 0, 0, 2, -2, 0),
        ] {
            let src = format!(
                "array A[40][40]\nfor i = 1 to 12 {{ for j = 1 to 12 {{ \
                 A[i + 10][j + 10] = A[i + {a}][j + {b}] + A[i + {c}][j + {d}]; }} }}",
                a = o1 + 10,
                b = o2 + 10,
                c = o3 + 10,
                d = o4 + 10,
            );
            let _ = (o5, o6);
            let nest = parse(&src).unwrap();
            let g = uniform_groups(&nest).into_iter().next().unwrap();
            let e = exact_union_count(&g, &[(1, 12), (1, 12)]).unwrap();
            assert_eq!(
                e.value().unwrap() as u64,
                distinct_accesses_for(&nest, ArrayId(0)),
                "{src}"
            );
        }
    }
}
