//! Dependence-set computation for uniformly generated references.

use crate::uniform::{uniform_groups, RefPos};
use crate::vectors::{level, lex_positive};
use loopmem_ir::{AccessKind, ArrayId, LoopNest};
use loopmem_linalg::hnf::solve_diophantine;
use loopmem_poly::Polyhedron;
use std::fmt;

/// Position of a reference inside a nest: `(statement index, ref index)`.
pub type RefIdx = RefPos;

/// Classification of a dependence by its endpoint kinds (§2.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Write before read (true dependence).
    Flow,
    /// Read before write.
    Anti,
    /// Write before write.
    Output,
    /// Read before read (pure reuse; does not constrain legality).
    Input,
}

impl DepKind {
    fn classify(src: AccessKind, dst: AccessKind) -> DepKind {
        match (src, dst) {
            (AccessKind::Write, AccessKind::Read) => DepKind::Flow,
            (AccessKind::Read, AccessKind::Write) => DepKind::Anti,
            (AccessKind::Write, AccessKind::Write) => DepKind::Output,
            (AccessKind::Read, AccessKind::Read) => DepKind::Input,
        }
    }

    /// `true` for the kinds that constrain transformation legality
    /// (everything except [`DepKind::Input`]).
    pub fn constrains_legality(&self) -> bool {
        !matches!(self, DepKind::Input)
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::Flow => "flow",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Input => "input",
        };
        f.write_str(s)
    }
}

/// One dependence: the source reference executes at iteration `I`, the
/// destination at `I + distance`, and both touch the same element of
/// `array`. `distance` is lexicographically positive and non-zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dependence {
    /// Array both endpoints reference.
    pub array: ArrayId,
    /// `(statement, ref)` of the earlier access.
    pub src: RefIdx,
    /// `(statement, ref)` of the later access.
    pub dst: RefIdx,
    /// The distance vector `J − I`.
    pub distance: Vec<i64>,
    /// Flow / anti / output / input.
    pub kind: DepKind,
}

impl Dependence {
    /// 1-based level: index of the first non-zero distance component.
    pub fn level(&self) -> usize {
        level(&self.distance).expect("dependence distances are non-zero")
    }
}

/// The dependences of a nest, plus bookkeeping about what could not be
/// represented exactly.
#[derive(Clone, Debug, Default)]
pub struct DependenceSet {
    deps: Vec<Dependence>,
    nonuniform_pairs: usize,
}

impl DependenceSet {
    /// Iterator over the dependences.
    pub fn iter(&self) -> impl Iterator<Item = &Dependence> {
        self.deps.iter()
    }

    /// Number of dependences.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// `true` when no dependences were found.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Deduplicated distance vectors, optionally restricted to
    /// legality-constraining kinds.
    pub fn distances(&self, legality_only: bool) -> Vec<Vec<i64>> {
        let mut out: Vec<Vec<i64>> = Vec::new();
        for d in &self.deps {
            if legality_only && !d.kind.constrains_legality() {
                continue;
            }
            if !out.contains(&d.distance) {
                out.push(d.distance.clone());
            }
        }
        out
    }

    /// Number of reference pairs sharing an array but not an access matrix;
    /// such pairs have direction (not distance) dependences and are handled
    /// by the bounding path (`gcd_test`, §3.2 Example 6) instead.
    pub fn nonuniform_pair_count(&self) -> usize {
        self.nonuniform_pairs
    }
}

impl<'a> IntoIterator for &'a DependenceSet {
    type Item = &'a Dependence;
    type IntoIter = std::slice::Iter<'a, Dependence>;
    fn into_iter(self) -> Self::IntoIter {
        self.deps.iter()
    }
}

/// Per-loop spans `hi − lo` (the largest magnitude a distance component can
/// have). Rectangular nests read them off the bounds; transformed nests
/// fall back to the polyhedral projection.
fn loop_spans(nest: &LoopNest) -> Vec<i64> {
    if let Some(ranges) = nest.rectangular_ranges() {
        return ranges
            .iter()
            .map(|&(lo, hi)| hi.saturating_sub(lo).max(0))
            .collect();
    }
    let p = Polyhedron::from_nest(nest);
    (0..nest.depth())
        .map(|k| {
            p.var_range(k)
                .map_or(0, |(lo, hi)| hi.saturating_sub(lo).max(0))
        })
        .collect()
}

/// Computes the dependence set of a nest.
///
/// For every ordered pair of uniformly generated references (including a
/// reference with itself), the Diophantine system `A·δ = c_src − c_dst` is
/// solved exactly:
///
/// * a zero-dimensional solution family records its single in-range,
///   lexicographically positive distance (full-rank access matrices);
/// * a one-dimensional family records the lexicographically smallest
///   positive in-range member (the paper's "dependence vector of
///   interest", §4.2) — the family's direction itself is recorded through
///   the self-pair, whose solutions are the kernel multiples;
/// * higher-dimensional families enumerate all in-range positive members
///   (bounded; only tiny coefficient-array accesses produce them).
///
/// Pairs of references to the same array with *different* access matrices
/// (non-uniformly generated) are counted in
/// [`DependenceSet::nonuniform_pair_count`] and otherwise skipped, exactly
/// as the paper's framework does.
pub fn analyze(nest: &LoopNest) -> DependenceSet {
    // An empty iteration space executes nothing and carries no
    // dependences. Bail out before the distance enumeration: its span
    // windows assume at least one executed iteration, and a constant
    // subscript inside an empty nest would otherwise send the
    // multi-dimensional family walk over the full (never-executed)
    // inner ranges.
    if nest.var_ranges().is_none() {
        return DependenceSet::default();
    }
    let spans = loop_spans(nest);
    let groups = uniform_groups(nest);
    let mut set = DependenceSet::default();

    // Count non-uniform same-array pairs across groups.
    for (i, a) in groups.iter().enumerate() {
        for b in &groups[i + 1..] {
            if a.array == b.array {
                set.nonuniform_pairs += a.len() * b.len();
            }
        }
    }

    for g in &groups {
        for (src_pos, src_off, src_kind) in &g.members {
            for (dst_pos, dst_off, dst_kind) in &g.members {
                let self_pair = src_pos == dst_pos;
                // A·δ = c_src − c_dst.
                let rhs: Vec<i64> = src_off.iter().zip(dst_off).map(|(&a, &b)| a - b).collect();
                let Some(sol) = solve_diophantine(&g.matrix, &rhs) else {
                    continue;
                };
                let kind = DepKind::classify(*src_kind, *dst_kind);
                for distance in positive_members(&sol.particular, &sol.kernel, &spans, self_pair) {
                    let dep = Dependence {
                        array: g.array,
                        src: *src_pos,
                        dst: *dst_pos,
                        distance,
                        kind,
                    };
                    if !set.deps.contains(&dep) {
                        set.deps.push(dep);
                    }
                }
            }
        }
    }
    set
}

/// In-range, lexicographically positive members of the solution family.
///
/// * kernel dimension 0 → the particular solution (if positive/in range);
/// * dimension 1 → the lex-min positive member only, in closed form
///   ([`lex_min_positive_member`]; for self pairs, the primitive kernel
///   direction is that very member);
/// * dimension ≥ 2 → bounded exhaustive enumeration.
fn positive_members(
    particular: &[i64],
    kernel: &[Vec<i64>],
    spans: &[i64],
    self_pair: bool,
) -> Vec<Vec<i64>> {
    let in_range = |v: &[i64]| v.iter().zip(spans).all(|(&x, &s)| x.abs() <= s);
    match kernel.len() {
        0 => {
            if !self_pair && lex_positive(particular) && in_range(particular) {
                vec![particular.to_vec()]
            } else {
                Vec::new()
            }
        }
        1 => lex_min_positive_member(particular, &kernel[0], spans)
            .into_iter()
            .collect(),
        _ => {
            // Multi-dimensional family: bounded exhaustive enumeration.
            let mut out = Vec::new();
            let bound: i64 = spans.iter().copied().max().unwrap_or(0);
            let mut coeffs = vec![0i64; kernel.len()];
            enumerate_multi(particular, kernel, spans, bound, 0, &mut coeffs, &mut out);
            out.retain(|v| lex_positive(v));
            out.sort();
            out.dedup();
            out
        }
    }
}

/// Floor of `a / b` in `i128` (`b ≠ 0`).
fn floor_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Ceiling of `a / b` in `i128` (`b ≠ 0`).
fn ceil_div(a: i128, b: i128) -> i128 {
    -floor_div(-a, b)
}

/// The lexicographically smallest positive member of `{p + t·k : t ∈ ℤ}`
/// with every `|component| ≤ span`, in closed form.
///
/// Each component with `k_j ≠ 0` confines `t` to a window; the others are
/// constant and either in range or not. Members agree before `j0`, the
/// first component with `k_{j0} ≠ 0`, and component `j0` is strictly
/// monotone in `t`, so it alone orders them. A non-zero constant prefix
/// makes every member positive (take the smallest component `j0`) or
/// none. A zero prefix leaves two candidates: the member whose component
/// `j0` is zero, when the rest makes it positive — it precedes every
/// member with a positive component `j0` — and otherwise the member with
/// the smallest positive component `j0`. Window arithmetic is `i128`, so
/// spans near the `i64` limits neither wrap nor stall.
fn lex_min_positive_member(p: &[i64], k: &[i64], spans: &[i64]) -> Option<Vec<i64>> {
    let (mut lo, mut hi) = (i128::MIN, i128::MAX);
    for ((&kj, &s), &pj) in k.iter().zip(spans).zip(p) {
        let (kj, s, pj) = (kj as i128, s as i128, pj as i128);
        if kj == 0 {
            if pj.abs() > s {
                return None;
            }
            continue;
        }
        // |pj + t·kj| ≤ s, i.e. -s - pj ≤ t·kj ≤ s - pj.
        let (a, b) = if kj > 0 {
            (ceil_div(-s - pj, kj), floor_div(s - pj, kj))
        } else {
            (ceil_div(s - pj, kj), floor_div(-s - pj, kj))
        };
        lo = lo.max(a);
        hi = hi.min(b);
    }
    let member = |t: i128| -> Vec<i64> {
        p.iter()
            .zip(k)
            .map(|(&pj, &kj)| (pj as i128 + t * kj as i128) as i64)
            .collect()
    };
    let Some(j0) = k.iter().position(|&x| x != 0) else {
        // A zero direction: the family is the single point `p`, in range.
        return lex_positive(p).then(|| p.to_vec());
    };
    if lo > hi {
        return None;
    }
    let (pj, kj) = (p[j0] as i128, k[j0] as i128);
    match p[..j0].iter().find(|&&x| x != 0) {
        Some(&x) if x < 0 => return None,
        Some(_) => return Some(member(if kj > 0 { lo } else { hi })),
        None => {}
    }
    if pj % kj == 0 {
        let t0 = -pj / kj;
        if (lo..=hi).contains(&t0) {
            let m = member(t0);
            if lex_positive(&m) {
                return Some(m);
            }
        }
    }
    // Smallest component j0 ≥ 1: pj + t·kj ≥ 1.
    let t = if kj > 0 {
        ceil_div(1 - pj, kj).max(lo)
    } else {
        floor_div(1 - pj, kj).min(hi)
    };
    (lo..=hi).contains(&t).then(|| member(t))
}

fn enumerate_multi(
    particular: &[i64],
    kernel: &[Vec<i64>],
    spans: &[i64],
    bound: i64,
    depth: usize,
    coeffs: &mut Vec<i64>,
    out: &mut Vec<Vec<i64>>,
) {
    const CAP: usize = 1 << 17;
    if out.len() >= CAP {
        return;
    }
    if depth == kernel.len() {
        let v: Vec<i64> = (0..particular.len())
            .map(|j| {
                particular[j]
                    + kernel
                        .iter()
                        .zip(coeffs.iter())
                        .map(|(k, &t)| t * k[j])
                        .sum::<i64>()
            })
            .collect();
        if v.iter().zip(spans).all(|(&x, &s)| x.abs() <= s) {
            out.push(v);
        }
        return;
    }
    for t in -bound..=bound {
        coeffs[depth] = t;
        enumerate_multi(particular, kernel, spans, bound, depth + 1, coeffs, out);
        if out.len() >= CAP {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    #[test]
    fn empty_nest_has_no_dependences() {
        // Regression: a constant subscript inside an empty nest used to
        // send the multi-dimensional family enumeration over the full
        // (never-executed) inner range — an effectively unbounded walk.
        let nest = parse(
            "array X[10]\n\
             for i = 5 to 4 { for j = 1 to 1000000 { X[1]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.len(), 0);
        assert_eq!(deps.nonuniform_pair_count(), 0);
    }

    /// Regression: the one-dimensional family walk stopped after one step
    /// on windows wider than 10^6, dropping or misplacing the lex-min
    /// distance; the closed form must give every extent the same answer.
    #[test]
    fn wide_windows_keep_the_lex_min_distance() {
        let distances = |src: String| {
            let mut d = analyze(&parse(&src).unwrap()).distances(false);
            d.sort();
            d
        };
        for (narrow, wide) in [
            (
                "array X[11]\nfor i = 1 to 10 { for j = 1 to 1000 { X[i] = X[i] + 1; } }".to_string(),
                "array X[11]\nfor i = 1 to 10 { for j = 1 to 600000 { X[i] = X[i] + 1; } }".to_string(),
            ),
            (
                "array X[2001]\nfor i = 1 to 1000 { for j = 1 to 1000 { X[i+j] = X[i+j-1]; } }".to_string(),
                "array X[1200001]\nfor i = 1 to 600000 { for j = 1 to 600000 { X[i+j] = X[i+j-1]; } }"
                    .to_string(),
            ),
        ] {
            let want = distances(narrow);
            assert!(want.contains(&vec![0, 1]), "{want:?}");
            assert_eq!(distances(wide), want);
        }
        // The flow distance (0, 1) keeps interchange legal; the walk's
        // (599999, -599998) forbade it.
        let nest = parse(
            "array X[1200001]\nfor i = 1 to 600000 { for j = 1 to 600000 { X[i+j] = X[i+j-1]; } }",
        )
        .unwrap();
        let flows: Vec<_> = analyze(&nest)
            .iter()
            .filter(|d| d.kind == DepKind::Flow)
            .map(|d| d.distance.clone())
            .collect();
        assert_eq!(flows, vec![vec![0, 1]]);
    }

    /// Regression: `hi - lo` of the window wrapped in `i64` on bounds near
    /// the limits, so the walk never ended.
    #[test]
    fn near_max_bounds_terminate() {
        let nest = parse("array X[10]\nfor i = 1 to 9223372036854775000 { X[1]; }").unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.distances(false), vec![vec![1]]);
    }

    #[test]
    fn example2_single_flow_dependence() {
        let nest = parse(
            "array A[100][100]\n\
             for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.len(), 1);
        let d = deps.iter().next().unwrap();
        assert_eq!(d.distance, vec![1, -2]);
        assert_eq!(d.kind, DepKind::Flow);
        assert_eq!(d.level(), 1);
    }

    #[test]
    fn example3_dependences_from_sink() {
        let nest = parse(
            "array A[11][11]\n\
             for i = 1 to 10 { for j = 1 to 10 {\n\
               A[i][j] = A[i-1][j] + A[i][j-1] + A[i-1][j-1];\n\
             } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        let distances = deps.distances(false);
        // Paper: (1,0), (0,1), (1,1) from S1 to the reads; the read-read
        // differences (0,1)-(1,0) etc. also appear as input deps.
        for want in [vec![1, 0], vec![0, 1], vec![1, 1]] {
            assert!(
                distances.contains(&want),
                "missing {want:?} in {distances:?}"
            );
        }
        // All flow distances are exactly those three.
        let flows: Vec<_> = deps
            .iter()
            .filter(|d| d.kind == DepKind::Flow)
            .map(|d| d.distance.clone())
            .collect();
        assert_eq!(flows.len(), 3);
    }

    #[test]
    fn example7_kernel_dependence() {
        let nest =
            parse("array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }").unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.len(), 1);
        let d = deps.iter().next().unwrap();
        assert_eq!(d.distance, vec![3, 2]);
        assert_eq!(d.kind, DepKind::Input);
        assert!(!d.kind.constrains_legality());
    }

    #[test]
    fn example8_three_direct_dependences() {
        let nest = parse(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        let legality = deps.distances(true);
        assert!(
            legality.contains(&vec![3, -2]),
            "flow missing: {legality:?}"
        );
        assert!(legality.contains(&vec![2, 0]), "anti missing: {legality:?}");
        assert!(
            legality.contains(&vec![5, -2]),
            "output missing: {legality:?}"
        );
        assert_eq!(legality.len(), 3);
        // Kinds match the paper's classification.
        for d in deps.iter() {
            match d.distance.as_slice() {
                [3, -2] => assert_eq!(d.kind, DepKind::Flow),
                [2, 0] => assert_eq!(d.kind, DepKind::Anti),
                [5, -2] => assert!(
                    d.kind == DepKind::Output || d.kind == DepKind::Input,
                    "kernel self-distance is output (write) or input (read)"
                ),
                _ => {}
            }
        }
    }

    #[test]
    fn nonuniform_pairs_are_counted_not_analyzed() {
        let nest = parse(
            "array A[200]\n\
             for i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert_eq!(deps.nonuniform_pair_count(), 1);
    }

    #[test]
    fn out_of_range_distance_excluded() {
        // A[i][j] vs A[i-50][j]: distance (50, 0) exceeds the 10-iteration
        // span, so no dependence exists inside the nest.
        let nest = parse(
            "array A[100][100]\n\
             for i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-50][j]; } }",
        )
        .unwrap();
        assert!(analyze(&nest).is_empty());
    }

    #[test]
    fn no_dependence_when_gcd_fails() {
        // 2·δ = 1 has no integer solution: accesses interleave, never collide.
        let nest =
            parse("array A[100]\nfor i = 1 to 10 { for j = 1 to 10 { A[2i] = A[2i + 1]; } }")
                .unwrap();
        let deps = analyze(&nest);
        // Only self-reuse along j (kernel (0,1)) appears.
        assert!(deps.iter().all(|d| d.distance == vec![0, 1]));
    }

    #[test]
    fn multi_dimensional_kernel_enumerates() {
        // C[k] in a 3-deep nest: kernel dimension 2 over (i, j).
        let nest = parse(
            "array C[4]\n\
             for i = 1 to 3 { for j = 1 to 3 { for k = 1 to 4 { C[k]; } } }",
        )
        .unwrap();
        let deps = analyze(&nest);
        assert!(!deps.is_empty());
        // Every distance annihilates the access row (0,0,1): third
        // component zero; and is lex positive.
        for d in deps.iter() {
            assert_eq!(d.distance[2], 0);
            assert!(lex_positive(&d.distance));
            assert_eq!(d.kind, DepKind::Input);
        }
        // (1, -2, 0) is a genuine in-range member that a cone of basis
        // vectors alone would miss.
        assert!(deps.iter().any(|d| d.distance == vec![1, -2, 0]));
    }
}
