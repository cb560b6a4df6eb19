//! The independent certificate checker.
//!
//! [`check_certificates`] re-derives every claim from the certificate plus
//! the source program: dependence distances come from a fresh
//! `loopmem-dep` analysis, matrix products from `loopmem-linalg`, every
//! fusion step's access order is replayed, and — for nests small enough
//! to enumerate — MWS and sizing claims are cross-checked against the
//! exact polyhedral counting path in [`crate::replay`]. Nothing here
//! calls into `loopmem-core`: the searches being audited are not part of
//! the trusted base (DESIGN.md §14).
//!
//! Violations carry stable `LM7xxx` codes, rendered by the CLI with the
//! same caret machinery as the static lints:
//!
//! | code | meaning |
//! |------|---------|
//! | `LM7001` | legality claim fails (`T·δ` not lex-positive / not `≥ 0` under a tileable claim / `T` not unimodular) |
//! | `LM7002` | recorded distance set or `T·δ` evaluations disagree with re-derivation |
//! | `LM7003` | retired with the cone-prune certificate kind; the number is not reused |
//! | `LM7004` | optimality violation (winner missing, not minimal, frontier entry illegal, or replay disagrees) |
//! | `LM7005` | bounds certificate invalid (empty interval, unknown ladder step, or the interval excludes the replayed/boxed answer) |
//! | `LM7006` | sizing or fusion arithmetic mismatch (the `max_k` formula, replayed tables, or the strict-decrease chain fail) |
//! | `LM7007` | malformed certificate (bad shape, out-of-range nest index) |
//! | `LM7008` | fusion step breaks a dependence (a fused access runs before an access of the earlier nest it must follow), or cannot be replayed (a nest over `FUSION_REPLAY_CAP` iterations, or a subscript leaving `i64`) |

use crate::cert::{BoundsCert, Certificate, FusionCert, LegalityCert, OptimalityCert, SizingCert};
use crate::replay;
use loopmem_dep::{analyze, constraining_distances, lex_positive};
use loopmem_ir::{LoopNest, Program};
use loopmem_linalg::IMat;

/// One failed certificate check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable violation code (`LM7001`–`LM7008`).
    pub code: &'static str,
    /// Index of the nest the certificate is about, when it names one.
    pub nest: Option<usize>,
    /// What failed.
    pub message: String,
    /// Supporting detail (expected vs. recorded values).
    pub notes: Vec<String>,
}

impl Violation {
    fn new(code: &'static str, nest: Option<usize>, message: impl Into<String>) -> Self {
        Violation {
            code,
            nest,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }
}

/// The bounds-method vocabulary a certificate may claim.
const METHODS: &[&str] = &[
    "exact",
    "union-box",
    "closed-form",
    "partial-program",
    "salvaged-prefix",
];

/// Checks every certificate against the program, re-deriving all claims.
/// Returns the violations in certificate order (empty = all valid).
pub fn check_certificates(program: &Program, certs: &[Certificate]) -> Vec<Violation> {
    let mut out = Vec::new();
    for cert in certs {
        out.extend(check_certificate(program, cert));
    }
    out
}

/// Checks one certificate. See [`check_certificates`].
pub fn check_certificate(program: &Program, cert: &Certificate) -> Vec<Violation> {
    match cert {
        Certificate::Legality(c) => check_legality(program, c),
        Certificate::Optimality(c) => check_optimality(program, c),
        Certificate::Bounds(c) => check_bounds(program, c),
        Certificate::Sizing(c) => check_sizing(program, c),
        Certificate::Fusion(c) => check_fusion(program, c),
    }
}

fn nest_of(program: &Program, k: usize) -> Result<&LoopNest, Violation> {
    program.nests().get(k).ok_or_else(|| {
        Violation::new(
            "LM7007",
            Some(k),
            format!(
                "certificate names nest {k}, but the program has {} nests",
                program.len()
            ),
        )
    })
}

fn to_imat(rows: &[Vec<i64>], n: usize) -> Option<IMat> {
    if rows.len() != n || rows.iter().any(|r| r.len() != n) {
        return None;
    }
    Some(IMat::from_rows(rows))
}

fn check_legality(program: &Program, c: &LegalityCert) -> Vec<Violation> {
    let nest = match nest_of(program, c.nest) {
        Ok(n) => n,
        Err(v) => return vec![v],
    };
    let n = nest.depth();
    let t = match to_imat(&c.transform, n) {
        Some(t) => t,
        None => {
            return vec![Violation::new(
                "LM7007",
                Some(c.nest),
                format!("legality transform is not a {n}x{n} matrix"),
            )]
        }
    };
    let mut out = Vec::new();
    if t.det().abs() != 1 {
        out.push(
            Violation::new("LM7001", Some(c.nest), "transformation is not unimodular")
                .note(format!("det = {}", t.det())),
        );
    }

    // Re-derive the constraining distance set and compare.
    let deps = analyze(nest);
    let expected = constraining_distances(&deps);
    let mut recorded: Vec<Vec<i64>> = c.evaluations.iter().map(|e| e.distance.clone()).collect();
    recorded.sort();
    recorded.dedup();
    if recorded != expected {
        out.push(
            Violation::new(
                "LM7002",
                Some(c.nest),
                "recorded distance set disagrees with dependence re-analysis",
            )
            .note(format!("re-derived: {expected:?}"))
            .note(format!("recorded : {recorded:?}")),
        );
        return out;
    }

    // Recompute every T·δ and check the recorded image and the claim.
    for e in &c.evaluations {
        if e.distance.len() != n {
            out.push(Violation::new(
                "LM7007",
                Some(c.nest),
                format!("distance {:?} has wrong dimension", e.distance),
            ));
            continue;
        }
        let image = t.mul_vec(&e.distance);
        if image != e.image {
            out.push(
                Violation::new(
                    "LM7002",
                    Some(c.nest),
                    format!("recorded image of distance {:?} is not T*d", e.distance),
                )
                .note(format!("recomputed: {image:?}"))
                .note(format!("recorded  : {:?}", e.image)),
            );
            continue;
        }
        if c.tileable && image.iter().any(|&x| x < 0) {
            out.push(Violation::new(
                "LM7001",
                Some(c.nest),
                format!(
                    "tileable claim fails: T*{:?} = {image:?} has a negative component",
                    e.distance
                ),
            ));
        } else if !lex_positive(&image) {
            out.push(Violation::new(
                "LM7001",
                Some(c.nest),
                format!(
                    "legality fails: T*{:?} = {image:?} is not lexicographically positive",
                    e.distance
                ),
            ));
        }
    }
    out
}

fn check_optimality(program: &Program, c: &OptimalityCert) -> Vec<Violation> {
    let nest = match nest_of(program, c.nest) {
        Ok(n) => n,
        Err(v) => return vec![v],
    };
    let n = nest.depth();
    let mut out = Vec::new();
    if c.frontier.is_empty() {
        return vec![Violation::new(
            "LM7004",
            Some(c.nest),
            "optimality certificate has an empty frontier",
        )];
    }
    let deps = analyze(nest);
    let identity: Vec<Vec<i64>> = (0..n)
        .map(|i| (0..n).map(|j| i64::from(i == j)).collect())
        .collect();
    let mut winner_seen = false;
    let mut identity_seen = false;
    let mut min_mws = u64::MAX;
    for f in &c.frontier {
        let t = match to_imat(&f.transform, n) {
            Some(t) => t,
            None => {
                out.push(Violation::new(
                    "LM7007",
                    Some(c.nest),
                    format!(
                        "frontier transform {:?} is not a {n}x{n} matrix",
                        f.transform
                    ),
                ));
                continue;
            }
        };
        if t.det().abs() != 1 {
            out.push(Violation::new(
                "LM7004",
                Some(c.nest),
                format!("frontier transform {:?} is not unimodular", f.transform),
            ));
        } else if !loopmem_dep::is_legal(&t, &deps) {
            out.push(Violation::new(
                "LM7004",
                Some(c.nest),
                format!(
                    "frontier transform {:?} is not legal for the nest's dependences",
                    f.transform
                ),
            ));
        }
        min_mws = min_mws.min(f.mws);
        if f.transform == c.transform {
            winner_seen = true;
            if f.mws != c.mws_after {
                out.push(
                    Violation::new(
                        "LM7004",
                        Some(c.nest),
                        "winner's frontier value disagrees with mws_after",
                    )
                    .note(format!("frontier: {}, claimed: {}", f.mws, c.mws_after)),
                );
            }
        }
        if f.transform == identity {
            identity_seen = true;
            if f.mws != c.mws_before {
                out.push(
                    Violation::new(
                        "LM7004",
                        Some(c.nest),
                        "identity's frontier value disagrees with mws_before",
                    )
                    .note(format!("frontier: {}, claimed: {}", f.mws, c.mws_before)),
                );
            }
        }
    }
    if !winner_seen {
        out.push(Violation::new(
            "LM7004",
            Some(c.nest),
            "the chosen transformation is not on the evaluated frontier",
        ));
    }
    if !identity_seen {
        out.push(Violation::new(
            "LM7004",
            Some(c.nest),
            "the identity baseline is not on the evaluated frontier",
        ));
    }
    if c.mws_after != min_mws {
        out.push(
            Violation::new(
                "LM7004",
                Some(c.nest),
                "the claimed minimum is not the frontier minimum",
            )
            .note(format!(
                "frontier minimum: {min_mws}, claimed: {}",
                c.mws_after
            )),
        );
    }
    // Exact cross-check against the polyhedral counting path when the
    // nest is small enough to enumerate.
    if out.is_empty() {
        if let Some(exact_before) = replay::nest_mws(nest, replay::REPLAY_CAP) {
            if exact_before != c.mws_before {
                out.push(
                    Violation::new(
                        "LM7004",
                        Some(c.nest),
                        "mws_before disagrees with exact replay",
                    )
                    .note(format!(
                        "replayed: {exact_before}, claimed: {}",
                        c.mws_before
                    )),
                );
            }
            if let Some(t) = to_imat(&c.transform, n) {
                match replay::apply_transform(nest, &t)
                    .and_then(|tn| replay::nest_mws(&tn, replay::REPLAY_CAP))
                {
                    Some(exact_after) if exact_after != c.mws_after => {
                        out.push(
                            Violation::new(
                                "LM7004",
                                Some(c.nest),
                                "mws_after disagrees with exact replay of the transformed nest",
                            )
                            .note(format!("replayed: {exact_after}, claimed: {}", c.mws_after)),
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

fn check_bounds(program: &Program, c: &BoundsCert) -> Vec<Violation> {
    let mut out = Vec::new();
    if !METHODS.contains(&c.method.as_str()) {
        out.push(Violation::new(
            "LM7005",
            c.nest,
            format!("unknown bounds method '{}'", c.method),
        ));
    }
    if c.lower > c.upper {
        out.push(
            Violation::new(
                "LM7005",
                c.nest,
                "bounds certificate claims an empty interval",
            )
            .note(format!("lower {} > upper {}", c.lower, c.upper)),
        );
    }
    if c.method == "exact" && c.lower != c.upper {
        out.push(Violation::new(
            "LM7005",
            c.nest,
            "an 'exact' bounds certificate must pin a single value",
        ));
    }
    match c.quantity.as_str() {
        "nest-mws" => {
            let k = match c.nest {
                Some(k) => k,
                None => {
                    out.push(Violation::new(
                        "LM7007",
                        None,
                        "nest-mws bounds certificate names no nest",
                    ));
                    return out;
                }
            };
            let nest = match nest_of(program, k) {
                Ok(n) => n,
                Err(v) => {
                    out.push(v);
                    return out;
                }
            };
            if let Some(exact) = replay::nest_mws(nest, replay::REPLAY_CAP) {
                if !(c.lower <= exact && exact <= c.upper) {
                    out.push(
                        Violation::new(
                            "LM7005",
                            c.nest,
                            "interval excludes the exact replayed MWS",
                        )
                        .note(format!(
                            "exact MWS: {exact}, claimed: [{}, {}]",
                            c.lower, c.upper
                        )),
                    );
                }
            } else if let Some(cap) = replay::union_box_upper(nest) {
                if c.lower > cap {
                    out.push(
                        Violation::new(
                            "LM7005",
                            c.nest,
                            "claimed lower bound exceeds the union-box cap on the MWS",
                        )
                        .note(format!("union-box cap: {cap}, claimed lower: {}", c.lower)),
                    );
                }
            }
        }
        "program-words" => {
            if let Some(r) = replay::replay_program(program, replay::REPLAY_CAP) {
                let words = replayed_words(&r);
                if !(c.lower <= words && words <= c.upper) {
                    out.push(
                        Violation::new(
                            "LM7005",
                            c.nest,
                            "interval excludes the replayed scratchpad size",
                        )
                        .note(format!(
                            "replayed words: {words}, claimed: [{}, {}]",
                            c.lower, c.upper
                        )),
                    );
                }
            }
        }
        other => {
            out.push(Violation::new(
                "LM7005",
                c.nest,
                format!("unknown bounded quantity '{other}'"),
            ));
        }
    }
    out
}

/// The `max_k` scratchpad formula over replayed tables.
fn replayed_words(r: &replay::ProgramReplay) -> u64 {
    let nest_term = r
        .per_nest_mws
        .iter()
        .zip(&r.live_through)
        .map(|(&m, &l)| m.saturating_add(l))
        .max()
        .unwrap_or(0);
    let boundary_term = r.boundary_live.iter().copied().max().unwrap_or(0);
    nest_term.max(boundary_term)
}

fn check_sizing(program: &Program, c: &SizingCert) -> Vec<Violation> {
    let mut out = Vec::new();
    if c.per_nest.len() != program.len() {
        return vec![Violation::new(
            "LM7007",
            None,
            format!(
                "sizing certificate has {} per-nest terms for a {}-nest program",
                c.per_nest.len(),
                program.len()
            ),
        )];
    }
    if c.boundary_live.len() + 1 != program.len().max(1) {
        return vec![Violation::new(
            "LM7007",
            None,
            format!(
                "sizing certificate has {} boundary terms for a {}-nest program",
                c.boundary_live.len(),
                program.len()
            ),
        )];
    }
    // Reproduce the max_k arithmetic from the recorded terms.
    let terms: Vec<u64> = c
        .per_nest
        .iter()
        .map(|t| t.mws.saturating_add(t.live_through))
        .collect();
    let nest_term = terms.iter().copied().max().unwrap_or(0);
    let boundary_term = c.boundary_live.iter().copied().max().unwrap_or(0);
    let words = nest_term.max(boundary_term);
    if words != c.words {
        out.push(
            Violation::new(
                "LM7006",
                None,
                "claimed words disagree with the max_k arithmetic",
            )
            .note(format!("recomputed: {words}, claimed: {}", c.words)),
        );
    }
    match terms.get(c.peak_nest) {
        Some(&peak) if peak == nest_term => {}
        _ => {
            out.push(Violation::new(
                "LM7006",
                Some(c.peak_nest),
                "peak_nest does not achieve the maximal per-nest term",
            ));
        }
    }
    // Cross-check every recorded table against exact program replay.
    if let Some(r) = replay::replay_program(program, replay::REPLAY_CAP) {
        for (k, (term, &exact)) in c.per_nest.iter().zip(&r.per_nest_mws).enumerate() {
            if term.mws != exact {
                out.push(
                    Violation::new(
                        "LM7006",
                        Some(k),
                        format!("nest {k} MWS term disagrees with exact replay"),
                    )
                    .note(format!("replayed: {exact}, recorded: {}", term.mws)),
                );
            }
        }
        for (k, (term, &exact)) in c.per_nest.iter().zip(&r.live_through).enumerate() {
            if term.live_through != exact {
                out.push(
                    Violation::new(
                        "LM7006",
                        Some(k),
                        format!("nest {k} live-through term disagrees with exact replay"),
                    )
                    .note(format!(
                        "replayed: {exact}, recorded: {}",
                        term.live_through
                    )),
                );
            }
        }
        if c.boundary_live != r.boundary_live {
            out.push(
                Violation::new(
                    "LM7006",
                    None,
                    "boundary live counts disagree with exact replay",
                )
                .note(format!("replayed: {:?}", r.boundary_live))
                .note(format!("recorded: {:?}", c.boundary_live)),
            );
        }
    }
    out
}

/// The checker's own conformability-gated fusion of adjacent nests: both
/// rectangular with identical ranges, statements concatenated. Legality
/// beyond conformability is checked separately, by replaying the access
/// order ([`replay::fusion_conflict`]).
fn mini_fuse(nests: &[LoopNest], at: usize) -> Option<Vec<LoopNest>> {
    let a = nests.get(at)?;
    let b = nests.get(at + 1)?;
    let ra = a.rectangular_ranges()?;
    let rb = b.rectangular_ranges()?;
    if ra != rb {
        return None;
    }
    let mut statements = a.statements().to_vec();
    statements.extend(b.statements().iter().cloned());
    let fused = LoopNest::new(a.loops().to_vec(), a.arrays().to_vec(), statements).ok()?;
    let mut out = nests.to_vec();
    out.remove(at + 1);
    out[at] = fused;
    Some(out)
}

fn check_fusion(program: &Program, c: &FusionCert) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut expected_before = c.unfused;
    for (i, s) in c.steps.iter().enumerate() {
        if s.before != expected_before {
            out.push(
                Violation::new(
                    "LM7006",
                    None,
                    format!("fusion step {} breaks the words chain", i + 1),
                )
                .note(format!(
                    "previous words: {expected_before}, step claims before: {}",
                    s.before
                )),
            );
        }
        if s.after >= s.before {
            out.push(
                Violation::new(
                    "LM7006",
                    None,
                    format!("fusion step {} is not a strict decrease", i + 1),
                )
                .note(format!("{} -> {}", s.before, s.after)),
            );
        }
        expected_before = s.after;
    }
    if expected_before != c.fused {
        out.push(
            Violation::new("LM7006", None, "fused words disagree with the final step").note(
                format!(
                    "chain ends at {expected_before}, claimed fused: {}",
                    c.fused
                ),
            ),
        );
    }
    if c.steps.is_empty() && c.fused != c.unfused {
        out.push(Violation::new(
            "LM7006",
            None,
            "no fusion steps were taken but fused != unfused",
        ));
    }
    if !out.is_empty() {
        return out;
    }
    // Replay the fusion chain step by step. Every step's conformability
    // and legality are checked; the words of each intermediate program
    // are cross-checked wherever it fits under `REPLAY_CAP`.
    let mut nests: Vec<LoopNest> = program.nests().to_vec();
    let words_of = |nests: &[LoopNest]| -> Option<u64> {
        let p = Program::new(nests.to_vec()).ok()?;
        replay::replay_program(&p, replay::REPLAY_CAP).map(|r| replayed_words(&r))
    };
    if let Some(w) = words_of(&nests).filter(|&w| w != c.unfused) {
        out.push(
            Violation::new("LM7006", None, "unfused words disagree with exact replay")
                .note(format!("replayed: {w}, claimed: {}", c.unfused)),
        );
        return out;
    }
    // The original nest each intermediate nest starts with, for anchoring.
    let mut origin: Vec<usize> = (0..nests.len()).collect();
    for (i, s) in c.steps.iter().enumerate() {
        let Some(fused) = mini_fuse(&nests, s.at) else {
            out.push(Violation::new(
                "LM7006",
                None,
                format!(
                    "fusion step {} fuses non-conformable nests at boundary {}",
                    i + 1,
                    s.at
                ),
            ));
            return out;
        };
        let lm7008 = |what: &str, note: String| {
            Violation::new(
                "LM7008",
                Some(origin[s.at + 1]),
                format!("fusion step {} {what}", i + 1),
            )
            .note(note)
        };
        match replay::fusion_conflict(&nests[s.at], &nests[s.at + 1], replay::FUSION_REPLAY_CAP) {
            Some(Ok(())) => {}
            Some(Err(x)) => {
                let (access, earlier) = if x.write {
                    ("write", "touch")
                } else {
                    ("read", "write")
                };
                out.push(lm7008(
                    "breaks a dependence",
                    format!(
                        "{}{:?}: the fused {access} at iteration {:?} would run before \
                         the earlier nest's {earlier} at iteration {:?}",
                        program.arrays()[x.array].name,
                        x.element,
                        x.second,
                        x.first
                    ),
                ));
                return out;
            }
            None => {
                out.push(lm7008(
                    "is not replayable",
                    format!(
                        "its legality replay needs at most {} iterations per nest \
                         and subscripts inside i64",
                        replay::FUSION_REPLAY_CAP
                    ),
                ));
                return out;
            }
        }
        nests = fused;
        origin.remove(s.at + 1);
        if let Some(w) = words_of(&nests).filter(|&w| w != s.after) {
            out.push(
                Violation::new(
                    "LM7006",
                    None,
                    format!("fusion step {} words disagree with exact replay", i + 1),
                )
                .note(format!("replayed: {w}, claimed after: {}", s.after)),
            );
            return out;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{DistanceImage, FrontierEntry, SizingTerm};
    use loopmem_ir::parse_program;

    fn example8_program() -> Program {
        parse_program(
            "array X[200]\n\
             for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        )
        .unwrap()
    }

    fn example8_legality() -> LegalityCert {
        // Distances (2,0), (3,-2), (5,-2) in sorted order; T = [[2,3],[1,1]].
        LegalityCert {
            nest: 0,
            transform: vec![vec![2, 3], vec![1, 1]],
            evaluations: vec![
                DistanceImage {
                    distance: vec![2, 0],
                    image: vec![4, 2],
                },
                DistanceImage {
                    distance: vec![3, -2],
                    image: vec![0, 1],
                },
                DistanceImage {
                    distance: vec![5, -2],
                    image: vec![4, 3],
                },
            ],
            tileable: true,
        }
    }

    #[test]
    fn valid_legality_certificate_passes() {
        let p = example8_program();
        let cert = Certificate::Legality(example8_legality());
        assert_eq!(check_certificates(&p, &[cert]), vec![]);
    }

    #[test]
    fn tampered_image_is_rejected() {
        let p = example8_program();
        let mut c = example8_legality();
        c.evaluations[1].image = vec![1, 0];
        let v = check_certificate(&p, &Certificate::Legality(c));
        assert!(v.iter().any(|v| v.code == "LM7002"), "{v:?}");
    }

    #[test]
    fn missing_distance_is_rejected() {
        let p = example8_program();
        let mut c = example8_legality();
        c.evaluations.remove(0);
        let v = check_certificate(&p, &Certificate::Legality(c));
        assert!(v.iter().any(|v| v.code == "LM7002"), "{v:?}");
    }

    #[test]
    fn illegal_transform_is_rejected() {
        // T = [[2,3],[1,2]] (the paper's misprinted completion) maps
        // (3,-2) to (0,-1): not even lexicographically legal.
        let p = example8_program();
        let mut c = example8_legality();
        c.transform = vec![vec![2, 3], vec![1, 2]];
        c.evaluations[0].image = vec![4, 2];
        c.evaluations[1].image = vec![0, -1];
        c.evaluations[2].image = vec![4, 1];
        let v = check_certificate(&p, &Certificate::Legality(c));
        assert!(v.iter().any(|v| v.code == "LM7001"), "{v:?}");
    }

    fn example8_optimality() -> OptimalityCert {
        OptimalityCert {
            nest: 0,
            mws_before: 44,
            mws_after: 21,
            transform: vec![vec![2, 3], vec![1, 1]],
            frontier: vec![
                FrontierEntry {
                    transform: vec![vec![1, 0], vec![0, 1]],
                    mws: 44,
                },
                FrontierEntry {
                    transform: vec![vec![2, 3], vec![1, 1]],
                    mws: 21,
                },
            ],
        }
    }

    #[test]
    fn valid_optimality_certificate_passes() {
        let p = example8_program();
        assert_eq!(
            check_certificate(&p, &Certificate::Optimality(example8_optimality())),
            vec![]
        );
    }

    #[test]
    fn understated_minimum_is_rejected_by_replay() {
        let p = example8_program();
        let mut c = example8_optimality();
        c.mws_after = 20;
        c.frontier[1].mws = 20;
        let v = check_certificate(&p, &Certificate::Optimality(c));
        assert!(v.iter().any(|v| v.code == "LM7004"), "{v:?}");
    }

    #[test]
    fn winner_not_minimal_is_rejected() {
        let p = example8_program();
        let mut c = example8_optimality();
        // The frontier knows a better value than the claimed winner.
        c.frontier[1].mws = 21;
        c.mws_after = 44;
        c.transform = vec![vec![1, 0], vec![0, 1]];
        let v = check_certificate(&p, &Certificate::Optimality(c));
        assert!(v.iter().any(|v| v.code == "LM7004"), "{v:?}");
    }

    #[test]
    fn bounds_must_contain_the_replayed_answer() {
        let p = example8_program();
        let good = BoundsCert {
            nest: Some(0),
            quantity: "nest-mws".into(),
            method: "union-box".into(),
            lower: 0,
            upper: 100,
            reason: "budget exhausted (max-iterations)".into(),
        };
        assert_eq!(
            check_certificate(&p, &Certificate::Bounds(good.clone())),
            vec![]
        );
        let mut bad = good.clone();
        bad.upper = 10; // excludes the exact MWS 44
        let v = check_certificate(&p, &Certificate::Bounds(bad));
        assert!(v.iter().any(|v| v.code == "LM7005"), "{v:?}");
        let mut bad = good.clone();
        bad.method = "vibes".into();
        let v = check_certificate(&p, &Certificate::Bounds(bad));
        assert!(v.iter().any(|v| v.code == "LM7005"), "{v:?}");
        let mut bad = good;
        bad.lower = 90; // empty-ish: excludes 44 from below
        let v = check_certificate(&p, &Certificate::Bounds(bad));
        assert!(v.iter().any(|v| v.code == "LM7005"), "{v:?}");
    }

    fn pipeline_program() -> Program {
        parse_program(
            "array A[16][16]\narray B[16][16]\narray C[16][16]\n\
             for i = 1 to 16 { for j = 1 to 16 { A[i][j] = B[i][j]; } }\n\
             for i = 1 to 16 { for j = 1 to 16 { C[i][j] = A[i][j] + A[i][j]; } }",
        )
        .unwrap()
    }

    #[test]
    fn sizing_certificate_replays() {
        let p = pipeline_program();
        let good = SizingCert {
            per_nest: vec![
                SizingTerm {
                    mws: 0,
                    live_through: 256,
                },
                SizingTerm {
                    mws: 0,
                    live_through: 256,
                },
            ],
            boundary_live: vec![256],
            peak_nest: 0,
            words: 256,
        };
        assert_eq!(
            check_certificate(&p, &Certificate::Sizing(good.clone())),
            vec![]
        );
        let mut bad = good.clone();
        bad.words = 255;
        let v = check_certificate(&p, &Certificate::Sizing(bad));
        assert!(v.iter().any(|v| v.code == "LM7006"), "{v:?}");
        let mut bad = good;
        bad.per_nest[1].live_through = 200;
        let v = check_certificate(&p, &Certificate::Sizing(bad));
        assert!(v.iter().any(|v| v.code == "LM7006"), "{v:?}");
    }

    #[test]
    fn fusion_certificate_replays_the_chain() {
        let p = pipeline_program();
        let good = FusionCert {
            unfused: 256,
            fused: 0,
            steps: vec![crate::cert::FusionStep {
                at: 0,
                before: 256,
                after: 0,
            }],
        };
        assert_eq!(
            check_certificate(&p, &Certificate::Fusion(good.clone())),
            vec![]
        );
        let mut bad = good.clone();
        bad.steps[0].after = 10; // not what fusing actually yields
        bad.fused = 10;
        let v = check_certificate(&p, &Certificate::Fusion(bad));
        assert!(v.iter().any(|v| v.code == "LM7006"), "{v:?}");
        let mut bad = good;
        bad.steps[0].after = 300; // not a decrease at all
        bad.fused = 300;
        let v = check_certificate(&p, &Certificate::Fusion(bad));
        assert!(v.iter().any(|v| v.code == "LM7006"), "{v:?}");
    }

    #[test]
    fn fusion_beyond_the_legality_replay_is_rejected() {
        // 1500 x 1500 = 2.25e6 iterations per nest: too many to replay
        // the step's access order, so the step cannot be accepted.
        let p = parse_program(
            "array A[1500][1500]\narray C[1500][1500]\n\
             for i = 1 to 1500 { for j = 1 to 1500 { A[i][j] = 1; } }\n\
             for i = 1 to 1500 { for j = 1 to 1500 { C[i][j] = A[i][j]; } }",
        )
        .unwrap();
        let cert = FusionCert {
            unfused: 2_250_000,
            fused: 0,
            steps: vec![crate::cert::FusionStep {
                at: 0,
                before: 2_250_000,
                after: 0,
            }],
        };
        let v = check_certificate(&p, &Certificate::Fusion(cert));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].code, v[0].nest), ("LM7008", Some(1)));
        assert!(v[0].message.contains("not replayable"), "{v:?}");
    }
}
