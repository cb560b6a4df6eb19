//! The certificate model and its NDJSON wire format.
//!
//! A [`Certificate`] is the optimizer's *argument* for one user-facing
//! answer, written in terms a small checker can replay: the dependence
//! distances and their images under a transformation, the evaluated
//! frontier behind a claimed minimum, the analytic ladder step behind a
//! degraded bound, the per-nest terms behind a scratchpad size, or the
//! steps of a fusion chain. Emission lives in
//! `loopmem-core` (next to the searches); this crate only *defines* the
//! model and *checks* it, so a bug in the search cannot hide in the
//! checker.
//!
//! The wire format is NDJSON — one certificate per line, fixed key order,
//! emitted by [`Certificate::to_json_line`] and read back by
//! [`parse_certificates`] through the workspace's in-tree
//! [`loopmem_ir::json`] parser. Serialization is deterministic:
//! `parse(emit(c)) == c` and `emit(parse(line)) == line` for every line
//! this module emits, which the round-trip tests pin byte-for-byte.

use loopmem_ir::json::{escape_json, parse_json, Json};

/// One legality-constraining dependence distance and its image `T·δ`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DistanceImage {
    /// The dependence distance `δ` (flow/anti/output; never input).
    pub distance: Vec<i64>,
    /// The optimizer's recorded evaluation of `T·δ`.
    pub image: Vec<i64>,
}

/// Legality of one transformation against one nest's dependence set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LegalityCert {
    /// Index of the nest inside the program.
    pub nest: usize,
    /// The unimodular transformation, row-major.
    pub transform: Vec<Vec<i64>>,
    /// The deduplicated, sorted constraining distance set with the
    /// optimizer's recorded `T·δ` evaluations.
    pub evaluations: Vec<DistanceImage>,
    /// `true` claims full permutability (`T·δ ≥ 0` component-wise, §4.2);
    /// `false` claims only lexicographic legality (`T·δ ≻ 0`, §2.1).
    pub tileable: bool,
}

/// One evaluated candidate on the optimality frontier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierEntry {
    /// The candidate transformation, row-major.
    pub transform: Vec<Vec<i64>>,
    /// Its evaluated maximum window size.
    pub mws: u64,
}

/// Minimality of the chosen transformation over the certified search
/// space: the full frontier of evaluated candidates with their MWS values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OptimalityCert {
    /// Index of the nest inside the program.
    pub nest: usize,
    /// MWS of the untransformed nest (the identity's frontier value).
    pub mws_before: u64,
    /// MWS of the winner — must be the frontier minimum.
    pub mws_after: u64,
    /// The winning transformation, row-major.
    pub transform: Vec<Vec<i64>>,
    /// Every candidate the search evaluated.
    pub frontier: Vec<FrontierEntry>,
}

/// A degraded answer's interval claim: which analytic ladder step produced
/// it and why the run degraded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundsCert {
    /// Index of the nest the bound is about, or `None` for a
    /// program-level quantity.
    pub nest: Option<usize>,
    /// What is being bounded: `"nest-mws"` or `"program-words"`.
    pub quantity: String,
    /// The ladder step: `exact`, `union-box`, `closed-form`,
    /// `partial-program`, or `salvaged-prefix`.
    pub method: String,
    /// Claimed lower bound.
    pub lower: u64,
    /// Claimed upper bound.
    pub upper: u64,
    /// Degradation provenance (trip reason, overflow context, panic
    /// message) — empty for exact answers.
    pub reason: String,
}

/// One nest's contribution to the shared-scratchpad formula.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizingTerm {
    /// The nest's own maximum window size.
    pub mws: u64,
    /// Elements live across the nest's boundaries while it runs.
    pub live_through: u64,
}

/// The shared-scratchpad sizing argument: the per-nest terms and boundary
/// live counts that reproduce `words = max(max_k(MWS_k + live_through_k),
/// max_b boundary_live_b)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizingCert {
    /// Per-nest `(MWS_k, live_through_k)` terms.
    pub per_nest: Vec<SizingTerm>,
    /// Elements live across each adjacent-nest boundary.
    pub boundary_live: Vec<u64>,
    /// Index of the nest whose term peaks.
    pub peak_nest: usize,
    /// The claimed scratchpad size in words.
    pub words: u64,
}

/// One accepted step of the greedy fusion search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FusionStep {
    /// Boundary index the step fused at.
    pub at: usize,
    /// Scratchpad words before the step.
    pub before: u64,
    /// Scratchpad words after the step — must be strictly smaller.
    pub after: u64,
}

/// The fusion search's strict-decrease log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FusionCert {
    /// Scratchpad words of the unfused program.
    pub unfused: u64,
    /// Scratchpad words after all accepted steps.
    pub fused: u64,
    /// The accepted steps in order.
    pub steps: Vec<FusionStep>,
}

/// A structured, checkable argument for one optimizer answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// Legality of a transformation (`T·δ` evaluations).
    Legality(LegalityCert),
    /// Minimality of the chosen transformation over the frontier.
    Optimality(OptimalityCert),
    /// A degraded answer's interval claim.
    Bounds(BoundsCert),
    /// The shared-scratchpad `max_k` arithmetic.
    Sizing(SizingCert),
    /// The fusion search's strict-decrease log.
    Fusion(FusionCert),
}

impl Certificate {
    /// The wire tag of this certificate kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Certificate::Legality(_) => "legality",
            Certificate::Optimality(_) => "optimality",
            Certificate::Bounds(_) => "bounds",
            Certificate::Sizing(_) => "sizing",
            Certificate::Fusion(_) => "fusion",
        }
    }
}

fn vec_json(v: &[i64]) -> String {
    let inner: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", inner.join(","))
}

fn mat_json(m: &[Vec<i64>]) -> String {
    let inner: Vec<String> = m.iter().map(|r| vec_json(r)).collect();
    format!("[{}]", inner.join(","))
}

fn u64_vec_json(v: &[u64]) -> String {
    let inner: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    format!("[{}]", inner.join(","))
}

impl Certificate {
    /// Serializes to one deterministic NDJSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            Certificate::Legality(c) => {
                let evals: Vec<String> = c
                    .evaluations
                    .iter()
                    .map(|e| {
                        format!(
                            "{{\"distance\":{},\"image\":{}}}",
                            vec_json(&e.distance),
                            vec_json(&e.image)
                        )
                    })
                    .collect();
                format!(
                    "{{\"cert\":\"legality\",\"nest\":{},\"transform\":{},\
                     \"evaluations\":[{}],\"tileable\":{}}}",
                    c.nest,
                    mat_json(&c.transform),
                    evals.join(","),
                    c.tileable
                )
            }
            Certificate::Optimality(c) => {
                let frontier: Vec<String> = c
                    .frontier
                    .iter()
                    .map(|f| {
                        format!(
                            "{{\"transform\":{},\"mws\":{}}}",
                            mat_json(&f.transform),
                            f.mws
                        )
                    })
                    .collect();
                format!(
                    "{{\"cert\":\"optimality\",\"nest\":{},\"mws_before\":{},\
                     \"mws_after\":{},\"transform\":{},\"frontier\":[{}]}}",
                    c.nest,
                    c.mws_before,
                    c.mws_after,
                    mat_json(&c.transform),
                    frontier.join(",")
                )
            }
            Certificate::Bounds(c) => {
                let nest = match c.nest {
                    Some(k) => k.to_string(),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"cert\":\"bounds\",\"nest\":{},\"quantity\":\"{}\",\
                     \"method\":\"{}\",\"lower\":{},\"upper\":{},\"reason\":\"{}\"}}",
                    nest,
                    escape_json(&c.quantity),
                    escape_json(&c.method),
                    c.lower,
                    c.upper,
                    escape_json(&c.reason)
                )
            }
            Certificate::Sizing(c) => {
                let terms: Vec<String> = c
                    .per_nest
                    .iter()
                    .map(|t| format!("{{\"mws\":{},\"live_through\":{}}}", t.mws, t.live_through))
                    .collect();
                format!(
                    "{{\"cert\":\"sizing\",\"per_nest\":[{}],\"boundary_live\":{},\
                     \"peak_nest\":{},\"words\":{}}}",
                    terms.join(","),
                    u64_vec_json(&c.boundary_live),
                    c.peak_nest,
                    c.words
                )
            }
            Certificate::Fusion(c) => {
                let steps: Vec<String> = c
                    .steps
                    .iter()
                    .map(|s| {
                        format!(
                            "{{\"at\":{},\"before\":{},\"after\":{}}}",
                            s.at, s.before, s.after
                        )
                    })
                    .collect();
                format!(
                    "{{\"cert\":\"fusion\",\"unfused\":{},\"fused\":{},\"steps\":[{}]}}",
                    c.unfused,
                    c.fused,
                    steps.join(",")
                )
            }
        }
    }
}

fn as_usize(j: &Json) -> Option<usize> {
    j.as_i64().and_then(|n| usize::try_from(n).ok())
}

fn as_u64(j: &Json) -> Option<u64> {
    j.as_i64().and_then(|n| u64::try_from(n).ok())
}

fn as_vec_i64(j: &Json) -> Option<Vec<i64>> {
    match j {
        Json::Arr(a) => a.iter().map(Json::as_i64).collect(),
        _ => None,
    }
}

fn as_mat_i64(j: &Json) -> Option<Vec<Vec<i64>>> {
    match j {
        Json::Arr(a) => a.iter().map(as_vec_i64).collect(),
        _ => None,
    }
}

fn as_vec_u64(j: &Json) -> Option<Vec<u64>> {
    match j {
        Json::Arr(a) => a.iter().map(as_u64).collect(),
        _ => None,
    }
}

fn field<'a>(j: &'a Json, key: &str) -> Result<&'a Json, String> {
    j.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

impl Certificate {
    /// Deserializes one certificate from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field; the
    /// checker reports it as an `LM7007` violation.
    pub fn from_json(j: &Json) -> Result<Certificate, String> {
        let kind = field(j, "cert")?
            .as_str()
            .ok_or("field 'cert' must be a string")?;
        match kind {
            "legality" => {
                let evals = match field(j, "evaluations")? {
                    Json::Arr(a) => a
                        .iter()
                        .map(|e| {
                            Some(DistanceImage {
                                distance: as_vec_i64(e.get("distance")?)?,
                                image: as_vec_i64(e.get("image")?)?,
                            })
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or("bad 'evaluations' entry")?,
                    _ => return Err("'evaluations' must be an array".into()),
                };
                Ok(Certificate::Legality(LegalityCert {
                    nest: as_usize(field(j, "nest")?).ok_or("bad 'nest'")?,
                    transform: as_mat_i64(field(j, "transform")?).ok_or("bad 'transform'")?,
                    evaluations: evals,
                    tileable: match field(j, "tileable")? {
                        Json::Bool(b) => *b,
                        _ => return Err("'tileable' must be a boolean".into()),
                    },
                }))
            }
            "optimality" => {
                let frontier = match field(j, "frontier")? {
                    Json::Arr(a) => a
                        .iter()
                        .map(|f| {
                            Some(FrontierEntry {
                                transform: as_mat_i64(f.get("transform")?)?,
                                mws: as_u64(f.get("mws")?)?,
                            })
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or("bad 'frontier' entry")?,
                    _ => return Err("'frontier' must be an array".into()),
                };
                Ok(Certificate::Optimality(OptimalityCert {
                    nest: as_usize(field(j, "nest")?).ok_or("bad 'nest'")?,
                    mws_before: as_u64(field(j, "mws_before")?).ok_or("bad 'mws_before'")?,
                    mws_after: as_u64(field(j, "mws_after")?).ok_or("bad 'mws_after'")?,
                    transform: as_mat_i64(field(j, "transform")?).ok_or("bad 'transform'")?,
                    frontier,
                }))
            }
            "bounds" => Ok(Certificate::Bounds(BoundsCert {
                nest: match field(j, "nest")? {
                    Json::Null => None,
                    other => Some(as_usize(other).ok_or("bad 'nest'")?),
                },
                quantity: field(j, "quantity")?
                    .as_str()
                    .ok_or("bad 'quantity'")?
                    .to_string(),
                method: field(j, "method")?
                    .as_str()
                    .ok_or("bad 'method'")?
                    .to_string(),
                lower: as_u64(field(j, "lower")?).ok_or("bad 'lower'")?,
                upper: as_u64(field(j, "upper")?).ok_or("bad 'upper'")?,
                reason: field(j, "reason")?
                    .as_str()
                    .ok_or("bad 'reason'")?
                    .to_string(),
            })),
            "sizing" => {
                let per_nest = match field(j, "per_nest")? {
                    Json::Arr(a) => a
                        .iter()
                        .map(|t| {
                            Some(SizingTerm {
                                mws: as_u64(t.get("mws")?)?,
                                live_through: as_u64(t.get("live_through")?)?,
                            })
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or("bad 'per_nest' entry")?,
                    _ => return Err("'per_nest' must be an array".into()),
                };
                Ok(Certificate::Sizing(SizingCert {
                    per_nest,
                    boundary_live: as_vec_u64(field(j, "boundary_live")?)
                        .ok_or("bad 'boundary_live'")?,
                    peak_nest: as_usize(field(j, "peak_nest")?).ok_or("bad 'peak_nest'")?,
                    words: as_u64(field(j, "words")?).ok_or("bad 'words'")?,
                }))
            }
            "fusion" => {
                let steps = match field(j, "steps")? {
                    Json::Arr(a) => a
                        .iter()
                        .map(|s| {
                            Some(FusionStep {
                                at: as_usize(s.get("at")?)?,
                                before: as_u64(s.get("before")?)?,
                                after: as_u64(s.get("after")?)?,
                            })
                        })
                        .collect::<Option<Vec<_>>>()
                        .ok_or("bad 'steps' entry")?,
                    _ => return Err("'steps' must be an array".into()),
                };
                Ok(Certificate::Fusion(FusionCert {
                    unfused: as_u64(field(j, "unfused")?).ok_or("bad 'unfused'")?,
                    fused: as_u64(field(j, "fused")?).ok_or("bad 'fused'")?,
                    steps,
                }))
            }
            other => Err(format!("unknown certificate kind '{other}'")),
        }
    }
}

/// Parses an NDJSON certificate stream (one certificate per non-empty
/// line).
///
/// # Errors
///
/// `(line_number, description)` for the first malformed line (1-based).
pub fn parse_certificates(src: &str) -> Result<Vec<Certificate>, (usize, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = parse_json(line).ok_or((i + 1, "not valid JSON".to_string()))?;
        out.push(Certificate::from_json(&j).map_err(|e| (i + 1, e))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Certificate> {
        vec![
            Certificate::Legality(LegalityCert {
                nest: 0,
                transform: vec![vec![2, 3], vec![1, 1]],
                evaluations: vec![DistanceImage {
                    distance: vec![3, -2],
                    image: vec![0, 1],
                }],
                tileable: true,
            }),
            Certificate::Optimality(OptimalityCert {
                nest: 0,
                mws_before: 44,
                mws_after: 21,
                transform: vec![vec![2, 3], vec![1, 1]],
                frontier: vec![FrontierEntry {
                    transform: vec![vec![2, 3], vec![1, 1]],
                    mws: 21,
                }],
            }),
            Certificate::Bounds(BoundsCert {
                nest: Some(2),
                quantity: "nest-mws".into(),
                method: "salvaged-prefix".into(),
                lower: 1,
                upper: 3_999_998,
                reason: "budget exhausted (max-iterations)".into(),
            }),
            Certificate::Sizing(SizingCert {
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
            }),
            Certificate::Fusion(FusionCert {
                unfused: 256,
                fused: 0,
                steps: vec![FusionStep {
                    at: 0,
                    before: 256,
                    after: 0,
                }],
            }),
        ]
    }

    #[test]
    fn every_kind_round_trips_bit_identically() {
        for cert in samples() {
            let line = cert.to_json_line();
            let parsed = parse_certificates(&line).unwrap();
            assert_eq!(parsed, vec![cert.clone()], "value round trip: {line}");
            assert_eq!(parsed[0].to_json_line(), line, "byte round trip");
        }
    }

    #[test]
    fn whole_stream_round_trips() {
        let stream: String = samples().iter().map(|c| c.to_json_line() + "\n").collect();
        let parsed = parse_certificates(&stream).unwrap();
        assert_eq!(parsed, samples());
        let re: String = parsed.iter().map(|c| c.to_json_line() + "\n").collect();
        assert_eq!(re, stream);
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let err = parse_certificates("{\"cert\":\"legality\"}").unwrap_err();
        assert_eq!(err.0, 1);
        assert!(err.1.contains("missing field"), "{err:?}");
        // The retired cone-prune kind no longer parses either.
        for line in [
            "{\"cert\":\"bogus\"}",
            "{\"cert\":\"cone-prune\",\"nest\":0,\"bound\":6,\"direction\":[1,0],\"boxes\":[]}",
        ] {
            let err = parse_certificates(line).unwrap_err();
            assert!(err.1.contains("unknown certificate kind"), "{err:?}");
        }
        let ok = samples()[0].to_json_line();
        let err = parse_certificates(&format!("{ok}\nnot json")).unwrap_err();
        assert_eq!(err.0, 2);
    }
}
