//! Proof-carrying certificates for the loopmem optimizer, plus the
//! independent checker that validates them.
//!
//! The optimizer's searches (candidate enumeration, branch and bound,
//! fusion, scratchpad sizing) are fast but intricate — exactly the kind of
//! code a bug hides in. This crate makes them *auditable* instead of
//! *trusted*: every user-facing answer is accompanied by a
//! [`Certificate`] recording the evidence for the claim, and
//! [`check_certificates`] replays that evidence from scratch using only
//! the small arithmetic crates (`loopmem-linalg`, `loopmem-poly`,
//! `loopmem-dep`, `loopmem-ir`). The checker deliberately does **not**
//! depend on `loopmem-core` or `loopmem-analyze` — if the search code is
//! wrong, the checker cannot inherit the bug (see DESIGN.md §14 for the
//! trusted-base argument).
//!
//! Certificate kinds:
//!
//! * **legality** — the constraining distance set plus every `T·δ`
//!   evaluation behind a legality or tileability claim;
//! * **optimality** — the evaluated candidate frontier, so the claimed
//!   winner can be confirmed minimal over the certified search space;
//! * **bounds** — a degraded `[lower, upper]` answer with the analytic
//!   ladder step that produced it;
//! * **sizing** — the per-nest MWS + live-through terms reproducing the
//!   scratchpad `max_k` arithmetic;
//! * **fusion** — the strict-decrease chain of accepted fusion steps,
//!   each replayed for conformability and legality.
//!
//! Certificates serialize to deterministic NDJSON ([`Certificate::to_json_line`])
//! and parse back bit-identically ([`parse_certificates`]), so they can be
//! shipped alongside build artifacts and re-audited offline with
//! `loopmem verify --cert`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cert;
pub mod check;
pub mod replay;

pub use cert::{
    parse_certificates, BoundsCert, Certificate, DistanceImage, FrontierEntry, FusionCert,
    FusionStep, LegalityCert, OptimalityCert, SizingCert, SizingTerm,
};
pub use check::{check_certificate, check_certificates, Violation};
pub use replay::{nest_mws, replay_program, union_box_upper, ProgramReplay, REPLAY_CAP};

#[cfg(test)]
mod trusted_base {
    /// The crate graph *is* the trusted-base argument (DESIGN.md §14):
    /// the checker must not link the searches it audits. Pin the
    /// manifest so a convenience dependency on core or analyze cannot
    /// sneak in without tripping CI.
    #[test]
    fn checker_does_not_depend_on_the_search_code() {
        let manifest = include_str!("../Cargo.toml");
        assert!(
            !manifest.contains("loopmem-core"),
            "loopmem-verify must not depend on loopmem-core"
        );
        assert!(
            !manifest.contains("loopmem-analyze"),
            "loopmem-verify must not depend on loopmem-analyze"
        );
        assert!(
            !manifest.contains("loopmem-sim"),
            "loopmem-verify must replay iterations itself, not via loopmem-sim"
        );
    }
}
