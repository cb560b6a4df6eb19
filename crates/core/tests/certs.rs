//! Certificate round-tripping and adversarial mutation coverage.
//!
//! Two properties gate the proof-carrying layer:
//!
//! 1. **Round trip** — certificates emitted from real optimizer runs
//!    serialize to NDJSON, re-parse through the in-tree JSON parser
//!    bit-identically, and still check clean.
//! 2. **No silent accepts** — falsifying any semantic field of any
//!    certificate kind makes the independent checker reject. (Provenance
//!    strings like `reason` are deliberately unchecked.)

use loopmem_core::{certify_fusion, certify_optimization, certify_sizing, ScratchpadPlan, Session};
use loopmem_ir::{parse, parse_program, LoopNest, Program};
use loopmem_verify::{check_certificates, parse_certificates, Certificate, FrontierEntry};

/// The fusion search's plan for `program` (single thread, unlimited).
fn fusion_plan(program: &Program) -> ScratchpadPlan {
    let (_, plan) = Session::new().threads(1).scratchpad(program).unwrap();
    plan.expect("an exact baseline runs the fusion search")
}

fn example8() -> LoopNest {
    parse(
        "array X[200]\n\
         for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
    )
    .unwrap()
}

fn example8_program() -> Program {
    Program::new(vec![example8()]).unwrap()
}

fn pipeline_program() -> Program {
    parse_program(
        "array A[16][16]\narray B[16][16]\narray C[16][16]\n\
         for i = 1 to 16 { for j = 1 to 16 { A[i][j] = B[i][j]; } }\n\
         for i = 1 to 16 { for j = 1 to 16 { C[i][j] = A[i][j] + A[i][j]; } }",
    )
    .unwrap()
}

/// Every certificate kind, emitted from real runs on its program.
fn all_real_certs() -> Vec<(Program, Vec<Certificate>)> {
    let nest = example8();
    let opt = Session::new().optimize(&nest).unwrap();
    let opt_certs = certify_optimization(0, &nest, &opt);

    let program = pipeline_program();
    let plan = fusion_plan(&program);
    let sp_certs = vec![certify_sizing(&plan.unfused), certify_fusion(&plan)];

    vec![(example8_program(), opt_certs), (program, sp_certs)]
}

#[test]
fn ndjson_round_trip_is_bit_identical_and_still_checks() {
    for (program, certs) in all_real_certs() {
        let stream: String = certs.iter().map(|c| c.to_json_line() + "\n").collect();
        let parsed = parse_certificates(&stream).unwrap();
        assert_eq!(parsed, certs, "value round trip");
        let re: String = parsed.iter().map(|c| c.to_json_line() + "\n").collect();
        assert_eq!(re, stream, "byte round trip");
        assert_eq!(check_certificates(&program, &parsed), vec![]);
    }
}

/// Asserts the checker rejects the mutated certificate — the mutation
/// falsifies the claim, so silence would be an unsound accept.
fn assert_rejected(program: &Program, cert: Certificate, what: &str) {
    let violations = check_certificates(program, &[cert]);
    assert!(
        !violations.is_empty(),
        "silent accept after mutating {what}"
    );
}

#[test]
fn legality_mutations_are_rejected() {
    let nest = example8();
    let opt = Session::new().optimize(&nest).unwrap();
    let certs = certify_optimization(0, &nest, &opt);
    let program = example8_program();
    let Certificate::Legality(base) = &certs[0] else {
        panic!("first optimization certificate is legality");
    };

    let mut c = base.clone();
    c.nest = 7;
    assert_rejected(&program, Certificate::Legality(c), "legality.nest");

    let mut c = base.clone();
    c.transform = vec![vec![2, 3], vec![2, 3]];
    assert_rejected(&program, Certificate::Legality(c), "legality.transform");

    let mut c = base.clone();
    c.evaluations[0].image[0] += 1;
    assert_rejected(&program, Certificate::Legality(c), "legality.image");

    let mut c = base.clone();
    c.evaluations[0].distance[0] += 1;
    assert_rejected(&program, Certificate::Legality(c), "legality.distance");

    let mut c = base.clone();
    c.evaluations.pop();
    assert_rejected(&program, Certificate::Legality(c), "legality.evaluations");

    // The identity is legal for example 8 but NOT tileable (distances
    // have negative components), so an upgraded tileable claim must fail.
    let identity = vec![vec![1, 0], vec![0, 1]];
    let deps = loopmem_dep::analyze(&nest);
    let evaluations: Vec<_> = loopmem_dep::constraining_distances(&deps)
        .into_iter()
        .map(|d| loopmem_verify::DistanceImage {
            distance: d.clone(),
            image: d,
        })
        .collect();
    let c = loopmem_verify::LegalityCert {
        nest: 0,
        transform: identity,
        evaluations,
        tileable: true,
    };
    assert_rejected(&program, Certificate::Legality(c), "legality.tileable");
}

#[test]
fn optimality_mutations_are_rejected() {
    let nest = example8();
    let opt = Session::new().optimize(&nest).unwrap();
    let certs = certify_optimization(0, &nest, &opt);
    let program = example8_program();
    let Certificate::Optimality(base) = &certs[1] else {
        panic!("second optimization certificate is optimality");
    };

    let mut c = base.clone();
    c.nest = 9;
    assert_rejected(&program, Certificate::Optimality(c), "optimality.nest");

    let mut c = base.clone();
    c.mws_before += 1;
    assert_rejected(
        &program,
        Certificate::Optimality(c),
        "optimality.mws_before",
    );

    let mut c = base.clone();
    c.mws_after -= 1;
    assert_rejected(&program, Certificate::Optimality(c), "optimality.mws_after");

    let mut c = base.clone();
    c.transform = vec![vec![1, 1], vec![0, 1]];
    assert_rejected(&program, Certificate::Optimality(c), "optimality.transform");

    // Tampering the winner's recorded MWS: the exact replay cross-check
    // re-simulates the transformed nest and disagrees.
    let mut c = base.clone();
    let winner = c.transform.clone();
    for f in &mut c.frontier {
        if f.transform == winner {
            f.mws += 1;
        }
    }
    c.mws_after += 1;
    assert_rejected(
        &program,
        Certificate::Optimality(c),
        "optimality.frontier.mws",
    );

    // An invented frontier entry below the claimed minimum.
    let mut c = base.clone();
    c.frontier.push(FrontierEntry {
        transform: vec![vec![1, 0], vec![0, 1]],
        mws: 1,
    });
    assert_rejected(
        &program,
        Certificate::Optimality(c),
        "optimality.frontier (fake min)",
    );

    // Dropping the identity breaks the mws_before anchor.
    let mut c = base.clone();
    let identity = vec![vec![1, 0], vec![0, 1]];
    c.frontier.retain(|f| f.transform != identity);
    assert_rejected(
        &program,
        Certificate::Optimality(c),
        "optimality.frontier (no identity)",
    );
}

#[test]
fn bounds_mutations_are_rejected() {
    let nest = example8();
    let opt = Session::new().optimize(&nest).unwrap();
    let certs = certify_optimization(0, &nest, &opt);
    let program = example8_program();
    let Certificate::Bounds(base) = &certs[2] else {
        panic!("third optimization certificate is bounds");
    };
    assert_eq!((base.lower, base.upper), (44, 44));

    let mut c = base.clone();
    c.nest = Some(4);
    assert_rejected(&program, Certificate::Bounds(c), "bounds.nest");

    let mut c = base.clone();
    c.quantity = "vibes".into();
    assert_rejected(&program, Certificate::Bounds(c), "bounds.quantity");

    let mut c = base.clone();
    c.method = "trust-me".into();
    assert_rejected(&program, Certificate::Bounds(c), "bounds.method");

    // The exact MWS is 44: excluding it from either side is unsound.
    let mut c = base.clone();
    c.lower = 45;
    assert_rejected(&program, Certificate::Bounds(c), "bounds.lower");

    let mut c = base.clone();
    c.upper = 43;
    c.lower = 0;
    c.method = "union-box".into();
    assert_rejected(&program, Certificate::Bounds(c), "bounds.upper");
}

#[test]
fn sizing_and_fusion_mutations_are_rejected() {
    let program = pipeline_program();
    let plan = fusion_plan(&program);
    let sizing = certify_sizing(&plan.unfused);
    let fusion = certify_fusion(&plan);
    let Certificate::Sizing(sbase) = &sizing else {
        panic!("sizing certificate");
    };
    let Certificate::Fusion(fbase) = &fusion else {
        panic!("fusion certificate");
    };

    let mut c = sbase.clone();
    c.per_nest[0].mws += 1;
    assert_rejected(&program, Certificate::Sizing(c), "sizing.per_nest.mws");

    let mut c = sbase.clone();
    c.per_nest[1].live_through -= 1;
    assert_rejected(
        &program,
        Certificate::Sizing(c),
        "sizing.per_nest.live_through",
    );

    let mut c = sbase.clone();
    c.per_nest.pop();
    assert_rejected(
        &program,
        Certificate::Sizing(c),
        "sizing.per_nest (dropped)",
    );

    let mut c = sbase.clone();
    c.boundary_live[0] -= 1;
    assert_rejected(&program, Certificate::Sizing(c), "sizing.boundary_live");

    let mut c = sbase.clone();
    c.peak_nest = 1;
    c.words += 1;
    assert_rejected(&program, Certificate::Sizing(c), "sizing.peak_nest");

    let mut c = sbase.clone();
    c.words -= 1;
    assert_rejected(&program, Certificate::Sizing(c), "sizing.words");

    let mut c = fbase.clone();
    c.unfused += 1;
    assert_rejected(&program, Certificate::Fusion(c), "fusion.unfused");

    let mut c = fbase.clone();
    c.fused += 1;
    assert_rejected(&program, Certificate::Fusion(c), "fusion.fused");

    let mut c = fbase.clone();
    c.steps[0].at = 5;
    assert_rejected(&program, Certificate::Fusion(c), "fusion.steps.at");

    let mut c = fbase.clone();
    c.steps[0].before += 1;
    assert_rejected(&program, Certificate::Fusion(c), "fusion.steps.before");

    let mut c = fbase.clone();
    c.steps[0].after = c.steps[0].before + 1;
    assert_rejected(&program, Certificate::Fusion(c), "fusion.steps.after");

    let mut c = fbase.clone();
    c.steps.clear();
    assert_rejected(&program, Certificate::Fusion(c), "fusion.steps (cleared)");

    // A forged fusion of a consumer that reads one row ahead: the fused
    // program's words replay as claimed, but its read of A[i+1][j] would
    // run before the producer writes that element.
    let ahead = parse_program(
        "array A[20][20]\narray B[20][20]\narray C[20][20]\n\
         for i = 1 to 16 { for j = 1 to 16 { A[i][j] = B[i][j]; } }\n\
         for i = 1 to 16 { for j = 1 to 16 { C[i][j] = A[i+1][j] + A[i][j]; } }",
    )
    .unwrap();
    let Certificate::Fusion(honest) = certify_fusion(&fusion_plan(&ahead)) else {
        panic!("fusion certificate");
    };
    assert!(honest.steps.is_empty(), "the engine refuses this fusion");
    let forged = parse_certificates(
        "{\"cert\":\"fusion\",\"unfused\":272,\"fused\":16,\
         \"steps\":[{\"at\":0,\"before\":272,\"after\":16}]}",
    )
    .unwrap();
    let violations = check_certificates(&ahead, &forged);
    assert_eq!(
        violations.iter().map(|v| v.code).collect::<Vec<_>>(),
        ["LM7008"],
        "{violations:?}"
    );
    assert_eq!(violations[0].nest, Some(1), "anchored at the consumer");
}
