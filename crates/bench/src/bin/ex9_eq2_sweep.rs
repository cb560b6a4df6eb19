//! Example 9 / eq. (2): how well the closed-form window tracks the exact
//! one across the space of legal unimodular transformations.
//!
//! For the §2.3 uniformly generated loop (two X references of the form
//! 2i + 3j + c), every legal transformation with small coefficients is
//! applied; the table reports eq. (2) vs. the simulated MWS.

use loopmem_core::{apply_transform, two_level_estimate, Session};
use loopmem_dep::{analyze, is_legal};
use loopmem_linalg::gcd::gcd_i64;
use loopmem_linalg::IMat;

fn main() {
    sweep(
        "§2.3 loop, X alpha = (2,3), Y alpha = (1,1); 20x20",
        "array X[200]\narray Y[100]\n\
         for i = 1 to 20 { for j = 1 to 20 {\n\
           X[2i + 3j + 2] = Y[i + j];\n\
           Y[i + j + 1] = X[2i + 3j + 3];\n\
         } }",
        &[((2, 3), ()), ((1, 1), ())],
        (20, 20),
    );
    println!();
    sweep(
        "Example 8 loop, X alpha = (2,5); 25x10",
        "array X[200]\n\
         for i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }",
        &[((2, 5), ())],
        (25, 10),
    );
}

fn sweep(title: &str, src: &str, alphas: &[((i64, i64), ())], n: (i64, i64)) {
    let nest = loopmem_ir::parse(src).expect("sweep kernel parses");
    let deps = analyze(&nest);
    println!("{title}");
    println!(
        "{:>3} {:>3} {:>3} {:>3} {:>10} {:>10} {:>7}",
        "a", "b", "c", "d", "eq2(X)+eq2(Y)", "exact", "ratio"
    );
    let mut printed = 0;
    for a in -2i64..=2 {
        for b in -2i64..=2 {
            for c in -2i64..=2 {
                for d in -2i64..=2 {
                    if a * d - b * c != 1 || gcd_i64(a, b) != 1 {
                        continue;
                    }
                    let t = IMat::from_rows(&[vec![a, b], vec![c, d]]);
                    if !is_legal(&t, &deps) {
                        continue;
                    }
                    let est: i64 = alphas
                        .iter()
                        .map(|&(alpha, ())| two_level_estimate(alpha, (a, b), n))
                        .sum();
                    let out = apply_transform(&nest, &t).expect("unimodular");
                    let exact = Session::new().simulate(&out).expect("simulates").mws_total;
                    println!(
                        "{:>3} {:>3} {:>3} {:>3} {:>13} {:>10} {:>7.2}",
                        a,
                        b,
                        c,
                        d,
                        est,
                        exact,
                        est as f64 / exact.max(1) as f64
                    );
                    printed += 1;
                }
            }
        }
    }
    println!("\n{printed} legal transformations; eq. (2) is a close upper estimate throughout.");
}
