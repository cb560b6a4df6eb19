//! Extended kernel suite — codes beyond the paper's seven, exercising the
//! same analysis on other classic array-dominated shapes. Used by the
//! `fig2_extended` binary and by generality tests.

use crate::kernels::Kernel;

/// Jacobi-style two-array 5-point smoother (out-of-place `sor`): the
/// variant whose window *can* be reduced, unlike the in-place form.
pub const JACOBI_2D: Kernel = Kernel {
    name: "jacobi_2d",
    description: "out-of-place 5-point smoother, 24x24 grids",
    source: "array B[24][24]\narray A[24][24]\n\
             for i = 2 to 23 {\n\
               for j = 2 to 23 {\n\
                 B[i][j] = 0.2 * (A[i][j] + A[i-1][j] + A[i+1][j] + A[i][j-1] + A[i][j+1]);\n\
               }\n\
             }",
};

/// 2-D convolution with a 3×3 kernel over a 32×32 image.
pub const CONV2D: Kernel = Kernel {
    name: "conv2d",
    description: "3x3 convolution, 32x32 image",
    source: "array OUT[30][30]\narray IN[32][32]\narray K[3][3]\n\
             for i = 1 to 30 {\n\
               for j = 1 to 30 {\n\
                 for ki = 1 to 3 {\n\
                   for kj = 1 to 3 {\n\
                     OUT[i][j] = OUT[i][j] + IN[i + ki - 1][j + kj - 1] * K[ki][kj];\n\
                   }\n\
                 }\n\
               }\n\
             }",
};

/// 64-tap FIR filter over a 1-D signal.
pub const FIR: Kernel = Kernel {
    name: "fir",
    description: "64-tap FIR over 1024 samples",
    source: "array Y[960]\narray X[1024]\narray H[64]\n\
             for t = 1 to 960 {\n\
               for k = 1 to 64 {\n\
                 Y[t] = Y[t] + X[t + k - 1] * H[k];\n\
               }\n\
             }",
};

/// Out-of-place matrix transpose (pure permutation access, no element
/// reuse at all — the window should be zero).
pub const TRANSPOSE: Kernel = Kernel {
    name: "transpose",
    description: "32x32 out-of-place transpose",
    source: "array B[32][32]\narray A[32][32]\n\
             for i = 1 to 32 {\n\
               for j = 1 to 32 {\n\
                 B[j][i] = A[i][j];\n\
               }\n\
             }",
};

/// Band-matrix times vector (rank-deficient accesses in both operands).
pub const BANDED_MV: Kernel = Kernel {
    name: "banded_mv",
    description: "banded (bandwidth 9) matrix-vector product, N = 64",
    source: "array Y[64]\narray D[64][9]\narray X[72]\n\
             for i = 1 to 64 {\n\
               for b = 1 to 9 {\n\
                 Y[i] = Y[i] + D[i][b] * X[i + b - 1];\n\
               }\n\
             }",
};

/// The extended suite.
pub fn extended_kernels() -> Vec<Kernel> {
    vec![JACOBI_2D, CONV2D, FIR, TRANSPOSE, BANDED_MV]
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_core::Session;
    use loopmem_ir::LoopNest;
    use loopmem_sim::SimResult;

    fn simulate(nest: &LoopNest) -> SimResult {
        Session::new().simulate(nest).unwrap()
    }

    #[test]
    fn extended_kernels_parse_and_analyze() {
        for k in extended_kernels() {
            let nest = k.nest();
            let s = simulate(&nest);
            assert!(s.iterations > 0, "{}", k.name);
            assert!(
                s.mws_total <= s.distinct_total(),
                "{}: window exceeds footprint",
                k.name
            );
        }
    }

    #[test]
    fn transpose_has_zero_window() {
        // Every element is touched exactly once: nothing is ever reused.
        let s = simulate(&TRANSPOSE.nest());
        assert_eq!(s.mws_total, 0);
    }

    #[test]
    fn jacobi_window_is_two_rows_in_every_order() {
        // Out-of-place stencils have only input "dependences" on A, so
        // any reordering is legal — but a 5-point read set keeps two rows
        // (or two columns, or two anti-diagonals) of A live in every
        // order, so the optimizer correctly reports no improvement.
        let nest = JACOBI_2D.nest();
        let opt = Session::new().optimize(&nest).expect("search succeeds");
        assert_eq!(opt.mws_before, 44); // ~2 rows of the 22-wide interior
        assert_eq!(opt.mws_after, opt.mws_before);
    }

    #[test]
    fn fir_window_is_tap_sized() {
        // All 64 coefficients stay live, the sliding X window holds ~63
        // samples, and Y is live one t at a time: MWS ≈ 127.
        let s = simulate(&FIR.nest());
        assert!((126..=129).contains(&s.mws_total), "{}", s.mws_total);
        let h = FIR.nest();
        let h_id = h.array_by_name("H").expect("H declared");
        assert_eq!(simulate(&h).array(h_id).mws, 64, "all taps resident");
    }

    #[test]
    fn optimizer_never_regresses_on_extended_suite() {
        for k in extended_kernels() {
            let nest = k.nest();
            let opt = Session::new().optimize(&nest).expect("search succeeds");
            assert!(opt.mws_after <= opt.mws_before, "{}", k.name);
        }
    }
}
