//! Loop tiling (§4: "we require that the loop nest be tileable; this
//! permits us to use block transfers").
//!
//! The paper insists the minimizing transformation leave the nest fully
//! permutable so the result can be tiled and the window streamed through
//! on-chip memory in blocks. This module supplies that last step: it
//! rewrites a rectangular `n`-deep nest into the `2n`-deep tiled form
//! (tile loops outer, intra-tile loops inner) as a *perfect* nest — the
//! intra bounds are affine `max`/`min` pieces over the tile indices, which
//! the IR supports natively — so every analysis and the simulator apply
//! unchanged to tiled code.
//!
//! Legality is the caller's obligation and is exactly
//! [`loopmem_dep::is_tileable`] on the original nest (full permutability,
//! Irigoin–Triolet).

use loopmem_ir::bounds::BoundPiece;
use loopmem_ir::{Affine, ArrayRef, Bound, Loop, LoopNest, Statement};
use loopmem_linalg::IMat;
use std::error::Error;
use std::fmt;

/// Failure to tile a nest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TileError {
    /// Tiling needs constant bounds (tile a nest *before* skewing it, or
    /// re-tile the transformed space when its bounds are constant).
    NotRectangular,
    /// One tile size per loop is required.
    WrongArity {
        /// Sizes given.
        given: usize,
        /// Nest depth.
        depth: usize,
    },
    /// Tile sizes must be positive.
    NonPositiveTile(i64),
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileError::NotRectangular => write!(f, "tiling requires constant loop bounds"),
            TileError::WrongArity { given, depth } => {
                write!(f, "{given} tile sizes for a {depth}-deep nest")
            }
            TileError::NonPositiveTile(b) => write!(f, "tile size {b} is not positive"),
        }
    }
}

impl Error for TileError {}

/// Tiles a rectangular nest with the given per-loop tile sizes.
///
/// Loop `k` over `lo..=hi` becomes a tile loop `tt_k = 0 ..= ⌊(hi−lo)/B⌋`
/// and an intra loop `i_k = lo + B·tt_k ..= min(hi, lo + B·tt_k + B − 1)`.
/// The result executes exactly the same accesses (tests verify the access
/// multiset), grouped into `Π ⌈N_k/B_k⌉` tiles.
///
/// # Errors
///
/// See [`TileError`]. Legality (full permutability) is not checked here —
/// gate on [`loopmem_dep::is_tileable`] first.
pub fn tile(nest: &LoopNest, tile_sizes: &[i64]) -> Result<LoopNest, TileError> {
    let n = nest.depth();
    if tile_sizes.len() != n {
        return Err(TileError::WrongArity {
            given: tile_sizes.len(),
            depth: n,
        });
    }
    if let Some(&bad) = tile_sizes.iter().find(|&&b| b <= 0) {
        return Err(TileError::NonPositiveTile(bad));
    }
    let ranges = nest.rectangular_ranges().ok_or(TileError::NotRectangular)?;

    let nn = 2 * n; // new depth: tile loops then intra loops
    let mut loops = Vec::with_capacity(nn);
    // Tile loops (variables 0..n in the new nest).
    for (k, (&(lo, hi), &b)) in ranges.iter().zip(tile_sizes).enumerate() {
        let trip = (hi - lo).max(0) / b;
        loops.push(Loop {
            var: format!("{}{}", TILE_PREFIX, nest.loops()[k].var),
            lower: Bound::constant(nn, 0),
            upper: Bound::constant(nn, trip),
        });
    }
    // Intra loops (variables n..2n).
    for (k, (&(lo, hi), &b)) in ranges.iter().zip(tile_sizes).enumerate() {
        // lower: lo + b*tt_k ; upper: min(hi, lo + b*tt_k + b - 1).
        let mut base = vec![0i64; nn];
        base[k] = b;
        let lower = Bound::single(Affine::new(base.clone(), lo));
        let upper = Bound::from_pieces(vec![
            BoundPiece::simple(Affine::constant(nn, hi)),
            BoundPiece::simple(Affine::new(base, lo + b - 1)),
        ]);
        loops.push(Loop {
            var: nest.loops()[k].var.clone(),
            lower,
            upper,
        });
    }

    // References: subscripts read the intra variables only.
    let statements = nest
        .statements()
        .iter()
        .map(|s| {
            Statement::new(
                s.refs()
                    .iter()
                    .map(|r| {
                        let mut m = IMat::zeros(r.rank(), nn);
                        for row in 0..r.rank() {
                            for col in 0..n {
                                m[(row, n + col)] = r.matrix[(row, col)];
                            }
                        }
                        ArrayRef::new(r.array, m, r.offset.clone(), r.kind)
                    })
                    .collect(),
            )
        })
        .collect();

    Ok(LoopNest::new(loops, nest.arrays().to_vec(), statements)
        .expect("tiled nest is structurally valid"))
}

const TILE_PREFIX: &str = "tt_";

/// Number of tiles the tiled nest executes.
pub fn tile_count(nest: &LoopNest, tile_sizes: &[i64]) -> Result<i64, TileError> {
    let ranges = nest.rectangular_ranges().ok_or(TileError::NotRectangular)?;
    if tile_sizes.len() != ranges.len() {
        return Err(TileError::WrongArity {
            given: tile_sizes.len(),
            depth: ranges.len(),
        });
    }
    Ok(ranges
        .iter()
        .zip(tile_sizes)
        .map(|(&(lo, hi), &b)| (hi - lo).max(0) / b + 1)
        .product())
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_dep::{analyze, is_tileable};
    use loopmem_ir::parse;
    use loopmem_sim::{count_iterations, misses, Policy, Trace};

    fn simulate(nest: &LoopNest) -> loopmem_sim::SimResult {
        crate::Session::new().simulate(nest).unwrap()
    }

    fn matmult() -> LoopNest {
        parse(
            "array C[16][16]\narray A[16][16]\narray B[16][16]\n\
             for i = 1 to 16 { for j = 1 to 16 { for k = 1 to 16 {\n\
               C[i][j] = C[i][j] + A[i][k] * B[k][j];\n\
             } } }",
        )
        .unwrap()
    }

    #[test]
    fn tiled_nest_preserves_work() {
        let nest = matmult();
        let tiled = tile(&nest, &[4, 4, 4]).unwrap();
        assert_eq!(tiled.depth(), 6);
        assert_eq!(count_iterations(&tiled), count_iterations(&nest));
        let (a, b) = (simulate(&nest), simulate(&tiled));
        assert_eq!(a.distinct_total(), b.distinct_total());
        for (id, sa) in &a.per_array {
            assert_eq!(sa.accesses, b.per_array[id].accesses);
        }
    }

    #[test]
    fn partial_tiles_are_handled() {
        // 10 iterations with tile size 4: tiles of 4, 4, 2.
        let nest =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j]; } }").unwrap();
        let tiled = tile(&nest, &[4, 3]).unwrap();
        assert_eq!(count_iterations(&tiled), 100);
        assert_eq!(tile_count(&nest, &[4, 3]).unwrap(), 3 * 4);
    }

    #[test]
    fn tiling_cuts_lru_misses_for_matmult() {
        // The §4 block-transfer motivation, measured: at a buffer of
        // 3·B²-ish words, tiled matmult hits where untiled thrashes.
        let nest = matmult();
        let tiled = tile(&nest, &[4, 4, 4]).unwrap();
        let capacity = 3 * 16 + 32; // three 4x4 tiles + slack
        let untiled_misses = misses(&Trace::from_nest(&nest), capacity, Policy::Lru);
        let tiled_misses = misses(&Trace::from_nest(&tiled), capacity, Policy::Lru);
        assert!(
            2 * tiled_misses <= untiled_misses,
            "tiled {tiled_misses} vs untiled {untiled_misses}"
        );
    }

    #[test]
    fn matmult_is_tileable() {
        let nest = matmult();
        let deps = analyze(&nest);
        assert!(is_tileable(&loopmem_linalg::IMat::identity(3), &deps));
    }

    #[test]
    fn error_cases() {
        let nest = matmult();
        assert_eq!(
            tile(&nest, &[4, 4]).unwrap_err(),
            TileError::WrongArity { given: 2, depth: 3 }
        );
        assert_eq!(
            tile(&nest, &[4, 0, 4]).unwrap_err(),
            TileError::NonPositiveTile(0)
        );
        let tri =
            parse("array A[10][10]\nfor i = 1 to 10 { for j = i to 10 { A[i][j]; } }").unwrap();
        assert_eq!(tile(&tri, &[2, 2]).unwrap_err(), TileError::NotRectangular);
    }

    #[test]
    fn tile_size_one_and_full() {
        let nest = parse("array A[6][6]\nfor i = 1 to 6 { for j = 1 to 6 { A[i][j]; } }").unwrap();
        // B = 1: every iteration its own tile.
        let t1 = tile(&nest, &[1, 1]).unwrap();
        assert_eq!(count_iterations(&t1), 36);
        assert_eq!(tile_count(&nest, &[1, 1]).unwrap(), 36);
        // B = full extent: a single tile.
        let tf = tile(&nest, &[6, 6]).unwrap();
        assert_eq!(count_iterations(&tf), 36);
        assert_eq!(tile_count(&nest, &[6, 6]).unwrap(), 1);
    }
}
