//! Array declarations and affine array references.

use crate::expr::Affine;
use loopmem_linalg::IMat;
use std::fmt;

/// Index of an array in its nest's declaration table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub usize);

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "array#{}", self.0)
    }
}

/// A declared array: a name and its declared extents.
///
/// The product of the extents is the *default* memory requirement the paper
/// compares against (Figure 2's first column).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Array name.
    pub name: String,
    /// Declared extent of each dimension.
    pub dims: Vec<i64>,
}

impl ArrayDecl {
    /// Creates a declaration.
    ///
    /// # Panics
    ///
    /// Panics if any extent is non-positive or `dims` is empty.
    pub fn new(name: impl Into<String>, dims: Vec<i64>) -> Self {
        assert!(!dims.is_empty(), "array needs at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "extents must be positive");
        ArrayDecl {
            name: name.into(),
            dims,
        }
    }

    /// Total number of declared elements.
    pub fn size(&self) -> i64 {
        self.dims.iter().product()
    }

    /// Dimensionality `d`.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }
}

/// Row-major flattening of element coordinates inside a bounding box.
///
/// Built from conservative per-dimension index ranges (see
/// [`ArrayRef::index_ranges`]), this maps each in-box coordinate vector to
/// a dense cell offset so simulators can replace hash maps with flat
/// tables. Out-of-box coordinates flatten to `None`.
///
/// ```
/// use loopmem_ir::ElementBox;
/// let b = ElementBox::new(&[(1, 4), (0, 9)]); // 4 x 10 box
/// assert_eq!(b.cells(), 40);
/// assert_eq!(b.flatten(&[1, 0]), Some(0));
/// assert_eq!(b.flatten(&[2, 3]), Some(13));
/// assert_eq!(b.flatten(&[0, 0]), None); // below the box
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElementBox {
    lo: Vec<i64>,
    extents: Vec<i64>,
    strides: Vec<i64>,
    cells: u128,
}

impl ElementBox {
    /// Builds a box from inclusive per-dimension ranges. Empty (inverted)
    /// ranges produce a zero-cell box that flattens nothing. Extents wider
    /// than `i64` (ranges spanning most of the type's domain) saturate to
    /// `i64::MAX`; such boxes are far beyond any simulator's table budget
    /// and only their (saturated) `cells` count is ever consulted.
    pub fn new(ranges: &[(i64, i64)]) -> Self {
        let lo: Vec<i64> = ranges.iter().map(|&(l, _)| l).collect();
        let extents: Vec<i64> = ranges
            .iter()
            .map(|&(l, h)| (h as i128 - l as i128 + 1).clamp(0, i64::MAX as i128) as i64)
            .collect();
        let mut strides = vec![0i64; ranges.len()];
        let mut cells: u128 = 1;
        for d in (0..ranges.len()).rev() {
            strides[d] = if cells > u64::MAX as u128 {
                0
            } else {
                cells as i64
            };
            cells = cells.saturating_mul(extents[d] as u128);
        }
        ElementBox {
            lo,
            extents,
            strides,
            cells,
        }
    }

    /// Number of cells in the box (0 when any dimension is empty).
    pub fn cells(&self) -> u128 {
        self.cells
    }

    /// Per-dimension lower corner of the box.
    pub fn lo(&self) -> &[i64] {
        &self.lo
    }

    /// Per-dimension extents (cell counts; 0 for an empty dimension).
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// Row-major strides (innermost dimension has stride 1). Zero when the
    /// box is too large to address linearly.
    pub fn strides(&self) -> &[i64] {
        &self.strides
    }

    /// Dense row-major offset of `idx`, or `None` when outside the box.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len()` differs from the box rank.
    pub fn flatten(&self, idx: &[i64]) -> Option<usize> {
        assert_eq!(idx.len(), self.lo.len(), "coordinate rank mismatch");
        let mut off: usize = 0;
        for (d, &x) in idx.iter().enumerate() {
            let rel = x - self.lo[d];
            if rel < 0 || rel >= self.extents[d] {
                return None;
            }
            off += rel as usize * self.strides[d] as usize;
        }
        Some(off)
    }
}

/// Whether a reference reads or writes its element.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The reference reads the element.
    Read,
    /// The reference writes the element.
    Write,
}

/// An affine array reference `U[A·I + b]`.
///
/// `matrix` is the `d × n` access (data reference) matrix `A` and `offset`
/// the offset vector `b` of §2; `subscripts()` recovers the per-dimension
/// [`Affine`] view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayRef {
    /// The referenced array.
    pub array: ArrayId,
    /// Access matrix (`d` rows, `n` columns).
    pub matrix: IMat,
    /// Offset vector (`d` entries).
    pub offset: Vec<i64>,
    /// Read or write.
    pub kind: AccessKind,
}

impl ArrayRef {
    /// Creates a reference; validates that `offset` matches the matrix rows.
    ///
    /// # Panics
    ///
    /// Panics if `offset.len() != matrix.nrows()`.
    pub fn new(array: ArrayId, matrix: IMat, offset: Vec<i64>, kind: AccessKind) -> Self {
        assert_eq!(
            offset.len(),
            matrix.nrows(),
            "offset length must equal array rank"
        );
        ArrayRef {
            array,
            matrix,
            offset,
            kind,
        }
    }

    /// Builds a reference from per-dimension affine subscripts.
    ///
    /// # Panics
    ///
    /// Panics if `subs` is empty or the subscripts disagree on depth.
    pub fn from_subscripts(array: ArrayId, subs: &[Affine], kind: AccessKind) -> Self {
        assert!(!subs.is_empty(), "reference needs at least one subscript");
        let matrix = IMat::from_rows(&subs.iter().map(|s| s.coeffs().to_vec()).collect::<Vec<_>>());
        let offset = subs.iter().map(Affine::constant_term).collect();
        ArrayRef::new(array, matrix, offset, kind)
    }

    /// The array rank `d` this reference indexes.
    pub fn rank(&self) -> usize {
        self.matrix.nrows()
    }

    /// The nest depth `n` the subscripts range over.
    pub fn depth(&self) -> usize {
        self.matrix.ncols()
    }

    /// Evaluates the subscript vector at iteration `iter`.
    pub fn index_at(&self, iter: &[i64]) -> Vec<i64> {
        let mut v = self.matrix.mul_vec(iter);
        for (x, &b) in v.iter_mut().zip(&self.offset) {
            *x += b;
        }
        v
    }

    /// Conservative per-dimension subscript ranges over a per-variable
    /// box: evaluating the reference anywhere inside `var_ranges` yields an
    /// index inside the returned box. Exact over non-empty boxes (affine
    /// extrema sit at corners) whose subscripts stay inside `i64`;
    /// overflowing endpoints saturate to `i64::MIN`/`i64::MAX`. Over a
    /// transformed nest's [`LoopNest::var_ranges`](crate::LoopNest::var_ranges)
    /// the box can be far larger than the subscripts' range over the
    /// iteration polytope, so the dense simulator engine only starts from
    /// it: its planner intersects each range with the polytope range
    /// before sizing a touch table. The analytic degradation bounds use
    /// this box as it is.
    pub fn index_ranges(&self, var_ranges: &[(i64, i64)]) -> Vec<(i64, i64)> {
        self.subscripts()
            .iter()
            .map(|s| s.eval_interval_saturating(var_ranges))
            .collect()
    }

    /// Per-dimension affine subscripts.
    pub fn subscripts(&self) -> Vec<Affine> {
        (0..self.rank())
            .map(|r| Affine::new(self.matrix.row(r).to_vec(), self.offset[r]))
            .collect()
    }

    /// `true` if two references are *uniformly generated*: same array and
    /// same access matrix (offsets may differ) — §2.3.
    pub fn uniformly_generated_with(&self, other: &ArrayRef) -> bool {
        self.array == other.array && self.matrix == other.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decl_size() {
        let d = ArrayDecl::new("A", vec![16, 16]);
        assert_eq!(d.size(), 256);
        assert_eq!(d.rank(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_panics() {
        let _ = ArrayDecl::new("A", vec![0]);
    }

    #[test]
    fn reference_evaluation() {
        // A[i-1][j+2] over a 2-deep nest (Example 2's second reference).
        let r = ArrayRef::new(ArrayId(0), IMat::identity(2), vec![-1, 2], AccessKind::Read);
        assert_eq!(r.index_at(&[5, 7]), vec![4, 9]);
        assert_eq!(r.rank(), 2);
        assert_eq!(r.depth(), 2);
    }

    #[test]
    fn subscripts_roundtrip() {
        let subs = [
            Affine::new(vec![3, 0, 1], 0),
            Affine::new(vec![0, 1, 1], -2),
        ];
        let r = ArrayRef::from_subscripts(ArrayId(1), &subs, AccessKind::Write);
        assert_eq!(r.subscripts(), subs.to_vec());
        assert_eq!(r.offset, vec![0, -2]);
    }

    #[test]
    fn uniform_generation() {
        let a = ArrayRef::new(ArrayId(0), IMat::identity(2), vec![0, 0], AccessKind::Write);
        let b = ArrayRef::new(ArrayId(0), IMat::identity(2), vec![-1, 2], AccessKind::Read);
        let c = ArrayRef::new(
            ArrayId(0),
            IMat::from_rows(&[vec![1, 0], vec![0, 2]]),
            vec![0, 0],
            AccessKind::Read,
        );
        assert!(a.uniformly_generated_with(&b));
        assert!(!a.uniformly_generated_with(&c));
    }
}
