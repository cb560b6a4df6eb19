//! Symbolic (parametric) versions of the paper's closed forms.
//!
//! The paper states its results as formulas over the loop limits —
//! `A_d = 2N₁N₂ − (N₁−1)(N₂−2)`, `MWS = d₁(N₂−|d₂|)(N₃−|d₃|)+…` — because
//! an embedded designer sizes memory before freezing the problem size.
//! This module re-derives those formulas *symbolically*: a small exact
//! multivariate polynomial type over named parameters, plus generators
//! that read the same §3 case analysis as the numeric estimators but
//! keep the extents `N₁ … N_n` as variables.
//!
//! Dependence distances and reuse vectors never depend on the extents
//! (they come from access-matrix arithmetic alone), so the symbolic and
//! numeric paths share them; property tests pin
//! `formula.eval(sizes) == numeric(sizes)` across random sizes.

use crate::distinct::{cases, Method};
use loopmem_ir::{ArrayId, LoopNest};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A monomial: parameter name → exponent (empty = the constant monomial).
type Monomial = BTreeMap<String, u32>;

/// An exact multivariate polynomial with `i64` coefficients over named
/// parameters.
///
/// ```
/// use loopmem_core::symbolic::Poly;
/// let n1 = Poly::var("N1");
/// let n2 = Poly::var("N2");
/// let f = Poly::constant(2) * n1.clone() * n2.clone()
///     - (n1 - Poly::constant(1)) * (n2 - Poly::constant(2));
/// assert_eq!(f.to_string(), "N1*N2 + 2*N1 + N2 - 2");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Poly {
    terms: BTreeMap<Monomial, i64>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// A constant polynomial.
    pub fn constant(c: i64) -> Poly {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(Monomial::new(), c);
        }
        Poly { terms }
    }

    /// A single parameter.
    pub fn var(name: impl Into<String>) -> Poly {
        let mut m = Monomial::new();
        m.insert(name.into(), 1);
        let mut terms = BTreeMap::new();
        terms.insert(m, 1);
        Poly { terms }
    }

    /// `true` when the polynomial is identically zero.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluates with the given parameter values.
    ///
    /// # Panics
    ///
    /// Panics if a parameter is missing from `values` or on overflow.
    pub fn eval(&self, values: &HashMap<String, i64>) -> i64 {
        let mut acc: i128 = 0;
        for (m, &c) in &self.terms {
            let mut term: i128 = c as i128;
            for (name, &exp) in m {
                let v = *values
                    .get(name)
                    .unwrap_or_else(|| panic!("missing parameter '{name}'"))
                    as i128;
                for _ in 0..exp {
                    term = term.checked_mul(v).expect("symbolic eval overflow");
                }
            }
            acc = acc.checked_add(term).expect("symbolic eval overflow");
        }
        acc.try_into().expect("symbolic eval overflow")
    }

    fn insert(&mut self, m: Monomial, c: i64) {
        if c == 0 {
            return;
        }
        let entry = self.terms.entry(m).or_insert(0);
        *entry += c;
        if *entry == 0 {
            let key = self
                .terms
                .iter()
                .find(|(_, &v)| v == 0)
                .map(|(k, _)| k.clone());
            if let Some(k) = key {
                self.terms.remove(&k);
            }
        }
    }
}

impl Add for Poly {
    type Output = Poly;
    fn add(self, rhs: Poly) -> Poly {
        let mut out = self;
        for (m, c) in rhs.terms {
            out.insert(m, c);
        }
        out
    }
}

impl Sub for Poly {
    type Output = Poly;
    fn sub(self, rhs: Poly) -> Poly {
        self + (-rhs)
    }
}

impl Neg for Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        Poly {
            terms: self.terms.into_iter().map(|(m, c)| (m, -c)).collect(),
        }
    }
}

impl Mul for Poly {
    type Output = Poly;
    #[allow(clippy::suspicious_arithmetic_impl)] // monomial product adds exponents
    fn mul(self, rhs: Poly) -> Poly {
        let mut out = Poly::zero();
        for (ma, &ca) in &self.terms {
            for (mb, &cb) in &rhs.terms {
                let mut m = ma.clone();
                for (name, &exp) in mb {
                    *m.entry(name.clone()).or_insert(0) += exp;
                }
                out.insert(m, ca.checked_mul(cb).expect("symbolic mul overflow"));
            }
        }
        out
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        // Sort by descending total degree, then by monomial order, for a
        // stable human-friendly rendering.
        let mut terms: Vec<(&Monomial, &i64)> = self.terms.iter().collect();
        terms.sort_by(|(ma, _), (mb, _)| {
            let da: u32 = ma.values().sum();
            let db: u32 = mb.values().sum();
            db.cmp(&da).then_with(|| ma.cmp(mb))
        });
        for (idx, (m, &c)) in terms.iter().enumerate() {
            let mag = c.abs();
            if idx == 0 {
                if c < 0 {
                    write!(f, "-")?;
                }
            } else {
                write!(f, " {} ", if c < 0 { "-" } else { "+" })?;
            }
            let vars: Vec<String> = m
                .iter()
                .map(|(name, &e)| {
                    if e == 1 {
                        name.clone()
                    } else {
                        format!("{name}^{e}")
                    }
                })
                .collect();
            if vars.is_empty() {
                write!(f, "{mag}")?;
            } else if mag == 1 {
                write!(f, "{}", vars.join("*"))?;
            } else {
                write!(f, "{mag}*{}", vars.join("*"))?;
            }
        }
        Ok(())
    }
}

/// Default parameter names `N1 … Nn` for a nest's loop extents.
pub fn extent_names(n: usize) -> Vec<String> {
    (1..=n).map(|k| format!("N{k}")).collect()
}

/// Parameter assignment mapping each extent name to the nest's actual
/// extent (for checking formulas against the numeric path).
pub fn extent_values(nest: &LoopNest) -> Option<HashMap<String, i64>> {
    let ranges = nest.rectangular_ranges()?;
    Some(
        extent_names(nest.depth())
            .into_iter()
            .zip(ranges.iter().map(|&(lo, hi)| hi - lo + 1))
            .collect(),
    )
}

/// Symbolic reuse volume `Π_k (N_k − |δ_k|)` (Figure 1's region).
pub fn reuse_volume_sym(names: &[String], delta: &[i64]) -> Poly {
    assert_eq!(names.len(), delta.len(), "arity mismatch");
    names
        .iter()
        .zip(delta)
        .map(|(n, &d)| Poly::var(n.clone()) - Poly::constant(d.abs()))
        .fold(Poly::constant(1), |acc, f| acc * f)
}

/// A symbolic distinct-access formula with its provenance.
#[derive(Clone, Debug)]
pub struct SymbolicEstimate {
    /// The formula over `N1 … Nn`.
    pub formula: Poly,
    /// Which closed form produced it.
    pub method: Method,
}

/// Derives symbolic distinct-access formulas for every array whose
/// estimate ([`crate::estimate_distinct`]) is the §3.1 full-rank or the
/// §3.2 null-space form, from the same evidence: the sink distances and
/// the null-space vector. Arrays under other forms (separable products,
/// bounds) or none are omitted — there is no closed form to print.
pub fn distinct_formulas(nest: &LoopNest) -> HashMap<ArrayId, SymbolicEstimate> {
    let names = extent_names(nest.depth());
    let total: Poly = names
        .iter()
        .fold(Poly::constant(1), |acc, nm| acc * Poly::var(nm.clone()));
    let mut out = HashMap::new();
    for c in cases(nest, false) {
        let Some(method) = c.estimate.map(|e| e.method) else {
            continue;
        };
        let formula = match method {
            Method::FullRankFormula => c.sink_distances.iter().fold(
                Poly::constant(c.ref_count as i64) * total.clone(),
                |acc, d| acc - reuse_volume_sym(&names, d),
            ),
            Method::NullspaceFormula => total.clone() - reuse_volume_sym(&names, &c.kernel[0]),
            _ => continue,
        };
        out.insert(c.array, SymbolicEstimate { formula, method });
    }
    out
}

/// Symbolic §4.3 three-level MWS for reuse vector `d` (lex-positive).
///
/// # Panics
///
/// Panics unless `names.len() == 3` or `d₁ < 0`.
pub fn three_level_mws_sym(names: &[String], d: (i64, i64, i64)) -> Poly {
    assert_eq!(names.len(), 3, "three extent names required");
    assert!(d.0 >= 0, "reuse vector must be lexicographically positive");
    let n2 = Poly::var(names[1].clone());
    let n3 = Poly::var(names[2].clone());
    let base = Poly::constant(d.0)
        * (n2 - Poly::constant(d.1.abs()))
        * (n3.clone() - Poly::constant(d.2.abs()));
    if d.1 <= 0 {
        base + Poly::constant(1)
    } else {
        base + Poly::constant(d.1) * (n3 - Poly::constant(d.2.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopmem_ir::parse;

    fn values(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn poly_algebra() {
        let n = Poly::var("N");
        let f = (n.clone() - Poly::constant(1)) * (n.clone() + Poly::constant(1));
        assert_eq!(f.to_string(), "N^2 - 1");
        assert_eq!(f.eval(&values(&[("N", 7)])), 48);
        assert!((f.clone() - f).is_zero());
        assert_eq!(Poly::zero().to_string(), "0");
        assert_eq!((-Poly::var("x")).to_string(), "-x");
    }

    #[test]
    fn example2_symbolic_formula() {
        let nest = parse(
            "array A[40][40]\nfor i = 1 to 10 { for j = 1 to 10 { A[i][j] = A[i-1][j+2]; } }",
        )
        .unwrap();
        let fs = distinct_formulas(&nest);
        let est = &fs[&ArrayId(0)];
        // 2N1N2 - (N1-1)(N2-2) expanded.
        assert_eq!(est.formula.to_string(), "N1*N2 + 2*N1 + N2 - 2");
        // Evaluating at the nest's own sizes matches the numeric path.
        let v = extent_values(&nest).unwrap();
        assert_eq!(
            est.formula.eval(&v),
            crate::distinct::estimate_distinct(&nest)[&ArrayId(0)].upper
        );
        // And at a different size, it matches the paper's closed form.
        assert_eq!(
            est.formula.eval(&values(&[("N1", 25), ("N2", 20)])),
            2 * 500 - 24 * 18
        );
    }

    #[test]
    fn example4_symbolic_formula() {
        let nest =
            parse("array A[500]\nfor i = 1 to 20 { for j = 1 to 10 { A[2i + 5j + 1]; } }").unwrap();
        let fs = distinct_formulas(&nest);
        let est = &fs[&ArrayId(0)];
        assert_eq!(est.method, Method::NullspaceFormula);
        // N1N2 - (N1-5)(N2-2) = 2N1 + 5N2 - 10.
        assert_eq!(est.formula.to_string(), "2*N1 + 5*N2 - 10");
        assert_eq!(est.formula.eval(&values(&[("N1", 20), ("N2", 10)])), 80);
    }

    #[test]
    fn example10_symbolic_mws() {
        let names = extent_names(3);
        let f = three_level_mws_sym(&names, (1, 3, 3));
        assert_eq!(f.eval(&values(&[("N1", 10), ("N2", 20), ("N3", 30)])), 540);
        // (N2-3)(N3-3) + 3(N3-3) expands to N2*N3 - 3*N2.
        assert_eq!(f.to_string(), "N2*N3 - 3*N2");
    }

    #[test]
    fn reuse_volume_symbolic_matches_numeric() {
        let names = extent_names(2);
        let f = reuse_volume_sym(&names, &[3, -2]);
        for (n1, n2) in [(10i64, 10i64), (25, 17), (4, 9)] {
            assert_eq!(
                f.eval(&values(&[("N1", n1), ("N2", n2)])),
                // The numeric path clamps at zero; compare in the
                // non-degenerate regime.
                (n1 - 3) * (n2 - 2)
            );
        }
    }

    #[test]
    fn nonuniform_arrays_have_no_formula() {
        let nest = parse(
            "array A[200]\n\
             for i = 1 to 20 { for j = 1 to 20 { A[3i + 7j - 10] = A[4i - 3j + 60]; } }",
        )
        .unwrap();
        assert!(distinct_formulas(&nest).is_empty());
    }

    #[test]
    fn symbolic_matches_numeric_across_sizes() {
        // Re-parse the same kernel at several sizes; one symbolic formula
        // must predict all of them.
        let template = |n1: i64, n2: i64| {
            format!(
                "array A[99][99]\nfor i = 1 to {n1} {{ for j = 1 to {n2} {{ \
                 A[i + 3][j + 3] = A[i + 1][j + 2] + A[i + 2][j + 1]; }} }}"
            )
        };
        let base = parse(&template(10, 10)).unwrap();
        let est = distinct_formulas(&base)
            .remove(&ArrayId(0))
            .expect("closed form exists");
        for (n1, n2) in [(10i64, 10i64), (14, 9), (20, 20), (7, 13)] {
            let nest = parse(&template(n1, n2)).unwrap();
            let numeric = crate::distinct::estimate_distinct(&nest)[&ArrayId(0)].upper;
            assert_eq!(
                est.formula.eval(&values(&[("N1", n1), ("N2", n2)])),
                numeric,
                "sizes ({n1},{n2})"
            );
        }
    }
}
