//! Seeded input generators. Every workload's inputs are `.loop` source
//! text drawn from `--seed`; the library only ever sees that text.
//!
//! Sizes are stratified, not drawn: each family gets the same ladder of
//! iteration volumes on every seed, in the same order, and the seed picks
//! shapes (aspect ratio, strides, offsets, direction). The work in one
//! pass is then nearly the same across seeds, so seed-to-seed spread
//! measures the program, not the draw. The order stays fixed because the
//! heap history it leaves moves peak RSS by up to 40%.

/// SplitMix64: small, seedable, and independent of the code under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.next_u64() as usize % xs.len()]
    }
}

/// Pass-1 kernel classes of the dense engine, one sweep family each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Stride0,
    Contig,
    Stencil,
    General,
    Triangular,
    Sparse,
}

pub const FAMILIES: [Family; 6] = [
    Family::Stride0,
    Family::Contig,
    Family::Stencil,
    Family::General,
    Family::Triangular,
    Family::Sparse,
];

impl Family {
    pub fn label(self) -> &'static str {
        match self {
            Family::Stride0 => "stride0",
            Family::Contig => "contig",
            Family::Stencil => "stencil",
            Family::General => "general",
            Family::Triangular => "triangular",
            Family::Sparse => "sparse",
        }
    }

    /// The sparse fallback sweeps ~50x slower per iteration than the
    /// dense lanes, so its nests are sized to cost what a dense one does.
    fn volume_scale(self) -> f64 {
        if self == Family::Sparse {
            0.02
        } else {
            1.0
        }
    }
}

/// One generated input: a single nest, or a multi-nest program.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub family: Option<Family>,
    pub source: String,
    /// Iterations of the whole input (exact for generated inputs).
    pub volume: u64,
    /// Governed workload: the iteration cap of this input's call.
    pub cap: Option<u64>,
    /// Governed workload: a nest of the same family whose volume is the
    /// cap, for the unlimited `sim.cap_sweep_ms` comparison.
    pub cap_twin: Option<String>,
    /// True when the source holds more than one nest.
    pub multi: bool,
    /// From the robustness corpus: only governed verbs may touch it.
    pub adversarial: bool,
}

impl Input {
    fn nest(name: String, family: Option<Family>, (source, volume): (String, u64)) -> Self {
        Input {
            name,
            family,
            source,
            volume,
            cap: None,
            cap_twin: None,
            multi: false,
            adversarial: false,
        }
    }
}

/// The ladder of target volumes for `k` strata between `lo` and `hi`,
/// denser near `lo` (volume grows with the square of the stratum).
fn ladder(k: usize, lo: f64, hi: f64) -> Vec<u64> {
    (0..k)
        .map(|s| {
            let u = (s as f64 + 0.5) / k as f64;
            (lo * (hi / lo).powf(u * u)) as u64
        })
        .collect()
}

/// Splits `volume` into `outer × inner` with the inner extent drawn from
/// `inner_lo..=inner_hi`.
fn split(volume: u64, rng: &mut Rng, inner_lo: i64, inner_hi: i64) -> (i64, i64) {
    let m = rng.range(inner_lo, inner_hi);
    let n = ((volume as i64) / m).max(2);
    (n, m)
}

/// One nest of `family` with about `volume` iterations; returns the
/// source and its exact iteration count.
pub fn family_nest(family: Family, volume: u64, rng: &mut Rng) -> (String, u64) {
    match family {
        Family::Stride0 => {
            let (n, m) = split(volume, rng, 64, 512);
            (
                format!(
                    "array Y[{}]\narray X[{}]\nfor i = 1 to {n} {{ for j = 1 to {m} {{ Y[i] = Y[i] + X[i]; }} }}\n",
                    n + 1,
                    n + 1
                ),
                (n * m) as u64,
            )
        }
        Family::Contig => {
            let (n, m) = split(volume, rng, 256, 4096);
            let sub = if rng.next_u64().is_multiple_of(2) {
                "i + j".to_string()
            } else {
                format!("i - j + {}", m + 1)
            };
            (
                format!(
                    "array X[{}]\nfor i = 1 to {n} {{ for j = 1 to {m} {{ X[{sub}] = X[{sub}] + 1; }} }}\n",
                    n + m + 2
                ),
                (n * m) as u64,
            )
        }
        Family::Stencil => {
            // An iterative row stencil: `t` sweeps over one grid, the
            // synth-stream shape of the perfsuite.
            let t = rng.range(3, 6);
            let (n, m) = split(volume / t as u64, rng, 256, 2048);
            let d = rng.range(1, 2);
            (
                format!(
                    "array A[{}][{}]\nfor t = 1 to {t} {{ for i = {} to {} {{ for j = 1 to {m} {{ A[i][j] = A[i-{d}][j]; }} }} }}\n",
                    n + d + 1,
                    m + 1,
                    d + 1,
                    n + d
                ),
                (t * n * m) as u64,
            )
        }
        Family::General => {
            let (a, b) = rng.pick(&[(2, 5), (3, 5), (2, 7), (3, 7), (5, 3)]);
            let c = rng.range(3, 9);
            let (n, m) = split(volume, rng, 128, 2048);
            (
                format!(
                    "array X[{}]\nfor i = 1 to {n} {{ for j = 1 to {m} {{ X[{a}*i + {b}*j + 1] = X[{a}*i + {b}*j + {c}]; }} }}\n",
                    a * n + b * m + c + 2
                ),
                (n * m) as u64,
            )
        }
        Family::Triangular => {
            // `t` sweeps over an upper triangle: j runs i..n, n(n+1)/2
            // iterations a sweep.
            let t = rng.range(3, 6);
            let n = ((2.0 * volume as f64 / t as f64).sqrt() as i64).max(2);
            let d = rng.range(1, 2);
            (
                format!(
                    "array A[{}][{}]\nfor t = 1 to {t} {{ for i = {} to {} {{ for j = i to {} {{ A[i][j] = A[i-{d}][j]; }} }} }}\n",
                    n + d + 1,
                    n + d + 1,
                    d + 1,
                    n + d,
                    n + d
                ),
                (t * n * (n + 1) / 2) as u64,
            )
        }
        Family::Sparse => {
            let (n, m) = split(volume, rng, 128, 1024);
            let stride = rng.pick(&[100_000_000i64, 90_000_000, 110_000_000]);
            (
                format!(
                    "array X[{}]\nfor i = 1 to {n} {{ for j = 1 to {m} {{ X[{stride}*i + j] = X[{stride}*i + j - 1]; }} }}\n",
                    stride * (n + 1) + m + 2
                ),
                (n * m) as u64,
            )
        }
    }
}

/// `sweep`: one nest per (family, stratum), 10^6–10^7 iterations
/// (sparse 2·10^4–2·10^5).
pub fn sweep(seed: u64, per_family: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::new();
    for fam in FAMILIES {
        let s = fam.volume_scale();
        for (k, v) in ladder(per_family, 0.9e6 * s, 1.0e7 * s)
            .into_iter()
            .enumerate()
        {
            let name = format!("{}-{k}", fam.label());
            out.push(Input::nest(name, Some(fam), family_nest(fam, v, &mut rng)));
        }
    }
    out
}

/// Example 7 of the paper (MWS 86 -> 1 under the compound search).
pub const EXAMPLE7: &str = "array X[100]\nfor i = 1 to 20 { for j = 1 to 30 { X[2i - 3j]; } }\n";

/// The paper corpus: `kernels/*.loop` (each nest of each file), the
/// seven Figure 2 kernels, and Examples 7 and 8. Read from the checkout.
pub fn corpus() -> Result<Vec<Input>, String> {
    let mut out = Vec::new();
    for (name, src) in kernel_files()? {
        let program = loopmem::ir::parse_program(&src).map_err(|e| format!("{name}: {e}"))?;
        for (k, nest) in program.nests().iter().enumerate() {
            let text = loopmem::ir::printer::print_nest(nest);
            out.push(Input::nest(format!("{name}#{k}"), None, (text, 0)));
        }
    }
    for k in loopmem_bench::all_kernels() {
        out.push(Input::nest(
            format!("fig2:{}", k.name),
            None,
            (k.source.to_string(), 0),
        ));
    }
    out.push(Input::nest("example7".into(), None, (EXAMPLE7.into(), 0)));
    out.push(Input::nest(
        "example8".into(),
        None,
        (
            "array X[200]\nfor i = 1 to 25 { for j = 1 to 10 { X[2i + 5j + 1] = X[2i + 5j + 5]; } }\n"
                .into(),
            0,
        ),
    ));
    Ok(out)
}

/// `kernels/*.loop`, sorted by name, as `(file name, text)`.
pub fn kernel_files() -> Result<Vec<(String, String)>, String> {
    let dir = std::path::Path::new("kernels");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("kernels/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p.file_name().unwrap().to_string_lossy().into_owned(), text))
        })
        .collect()
}

/// `+ c` or `- |c|`: the grammar takes no `+ -c`.
fn signed(c: i64) -> String {
    if c < 0 {
        format!("- {}", -c)
    } else {
        format!("+ {c}")
    }
}

/// Shape of one uniformly generated nest: every reference shares one
/// linear part and differs only in its offset.
#[derive(Clone, Copy)]
enum Shape {
    /// `X[a·i ± b·j + c]`: Example 8's skewed 1-D access.
    Skew { a: i64, b: i64 },
    /// `A[i][j + s·i]` against `A[i-di][j + s·i + dj]`.
    Grid { di: i64, dj: i64, s: i64 },
    /// 3-deep: `C[i][j] += A[i][k] + A[i-di][k+dk]`.
    Deep { di: i64, dk: i64 },
}

const SKEWS: [(i64, i64); 7] = [(1, -3), (2, 5), (3, -5), (1, 2), (2, -3), (3, 7), (4, -5)];
const GRIDS: [(i64, i64, i64); 6] = [
    (1, 0, 0),
    (1, 1, 0),
    (2, -1, 1),
    (0, 2, 1),
    (1, -2, 0),
    (2, 1, 1),
];

/// The fixed multiset of `count` shapes every seed draws from: every
/// third nest is 3-deep, the rest alternate between the 1-D and 2-D
/// tables.
fn shapes(count: usize) -> Vec<Shape> {
    (0..count)
        .map(|k| match (k % 3, k / 3) {
            (2, r) => Shape::Deep {
                di: (r % 2) as i64,
                dk: 1 + (r / 2 % 2) as i64,
            },
            (0, r) => {
                let (a, b) = SKEWS[r % SKEWS.len()];
                Shape::Skew { a, b }
            }
            (_, r) => {
                let (di, dj, s) = GRIDS[r % GRIDS.len()];
                Shape::Grid { di, dj, s }
            }
        })
        .collect()
}

/// A nest of `shape` with about `volume` iterations. The seed jitters the
/// inner extent by ±10% and picks the reference offsets.
fn uniform_nest(shape: Shape, volume: u64, rng: &mut Rng) -> (String, u64) {
    let jitter = rng.range(90, 110) as f64 / 100.0;
    match shape {
        Shape::Skew { a, b } => {
            let m = (((volume as f64).sqrt() * 0.5 * jitter) as i64).max(4);
            let n = (volume as i64 / m).max(2);
            let offs = [0, rng.range(1, 6), rng.range(7, 12)];
            let shift = 1 - b.min(0) * m;
            let size = a * n + b.max(0) * m + shift + 14;
            let r = |o: i64| format!("X[{a}*i {}*j + {}]", signed(b), shift + o);
            (
                format!(
                    "array X[{size}]\nfor i = 1 to {n} {{ for j = 1 to {m} {{ {} = {} + {}; }} }}\n",
                    r(offs[0]),
                    r(offs[1]),
                    r(offs[2])
                ),
                (n * m) as u64,
            )
        }
        Shape::Grid { di, dj, s } => {
            let m = (((volume as f64).sqrt() * jitter) as i64).max(4);
            let n = (volume as i64 / m).max(2);
            (
                format!(
                    "array A[{}][{}]\nfor i = 3 to {} {{ for j = 3 to {} {{ A[i][j + {s}*i] = A[i - {di}][j + {s}*i {}] + A[i - 1][j + {s}*i]; }} }}\n",
                    n + 4,
                    m + s * (n + 2) + 6,
                    n + 2,
                    m + 2,
                    signed(dj)
                ),
                (n * m) as u64,
            )
        }
        Shape::Deep { di, dk } => {
            let side = (((volume as f64).cbrt() * jitter) as i64).max(3);
            let (n0, n1, n2) = (side, side, (volume as i64 / (side * side)).max(2));
            (
                format!(
                    "array C[{}][{}]\narray A[{}][{}]\nfor i = 2 to {} {{ for j = 2 to {} {{ for k = 2 to {} {{ C[i][j] = C[i][j] + A[i][k] + A[i - {di}][k + {dk}]; }} }} }}\n",
                    n0 + 3,
                    n1 + 3,
                    n0 + 3,
                    n2 + dk + 3,
                    n0 + 1,
                    n1 + 1,
                    n2 + 1
                ),
                (n0 * n1 * n2) as u64,
            )
        }
    }
}

/// `search`: the paper corpus plus `seeded` uniformly generated 2- and
/// 3-deep nests at 10^3–10^5 iterations. Each volume
/// keeps its shape on every seed; the seed picks extents and offsets.
pub fn search(seed: u64, seeded: usize) -> Result<Vec<Input>, String> {
    let mut rng = Rng::new(seed, 2);
    let mut out = Vec::new();
    for (k, (v, shape)) in ladder(seeded, 1.0e3, 1.0e5)
        .into_iter()
        .zip(shapes(seeded))
        .enumerate()
    {
        let depth = if matches!(shape, Shape::Deep { .. }) {
            3
        } else {
            2
        };
        out.push(Input::nest(
            format!("uniform{depth}d-{k}"),
            None,
            uniform_nest(shape, v, &mut rng),
        ));
    }
    let mut all = corpus()?;
    all.extend(out);
    Ok(all)
}

/// `program`: five-nest programs at 10^3–8·10^3 iterations per
/// program: a producer/consumer chain, a triangular phase, a
/// non-conformable pair, and a renamed duplicate nest.
pub fn programs(seed: u64, count: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, 3);
    ladder(count, 1.0e3, 8.0e3)
        .into_iter()
        .enumerate()
        .map(|(k, v)| {
            let n = ((v as f64).sqrt() as i64).max(8);
            // Half the programs use a distance-2 stencil; the seed picks
            // which.
            let m = n - rng.range(1, 3);
            let d = 1 + ((k as u64 + seed) % 2) as i64;
            let s = n + 4;
            let mut src = format!(
                "array A[{s}][{s}]\narray B[{s}][{s}]\narray C[{s}][{s}]\narray D[{s}][{s}]\narray E[{s}][{s}]\n"
            );
            // Producer (stencil) then consumer: conformable, and fusing
            // them retires the program's widest boundary (all of A).
            src += &format!(
                "for i = {} to {} {{ for j = 1 to {n} {{ A[i][j] = A[i-{d}][j] + B[i][j]; }} }}\n",
                d + 1,
                n
            );
            src += &format!(
                "for i = {} to {} {{ for j = 1 to {n} {{ C[i][j] = A[i][j] + A[i][j]; }} }}\n",
                d + 1,
                n
            );
            // Triangular phase: half of C stays live into it.
            src += &format!(
                "for i = 1 to {n} {{ for j = i to {n} {{ D[i][j] = C[i][j]; }} }}\n"
            );
            // Rectangular after triangular: a non-conformable pair.
            src += &format!("for i = 1 to {m} {{ for j = 1 to {n} {{ E[i][j] = D[i][j]; }} }}\n");
            // The same nest again, under different loop-variable names.
            src += &format!("for p = 1 to {m} {{ for q = 1 to {n} {{ E[p][q] = D[p][q]; }} }}\n");
            let nd = (n - d) * n;
            let volume = (2 * nd + n * (n + 1) / 2 + 2 * m * n) as u64;
            Input {
                name: format!("program-{k}"),
                family: None,
                source: src,
                volume,
                cap: None,
                cap_twin: None,
                multi: true,
                adversarial: false,
            }
        })
        .collect()
}

/// `governed`: sweep-family nests near 10^6 iterations under a cap set
/// to a seeded fraction (0.3–0.7) of their volume, the 10^12
/// pathological stencil and the rest of `tests/robustness/*.loop` under
/// a 2·10^5 cap.
pub fn governed(seed: u64, per_family: usize) -> Result<Vec<Input>, String> {
    let mut rng = Rng::new(seed, 4);
    let mut out = Vec::new();
    // Cap fractions interleaved over the volume ladder, the same on every
    // seed, so the charged work per pass does not depend on the seed.
    let fr: Vec<f64> = (0..per_family)
        .map(|k| 0.3 + 0.4 * ((k * 7 % per_family) as f64 + 0.5) / per_family as f64)
        .collect();
    for fam in FAMILIES {
        let s = fam.volume_scale();
        for (k, v) in ladder(per_family, 1.0e6 * s, 2.0e6 * s)
            .into_iter()
            .enumerate()
        {
            let (source, volume) = family_nest(fam, v, &mut rng);
            let cap = (volume as f64 * fr[k]) as u64;
            // The twin reuses the shape draw, so it sweeps the same kernel.
            let mut twin_rng = Rng::new(seed, 5 + k as u64);
            let twin = family_nest(fam, cap, &mut twin_rng).0;
            let mut input =
                Input::nest(format!("{}-{k}", fam.label()), Some(fam), (source, volume));
            input.cap = Some(cap);
            input.cap_twin = Some(twin);
            out.push(input);
        }
    }
    let robustness = std::path::Path::new("tests/robustness");
    let mut files: Vec<_> = std::fs::read_dir(robustness)
        .map_err(|e| format!("tests/robustness/: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "loop"))
        .collect();
    files.sort();
    for p in files {
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push(Input {
            name: p.file_name().unwrap().to_string_lossy().into_owned(),
            family: None,
            source: text,
            volume: 0,
            cap: Some(PATHOLOGICAL_CAP),
            cap_twin: None,
            multi: true,
            adversarial: true,
        });
    }
    Ok(out)
}

/// Iteration cap for the robustness corpus (the 10^12 stencil among it).
/// Larger caps make the rank-deficient nest's salvage dominate the pass.
pub const PATHOLOGICAL_CAP: u64 = 200_000;
