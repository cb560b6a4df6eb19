// Pass-1 kernel classes on both sides of the pass-2 window fold's
// sparse/dense boundary. Shared by the sim crate's `dense` unit tests,
// which pin the side each nest takes and its scratch bytes, and by the
// kernel-equivalence suite, which checks every nest against the hashmap
// engine at t ∈ {1, 2, 4}.
//
// The fold sorts events when `2 · elements · 16 ≤ iterations` (few
// elements, long reuse) and fills a difference lane otherwise. Each entry
// is `(class, sparse_in_time, dense_in_time)`: the same subscripts on
// either side. Every nest's estimated iteration count (its range box) is
// at least 2¹⁷, so sweeps asked for 2 or 4 threads really run in
// parallel, with work stealing over volume-cut chunks.

/// `(class, sparse_in_time, dense_in_time)` nest sources.
const FOLD_BOUNDARY: [(&str, &str, &str); 6] = [
    (
        "stride0",
        "array A[10]\nfor i = 1 to 8 { for j = 1 to 16400 { A[i] = A[i+1]; } }",
        "array A[65610]\nfor i = 1 to 65600 { for j = 1 to 2 { A[i] = A[i+1]; } }",
    ),
    (
        "stride+1",
        "array X[740]\nfor i = 1 to 330 { for j = 1 to 400 { X[i + j] = X[i + j + 1]; } }",
        "array X[8270]\nfor i = 1 to 16 { for j = 1 to 8250 { X[i + j] = X[i + j + 1]; } }",
    ),
    (
        "stride-1",
        "array X[740]\nfor i = 1 to 330 { for j = 1 to 400 { X[i - j + 401]; } }",
        "array X[8270]\nfor i = 1 to 16 { for j = 1 to 8250 { X[i - j + 8251]; } }",
    ),
    (
        "general",
        "array X[2400]\nfor i = 1 to 200 { for j = 1 to 660 { X[2i + 3j] = X[2i + 3j + 4]; } }",
        "array X[24800]\nfor i = 1 to 16 { for j = 1 to 8250 { X[2i + 3j] = X[2i + 3j + 4]; } }",
    ),
    (
        "hashmap",
        "array X[2000000000]\nfor t = 1 to 8200 { for i = 1 to 4 { for j = 1 to 4 { X[100000000i + j]; } } }",
        "array X[2000000000]\nfor i = 1 to 8200 { for j = 1 to 8 { for k = 1 to 2 { X[100000000j + i + k]; } } }",
    ),
    (
        "triangular",
        "array X[400]\nfor i = 1 to 370 { for j = i to 370 { X[j] = X[j + 1]; } }",
        "array A[371][371]\nfor i = 1 to 370 { for j = i to 370 { A[i][j] = A[j][i]; } }",
    ),
];
