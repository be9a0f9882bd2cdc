//! Golden digests of what only the sequential paths record, pinned
//! bitwise: the reported `final_relres`, the per-iteration error, |p|
//! range, bypass and precision trails, the aggregate SpMV statistics, the
//! canonical event trace, and the execution mode and warp count the
//! facade reports. `core_golden` pins the solution, residual history and
//! breakdown trail of the same paths; this table pins the rest.
//!
//! Rows cover the eight sequential facade paths plus `Auto`, on a
//! converging SPD grid, the negated grid (curvature restarts until the
//! solve stalls), a fixed-iteration run past convergence into routine
//! restarts, and an adaptive run capped where a re-tier plan fires.
//!
//! On a mismatch the assertion prints the whole observed table in this
//! file's source form.

use mf_gpu::DeviceSpec;
use mf_solver::{
    AdaptiveConfig, Method, MilleFeuille, PrecondKind, SolveError, SolveReport, SolveSpec,
    SolverConfig, TraceConfig,
};
use mf_sparse::{Coo, Csr};

/// FNV-1a over a stream of 64-bit words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Deterministic values in [0, 1).
fn noise(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

/// 5-point Laplacian on a `g × g` grid with noisy couplings and a
/// strictly dominant diagonal, times `sign`: SPD for `sign = 1` with
/// mixed tile precisions, negative definite for `sign = -1`.
fn noisy_grid(g: usize, sign: f64) -> Csr {
    let n = g * g;
    let w = noise(2 * n, 13);
    let mut a = Coo::new(n, n);
    for i in 0..g {
        for j in 0..g {
            let r = i * g + j;
            let mut diag = 0.25 + w[2 * r + 1];
            let mut couple = |c: usize, k: usize| {
                let v = -(1.0 + 0.3 * w[2 * k]);
                diag += v.abs();
                a.push(r, c, sign * v);
            };
            if i > 0 {
                couple(r - g, r.min(r - g));
            }
            if i + 1 < g {
                couple(r + g, r.min(r + g));
            }
            if j > 0 {
                couple(r - 1, r.min(r - 1));
            }
            if j + 1 < g {
                couple(r + 1, r.min(r + 1));
            }
            a.push(r, r, sign * diag);
        }
    }
    a.to_csr()
}

/// Tridiagonal SPD matrix with exact ILU(0)/IC(0) factors: a
/// fixed-iteration run converges early and keeps going into restarts.
fn tridiag(n: usize) -> Csr {
    let mut a = Coo::new(n, n);
    for i in 0..n {
        a.push(i, i, 4.0);
        if i > 0 {
            a.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            a.push(i, i + 1, -1.0);
        }
    }
    a.to_csr()
}

/// The eight sequential facade paths plus `Auto`.
const PATHS: [&str; 9] = [
    "cg",
    "cg_pipelined",
    "bicgstab",
    "pcg_ilu0",
    "pcg_ic0",
    "pcg_block_jacobi",
    "pcg_pipelined",
    "pbicgstab",
    "auto",
];

fn spec(path: &str) -> SolveSpec<'static> {
    let ilu = Method::Pcg(PrecondKind::Ilu0);
    match path {
        "cg" => SolveSpec::new(Method::Cg),
        "cg_pipelined" => SolveSpec::new(Method::Cg).pipelined(),
        "bicgstab" => SolveSpec::new(Method::BiCgStab),
        "pcg_ilu0" => SolveSpec::new(ilu),
        "pcg_ic0" => SolveSpec::new(Method::Pcg(PrecondKind::Ic0)),
        "pcg_block_jacobi" => SolveSpec::new(Method::Pcg(PrecondKind::BlockJacobi(16))),
        "pcg_pipelined" => SolveSpec::new(ilu).pipelined(),
        "pbicgstab" => SolveSpec::new(Method::PBiCgStab),
        "auto" => SolveSpec::auto(),
        other => panic!("unknown path {other}"),
    }
}

/// One golden row's digest, or the preconditioner set-up error.
#[derive(Debug, PartialEq)]
enum Digest {
    Solved {
        final_relres: u64,
        trails: u64,
        spmv_stats: String,
        trace: u64,
        mode: String,
        warp_count: usize,
    },
    SetupError(String),
}

/// The four per-iteration trails, each length-prefixed so a value cannot
/// slide from one trail into the next.
fn trails(r: &SolveReport) -> u64 {
    let mut words = vec![r.error_history.len() as u64];
    words.extend(r.error_history.iter().map(|v| v.to_bits()));
    words.push(r.p_range_history.len() as u64);
    words.extend(r.p_range_history.iter().flatten().map(|&c| c as u64));
    words.push(r.bypass_history.len() as u64);
    words.extend(r.bypass_history.iter().map(|&c| c as u64));
    words.push(r.precision_history.len() as u64);
    words.extend(r.precision_history.iter().flatten().map(|&c| c as u64));
    fnv(words)
}

fn digest(r: Result<SolveReport, SolveError>) -> Digest {
    match r {
        Ok(r) => Digest::Solved {
            final_relres: r.final_relres.to_bits(),
            trails: trails(&r),
            spmv_stats: format!("{:?}", r.spmv_stats),
            trace: r
                .trace
                .as_ref()
                .map_or(0, |t| fnv(t.canonical_jsonl().bytes().map(u64::from))),
            mode: format!("{:?}", r.mode),
            warp_count: r.warp_count,
        },
        Err(e @ (SolveError::Factor(_) | SolveError::SingularBlock(_))) => {
            Digest::SetupError(format!("{e:?}"))
        }
        Err(e) => panic!("{e}"),
    }
}

fn row_source(case: &str, path: &str, d: &Digest) -> String {
    match d {
        Digest::Solved {
            final_relres,
            trails,
            spmv_stats,
            trace,
            mode,
            warp_count,
        } => format!(
            "    (\"{case}\", \"{path}\", ok({final_relres:#018x}, {trails:#018x}, \"{spmv_stats}\", {trace:#018x}, \"{mode}\", {warp_count})),"
        ),
        Digest::SetupError(e) => format!(
            "    (\"{case}\", \"{path}\", err(\"{}\")),",
            e.replace('"', "\\\"")
        ),
    }
}

fn ok(
    final_relres: u64,
    trails: u64,
    spmv_stats: &str,
    trace: u64,
    mode: &str,
    warp_count: usize,
) -> Digest {
    Digest::Solved {
        final_relres,
        trails,
        spmv_stats: spmv_stats.to_string(),
        trace,
        mode: mode.to_string(),
        warp_count,
    }
}

fn err(e: &str) -> Digest {
    Digest::SetupError(e.to_string())
}

/// Every trail switched on: residuals, partial-convergence histograms,
/// the error against `reference` and the event trace.
fn traced(reference: Vec<f64>) -> SolverConfig {
    SolverConfig {
        trace_residuals: true,
        trace_partial: true,
        reference_solution: Some(reference),
        trace: TraceConfig::on(),
        ..SolverConfig::default()
    }
}

struct Case {
    name: &'static str,
    a: Csr,
    b: Vec<f64>,
    cfg: SolverConfig,
}

/// `b = A·x*` for a known `x*`, so the error trail has a reference.
fn system(a: Csr, seed: u64) -> (Csr, Vec<f64>, Vec<f64>) {
    let x: Vec<f64> = noise(a.ncols, seed).iter().map(|v| 1.0 + v).collect();
    let mut b = vec![0.0; a.nrows];
    a.matvec(&x, &mut b);
    (a, b, x)
}

/// The cases:
/// - `spd`: a converging noisy SPD grid;
/// - `negdef`: the grid negated, so the CG family restarts on curvature
///   until the solve stalls (IC(0) fails to factor);
/// - `fixed_iters`: an exactly factorizable tridiagonal run for a fixed
///   iteration count, past convergence into routine restarts;
/// - `adaptive`: the SPD grid with the re-tier controller armed and the
///   iteration cap on a controller epoch.
fn cases() -> Vec<Case> {
    let (spd, spd_b, spd_x) = system(noisy_grid(16, 1.0), 3);
    let (neg, neg_b, neg_x) = system(noisy_grid(16, -1.0), 3);
    let (tri, tri_b, tri_x) = system(tridiag(48), 5);
    vec![
        Case {
            name: "spd",
            a: spd.clone(),
            b: spd_b.clone(),
            cfg: traced(spd_x.clone()),
        },
        Case {
            name: "negdef",
            a: neg,
            b: neg_b,
            cfg: traced(neg_x),
        },
        Case {
            name: "fixed_iters",
            a: tri,
            b: tri_b,
            cfg: SolverConfig {
                fixed_iterations: Some(40),
                ..traced(tri_x)
            },
        },
        Case {
            name: "adaptive",
            a: spd,
            b: spd_b,
            cfg: SolverConfig {
                partial_convergence: false,
                max_iter: ADAPTIVE_CAP,
                adaptive: Some(AdaptiveConfig {
                    period: 4,
                    ..AdaptiveConfig::default()
                }),
                ..traced(spd_x)
            },
        },
    ]
}

/// The adaptive case's iteration cap: a controller epoch, so a plan can
/// fire on the last iteration the cap admits.
const ADAPTIVE_CAP: usize = 12;

#[rustfmt::skip]
fn golden() -> Vec<(&'static str, &'static str, Digest)> {
    vec![
    ("spd", "cg", ok(0x3dd07eb3a7a91edf, 0xec6cc6a09dc9eb6b, "MixedSpmvStats { tiles_computed: 1932, tiles_bypassed: 0, conversions: 3, nnz_by_prec: [50994, 78, 0, 0], nnz_bypassed: 0 }", 0x1da8fbea21d6a7f3, "SingleKernel", 16)),
    ("spd", "cg_pipelined", ok(0x3dd07eb7d6fa11af, 0xb9783d5d713d73b6, "MixedSpmvStats { tiles_computed: 1978, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [52288, 0, 0, 0], nnz_bypassed: 0 }", 0x13efebfa7cb1ae7a, "SingleKernel", 16)),
    ("spd", "bicgstab", ok(0x3ddad5f4a857e6ff, 0x63393ab897489aeb, "MixedSpmvStats { tiles_computed: 2760, tiles_bypassed: 0, conversions: 20, nnz_by_prec: [72430, 530, 0, 0], nnz_bypassed: 0 }", 0xbf2176057fd3737b, "SingleKernel", 16)),
    ("spd", "pcg_ilu0", ok(0x3dceb58e06ecf286, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 598, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [15808, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("spd", "pcg_ic0", ok(0x3dceb58e06ecf22b, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 598, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [15808, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("spd", "pcg_block_jacobi", ok(0x3dcf613f02195e06, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 1334, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [35264, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("spd", "pcg_pipelined", ok(0x3dceb58baf04d189, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 644, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [17024, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("spd", "pbicgstab", ok(0x3dcb7776f37585c1, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 644, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [17024, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("spd", "auto", ok(0x3dd07eb7d6fa11af, 0xb9783d5d713d73b6, "MixedSpmvStats { tiles_computed: 1978, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [52288, 0, 0, 0], nnz_bypassed: 0 }", 0x13efebfa7cb1ae7a, "SingleKernel", 16)),
    ("negdef", "cg", ok(0x3ff0000000000000, 0xdc74d56166958925, "MixedSpmvStats { tiles_computed: 368, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [9728, 0, 0, 0], nnz_bypassed: 0 }", 0x9912a8610e3f8c91, "SingleKernel", 16)),
    ("negdef", "cg_pipelined", ok(0x3ff0000000000000, 0xdc74d56166958925, "MixedSpmvStats { tiles_computed: 414, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [10944, 0, 0, 0], nnz_bypassed: 0 }", 0xbf17cc35b9c997d9, "SingleKernel", 16)),
    ("negdef", "bicgstab", ok(0x3ddad5f4a857e6ff, 0x63393ab897489aeb, "MixedSpmvStats { tiles_computed: 2760, tiles_bypassed: 0, conversions: 20, nnz_by_prec: [72430, 530, 0, 0], nnz_bypassed: 0 }", 0xbf2176057fd3737b, "SingleKernel", 16)),
    ("negdef", "pcg_ilu0", ok(0x7ff0000000000000, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 368, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [9728, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("negdef", "pcg_ic0", err("Factor(NotSpd(0))")),
    ("negdef", "pcg_block_jacobi", ok(0x7ff0000000000000, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 368, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [9728, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("negdef", "pcg_pipelined", ok(0x3ff0000000000000, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 414, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [10944, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("negdef", "pbicgstab", ok(0x3dcb7776f37585c1, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 644, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [17024, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("negdef", "auto", ok(0x3ddad5f4a857e6ff, 0x63393ab897489aeb, "MixedSpmvStats { tiles_computed: 2760, tiles_bypassed: 0, conversions: 20, nnz_by_prec: [72430, 530, 0, 0], nnz_bypassed: 0 }", 0xbf2176057fd3737b, "SingleKernel", 16)),
    ("fixed_iters", "cg", ok(0x3d0a5a35dc1bf797, 0x8be880db73ab8d7e, "MixedSpmvStats { tiles_computed: 171, tiles_bypassed: 109, conversions: 0, nnz_by_prec: [0, 0, 0, 3456], nnz_bypassed: 2224 }", 0xfe0204af3a911d61, "SingleKernel", 3)),
    ("fixed_iters", "cg_pipelined", ok(0x3d0c58d2ddc9e2e1, 0x86953068e2c2cdf7, "MixedSpmvStats { tiles_computed: 179, tiles_bypassed: 108, conversions: 0, nnz_by_prec: [0, 0, 0, 3644], nnz_bypassed: 2178 }", 0x3c8927fc6c6938f9, "SingleKernel", 3)),
    ("fixed_iters", "bicgstab", ok(0x3d20cae7947339c8, 0xcd4ec563ac78b4e6, "MixedSpmvStats { tiles_computed: 202, tiles_bypassed: 183, conversions: 0, nnz_by_prec: [0, 0, 0, 4072], nnz_bypassed: 3738 }", 0xbb920e6c9d827bb1, "SingleKernel", 3)),
    ("fixed_iters", "pcg_ilu0", ok(0x0000000000000000, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 280, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [0, 0, 0, 5680], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("fixed_iters", "pcg_ic0", ok(0x0000000000000000, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 280, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [0, 0, 0, 5680], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("fixed_iters", "pcg_block_jacobi", ok(0x29e38cc5d4330991, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 280, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [0, 0, 0, 5680], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("fixed_iters", "pcg_pipelined", ok(0x3caee6e12a7de29b, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 287, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [0, 0, 0, 5822], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("fixed_iters", "pbicgstab", ok(0x0000000000000000, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 392, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [0, 0, 0, 7952], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("fixed_iters", "auto", ok(0x3d0c58d2ddc9e2e1, 0x86953068e2c2cdf7, "MixedSpmvStats { tiles_computed: 179, tiles_bypassed: 108, conversions: 0, nnz_by_prec: [0, 0, 0, 3644], nnz_bypassed: 2178 }", 0x3c8927fc6c6938f9, "SingleKernel", 3)),
    ("adaptive", "cg", ok(0x3f91cab91a9f43d1, 0x57d61ab8ab794e8e, "MixedSpmvStats { tiles_computed: 690, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [4864, 1216, 6080, 6080], nnz_bypassed: 0 }", 0x8ad28646186e3493, "SingleKernel", 16)),
    ("adaptive", "cg_pipelined", ok(0x3f91cab91a9f43d6, 0xacd7a821a6c2e04c, "MixedSpmvStats { tiles_computed: 874, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [6080, 2432, 7296, 7296], nnz_bypassed: 0 }", 0x61287c0510005190, "SingleKernel", 16)),
    ("adaptive", "bicgstab", ok(0x3f1cf6d2eacc7429, 0x5640815c84ff192a, "MixedSpmvStats { tiles_computed: 1104, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [29184, 0, 0, 0], nnz_bypassed: 0 }", 0x7d557f96840619d6, "SingleKernel", 16)),
    ("adaptive", "pcg_ilu0", ok(0x3ea8ffcf92a888cf, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 690, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [6080, 6080, 6080, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("adaptive", "pcg_ic0", ok(0x3ea8ffcf92a8860d, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 690, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [6080, 6080, 6080, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("adaptive", "pcg_block_jacobi", ok(0x3f1a8af29d24c42c, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 644, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [4864, 1216, 10944, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("adaptive", "pcg_pipelined", ok(0x3df945d9a35640bf, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 598, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [15808, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("adaptive", "pbicgstab", ok(0x3dcb7776f37585c1, 0x0c8210784d8af5a5, "MixedSpmvStats { tiles_computed: 644, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [17024, 0, 0, 0], nnz_bypassed: 0 }", 0x0000000000000000, "MultiKernel", 0)),
    ("adaptive", "auto", ok(0x3f91cab91a9f43d6, 0xacd7a821a6c2e04c, "MixedSpmvStats { tiles_computed: 874, tiles_bypassed: 0, conversions: 0, nnz_by_prec: [6080, 2432, 7296, 7296], nnz_bypassed: 0 }", 0x61287c0510005190, "SingleKernel", 16)),
    ]
}

#[test]
fn sequential_trails_match_their_golden_digest() {
    let mut observed = Vec::new();
    for c in cases() {
        let solver = MilleFeuille::new(DeviceSpec::a100(), c.cfg);
        for path in PATHS {
            observed.push((c.name, path, digest(solver.solve(&c.a, &c.b, &spec(path)))));
        }
    }
    let expected = golden();
    let table: String = observed
        .iter()
        .map(|(case, path, d)| row_source(case, path, d) + "\n")
        .collect();
    assert_eq!(
        observed.len(),
        expected.len(),
        "golden table size; observed table:\n{table}"
    );
    for ((case, path, got), (ecase, epath, want)) in observed.iter().zip(&expected) {
        assert_eq!(
            (case, path),
            (ecase, epath),
            "row order; observed table:\n{table}"
        );
        assert_eq!(got, want, "{case}/{path} moved; observed table:\n{table}");
    }
}

/// The table is not vacuous: every trail is recorded somewhere, the
/// negated grid stalls, the fixed-iteration run restarts without
/// aborting, and the adaptive run's last iteration fires a plan.
#[test]
fn trail_cases_exercise_restarts_and_a_final_retier() {
    let by_path = |case: &str, path: &str| {
        let c = cases().into_iter().find(|c| c.name == case).unwrap();
        MilleFeuille::new(DeviceSpec::a100(), c.cfg)
            .solve(&c.a, &c.b, &spec(path))
            .unwrap()
    };
    let spd = by_path("spd", "cg");
    assert!(spd.converged);
    assert_eq!(spd.error_history.len(), spd.iterations);
    assert_eq!(spd.p_range_history.len(), spd.iterations);
    assert!(spd.trace.is_some());
    let stalled = by_path("negdef", "cg");
    assert!(matches!(
        stalled.failure,
        Some(mf_solver::SolveFailure::Stalled { .. })
    ));
    assert_eq!(stalled.error_history.len(), stalled.iterations);
    for path in ["cg", "bicgstab", "pcg_pipelined"] {
        let fixed = by_path("fixed_iters", path);
        assert!(
            fixed.failure.is_none() && !fixed.breakdowns.is_empty(),
            "{path}"
        );
    }
    let bypassing = by_path("fixed_iters", "cg");
    assert!(bypassing.spmv_stats.tiles_bypassed > 0);
    assert_eq!(bypassing.bypass_history.len(), bypassing.iterations);
    for path in ["cg", "cg_pipelined", "pcg_ilu0"] {
        let capped = by_path("adaptive", path);
        assert_eq!(capped.iterations, ADAPTIVE_CAP, "{path}");
        let last = capped.retier_trail.last().map(|d| d.iteration);
        assert_eq!(last, Some(ADAPTIVE_CAP), "{path}");
    }
}
