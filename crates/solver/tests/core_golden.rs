//! Golden outputs of every facade path, pinned bitwise: the sequential
//! cores (CG, pipelined CG, BiCGSTAB, PCG with ILU(0) / IC(0) /
//! block-Jacobi, pipelined PCG, PBiCGSTAB), the `Auto` method pick with
//! its CG→BiCGSTAB handoff and the four threaded engines at 2 warps.
//! Breakdown cases drive every
//! family through its restart branches: curvature for CG, α, ρ and ω for
//! BiCGSTAB. Rows with supplied diagonal factors reach the preconditioned
//! branches the built factorizations avoid: PBiCGSTAB's α restart, PCG's
//! lost direction (a non-finite β); an overflowing right-hand side drives
//! every sequential core into its non-finite abort.
//!
//! Each row digests one solve: an FNV-1a hash of the solution bits, the
//! iteration count, a hash of the residual-history bits, the breakdown
//! trail (factor shifts included) and failure, and — for the sequential
//! paths — the modeled total time bits. A refactor that keeps the
//! arithmetic order keeps every row; any change to the numerics, the
//! restart policy or the sequential cost charging moves one.
//!
//! On a mismatch the assertion prints the whole observed table in this
//! file's source form, so an intended change can be reviewed row by row.

use mf_gpu::DeviceSpec;
use mf_kernels::Ilu0;
use mf_solver::{
    AdaptiveConfig, BreakdownEvent, BreakdownKind, Engine, Method, MilleFeuille, Precond,
    PrecondKind, RetierDecision, SolveError, SolveFailure, SolveSpec, SolverConfig,
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

fn bits(v: &[f64]) -> u64 {
    fnv(v.iter().map(|x| x.to_bits()))
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

/// 5-point Laplacian on a `g × g` grid with noisy, not exactly
/// representable couplings and a strictly dominant diagonal: SPD, mixed
/// tile precisions, and an ILU(0)/IC(0) that is not exact.
fn noisy_grid(g: usize, sign: f64) -> Csr {
    let n = g * g;
    let w = noise(2 * n, 7);
    let mut a = Coo::new(n, n);
    for i in 0..g {
        for j in 0..g {
            let r = i * g + j;
            let mut diag = 0.5 + w[2 * r + 1];
            let mut couple = |c: usize, k: usize| {
                let v = -(1.0 + 0.2 * w[2 * k]);
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

/// Tridiagonal SPD matrix: ILU(0) and IC(0) are exact factorizations, so
/// a fixed-iteration run keeps iterating past convergence into routine
/// breakdown restarts.
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

/// Nonsymmetric, diagonally dominant tridiagonal matrix: `likely_spd`
/// fails, so `Auto` runs BiCGSTAB.
fn nonsym(n: usize) -> Csr {
    let w = noise(n, 3);
    let mut a = Coo::new(n, n);
    for (i, wi) in w.iter().enumerate() {
        a.push(i, i, 4.0);
        if i > 0 {
            a.push(i, i - 1, -1.5 - 0.2 * wi);
        }
        if i + 1 < n {
            a.push(i, i + 1, -0.5);
        }
    }
    a.to_csr()
}

/// Symmetric, positive-diagonal and 95% diagonally dominant, so it passes
/// `likely_spd`, but the trailing `[[1, 5], [5, 1]]` block is indefinite:
/// CG aborts on curvature and `Auto` hands the system to BiCGSTAB.
fn fooled_spd(n: usize) -> Csr {
    let mut a = Coo::new(n, n);
    for i in 0..n - 2 {
        a.push(i, i, 4.0);
        if i > 0 {
            a.push(i, i - 1, -1.0);
        }
        if i + 1 < n - 2 {
            a.push(i, i + 1, -1.0);
        }
    }
    a.push(n - 2, n - 2, 1.0);
    a.push(n - 2, n - 1, 5.0);
    a.push(n - 1, n - 2, 5.0);
    a.push(n - 1, n - 1, 1.0);
    a.to_csr()
}

/// The noisy SPD grid with row 0's diagonal left out: ILU(0) and IC(0)
/// hit a zero pivot and recover by diagonal boosting, so the trail
/// starts with `FactorShift` events.
fn zero_pivot_grid(g: usize) -> Csr {
    let grid = noisy_grid(g, 1.0);
    let mut a = Coo::new(grid.nrows, grid.ncols);
    for r in 0..grid.nrows {
        for k in grid.rowptr[r]..grid.rowptr[r + 1] {
            if (r, grid.colidx[k]) != (0, 0) {
                a.push(r, grid.colidx[k], grid.vals[k]);
            }
        }
    }
    a.to_csr()
}

/// `n / 2` diagonal 2×2 rotation blocks `[[0, 1], [−1, 0]]`: skew, so
/// `(A·p, r₀*)` cancels exactly on the first BiCGSTAB step and the α
/// breakdown restarts until the restart budget aborts the solve.
fn rotation(n: usize) -> Csr {
    let mut a = Coo::new(n, n);
    for k in 0..n / 2 {
        a.push(2 * k, 2 * k + 1, 1.0);
        a.push(2 * k + 1, 2 * k, -1.0);
    }
    a.to_csr()
}

/// Skew tridiagonal with varied couplings: `(A·b, b)` cancels only up to
/// rounding, so BiCGSTAB makes progress, but its ρ and ω recurrences run
/// into direction restarts.
fn skew(n: usize) -> Csr {
    let w = noise(n, 5);
    let mut a = Coo::new(n, n);
    for (i, wi) in w.iter().enumerate() {
        if i + 1 < n {
            a.push(i, i + 1, 1.0 + wi);
            a.push(i + 1, i, -(1.0 + wi));
        }
    }
    a.to_csr()
}

/// The noisy SPD grid with one coupling pair `(0, 1)` raised by `1e200`.
/// With `b[0] = 0` the first step stays finite but pushes `r[0]` to
/// about `1e200`, so `(r, r)` overflows after the update and the cores
/// take their non-finite abort rather than a restart.
fn huge_coupling(g: usize) -> Csr {
    let grid = noisy_grid(g, 1.0);
    let mut a = Coo::new(grid.nrows, grid.ncols);
    for r in 0..grid.nrows {
        for k in grid.rowptr[r]..grid.rowptr[r + 1] {
            let c = grid.colidx[k];
            let huge = if r + c == 1 { 1e200 } else { 0.0 };
            a.push(r, c, grid.vals[k] + huge);
        }
    }
    a.to_csr()
}

/// ILU(0) factors with an empty `L` and `U = diag(d(0), …, d(n − 1))`,
/// supplied in place of a built factorization. A unit diagonal makes a
/// preconditioned path follow its unpreconditioned recurrence; an
/// alternating-sign one makes `(r, M⁻¹r)` cancel exactly for a constant
/// residual, so PCG's β = 0/0 loses the direction.
fn diagonal_ilu0(n: usize, d: impl Fn(usize) -> f64) -> Ilu0 {
    let mut u = Coo::new(n, n);
    for i in 0..n {
        u.push(i, i, d(i));
    }
    Ilu0 {
        l: Coo::new(n, n).to_csr(),
        u: u.to_csr(),
    }
}

fn rhs(n: usize) -> Vec<f64> {
    noise(n, 11).iter().map(|v| 2.0 * v - 1.0).collect()
}

const CORES: [&str; 8] = [
    "cg",
    "cg_pipelined",
    "bicgstab",
    "pcg_ilu0",
    "pcg_ic0",
    "pcg_block_jacobi",
    "pcg_pipelined",
    "pbicgstab",
];

/// Every sequential core, `Auto`, then the threaded engines at 2 warps.
const ALL: [&str; 13] = [
    "cg",
    "cg_pipelined",
    "bicgstab",
    "pcg_ilu0",
    "pcg_ic0",
    "pcg_block_jacobi",
    "pcg_pipelined",
    "pbicgstab",
    "auto",
    "cg_threaded",
    "bicgstab_threaded",
    "pcg_threaded",
    "pbicgstab_threaded",
];

/// The BiCGSTAB family plus sequential PBiCGSTAB with identity factors,
/// which keeps the breakdowns the built factors' shift rescues.
const SKEW_CORES: [&str; 5] = [
    "bicgstab",
    "bicgstab_threaded",
    "pbicgstab",
    "pbicgstab_threaded",
    "pbicgstab_identity",
];

/// What a row digests, whichever path produced it. `total_us` is the
/// modeled total time of a sequential path and `None` for an engine.
struct Outcome {
    x: Vec<f64>,
    converged: bool,
    iterations: usize,
    residual_history: Vec<f64>,
    breakdowns: Vec<BreakdownEvent>,
    failure: Option<SolveFailure>,
    retier_trail: Vec<RetierDecision>,
    total_us: Option<f64>,
}

/// Runs one path through its facade entry. A preconditioner that fails
/// to set up yields `Err` with the error's debug form.
fn run(core: &str, solver: &MilleFeuille, a: &Csr, b: &[f64]) -> Result<Outcome, String> {
    let ilu = Method::Pcg(PrecondKind::Ilu0);
    let identity = diagonal_ilu0(a.nrows, |_| 1.0);
    let signed = diagonal_ilu0(a.nrows, |i| if i % 2 == 0 { 1.0 } else { -1.0 });
    let spec = match core {
        "cg" => SolveSpec::new(Method::Cg),
        "cg_pipelined" => SolveSpec::new(Method::Cg).pipelined(),
        "bicgstab" => SolveSpec::new(Method::BiCgStab),
        "pcg_ilu0" => SolveSpec::new(ilu),
        "pcg_ic0" => SolveSpec::new(Method::Pcg(PrecondKind::Ic0)),
        "pcg_block_jacobi" => SolveSpec::new(Method::Pcg(PrecondKind::BlockJacobi(16))),
        "pcg_pipelined" => SolveSpec::new(ilu).pipelined(),
        "pbicgstab" => SolveSpec::new(Method::PBiCgStab),
        "pcg_identity" => SolveSpec::new(ilu).with_factors(Precond::Ilu0(&identity)),
        "pcg_signed" => SolveSpec::new(ilu).with_factors(Precond::Ilu0(&signed)),
        "pbicgstab_identity" => {
            SolveSpec::new(Method::PBiCgStab).with_factors(Precond::Ilu0(&identity))
        }
        "pcg_pipelined_identity" => SolveSpec::new(ilu)
            .pipelined()
            .with_factors(Precond::Ilu0(&identity)),
        "auto" => SolveSpec::auto(),
        "cg_threaded" => SolveSpec::new(Method::Cg).threaded(2),
        "bicgstab_threaded" => SolveSpec::new(Method::BiCgStab).threaded(2),
        "pcg_threaded" => SolveSpec::new(ilu).threaded(2),
        "pbicgstab_threaded" => SolveSpec::new(Method::PBiCgStab).threaded(2),
        other => panic!("unknown core {other}"),
    };
    let sequential = spec.engine == Engine::Sequential;
    match solver.solve(a, b, &spec) {
        Ok(r) => Ok(Outcome {
            total_us: sequential.then(|| r.timeline.total_us()),
            x: r.x,
            converged: r.converged,
            iterations: r.iterations,
            residual_history: r.residual_history,
            breakdowns: r.breakdowns,
            failure: r.failure,
            retier_trail: r.retier_trail,
        }),
        Err(SolveError::Factor(e)) => Err(format!("{e:?}")),
        Err(SolveError::SingularBlock(e)) => Err(format!("{e:?}")),
        Err(e) => panic!("{core}: {e}"),
    }
}

/// One golden row: case, core, then either the digest fields or the
/// factorization error.
#[derive(Debug, PartialEq)]
enum Digest {
    Solved {
        x: u64,
        iterations: usize,
        residuals: u64,
        breakdowns: String,
        failure: String,
        total_us: Option<u64>,
    },
    FactorError(String),
}

fn digest(rep: Result<Outcome, String>) -> Digest {
    match rep {
        Err(e) => Digest::FactorError(e),
        Ok(rep) => Digest::Solved {
            x: bits(&rep.x),
            iterations: rep.iterations,
            residuals: bits(&rep.residual_history),
            breakdowns: trail(&rep.breakdowns),
            failure: format!("{:?}", rep.failure),
            total_us: rep.total_us.map(f64::to_bits),
        },
    }
}

/// The breakdown trail as `first-last:Kind:Action` runs of consecutive
/// iterations with the same kind and action.
fn trail(events: &[BreakdownEvent]) -> String {
    let mut runs: Vec<(usize, usize, String)> = Vec::new();
    for e in events {
        let tag = format!("{:?}:{:?}", e.kind, e.action);
        match runs.last_mut() {
            Some((_, last, t)) if *last + 1 == e.iteration && *t == tag => *last = e.iteration,
            _ => runs.push((e.iteration, e.iteration, tag)),
        }
    }
    runs.iter()
        .map(|(a, b, t)| match a == b {
            true => format!("{a}:{t}"),
            false => format!("{a}-{b}:{t}"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn row_source(case: &str, core: &str, d: &Digest) -> String {
    match d {
        Digest::Solved {
            x,
            iterations,
            residuals,
            breakdowns,
            failure,
            total_us: Some(total_us),
        } => format!(
            "    (\"{case}\", \"{core}\", ok({x:#018x}, {iterations}, {residuals:#018x}, \"{breakdowns}\", \"{failure}\", {total_us:#018x})),"
        ),
        Digest::Solved {
            x,
            iterations,
            residuals,
            breakdowns,
            failure,
            total_us: None,
        } => format!(
            "    (\"{case}\", \"{core}\", engine({x:#018x}, {iterations}, {residuals:#018x}, \"{breakdowns}\", \"{failure}\")),"
        ),
        Digest::FactorError(e) => {
            format!("    (\"{case}\", \"{core}\", err(\"{}\")),", e.replace('"', "\\\""))
        }
    }
}

fn ok(
    x: u64,
    iterations: usize,
    residuals: u64,
    breakdowns: &str,
    failure: &str,
    total_us: u64,
) -> Digest {
    Digest::Solved {
        x,
        iterations,
        residuals,
        breakdowns: breakdowns.to_string(),
        failure: failure.to_string(),
        total_us: Some(total_us),
    }
}

/// An engine row: no modeled total time.
fn engine(x: u64, iterations: usize, residuals: u64, breakdowns: &str, failure: &str) -> Digest {
    Digest::Solved {
        x,
        iterations,
        residuals,
        breakdowns: breakdowns.to_string(),
        failure: failure.to_string(),
        total_us: None,
    }
}

fn err(e: &str) -> Digest {
    Digest::FactorError(e.to_string())
}

/// The solver configuration every case starts from: residual history on,
/// everything else at its default.
fn base_config() -> SolverConfig {
    SolverConfig {
        trace_residuals: true,
        ..SolverConfig::default()
    }
}

/// One solve setting, run on each of `cores`.
struct Case {
    name: &'static str,
    a: Csr,
    b: Vec<f64>,
    cfg: SolverConfig,
    cores: &'static [&'static str],
}

/// The cases:
/// - `spd`: a converging noisy SPD grid;
/// - `negdef`: the same grid negated, so every CG-family core breaks down
///   on curvature until the restart budget aborts it as `Stalled`
///   (BiCGSTAB converges; IC(0) fails to factor). The negative diagonal
///   fails `likely_spd`, so `Auto` runs BiCGSTAB directly;
/// - `nonsym`: a nonsymmetric system for `Auto` and the BiCGSTAB family;
/// - `fooled`: a system `likely_spd` admits that CG cannot solve, so
///   `Auto` records the CG→BiCGSTAB handoff;
/// - `zero_pivot`: the SPD grid missing one diagonal entry, so every
///   factorization starts with diagonal boosting;
/// - `fixed_iters`: an exactly factorizable tridiagonal run for a fixed
///   iteration count, past convergence, into restarts that are exempt
///   from the stall abort;
/// - `rotation`: 2×2 rotation blocks, where the BiCGSTAB family hits the
///   α breakdown on every step until it stalls (the preconditioned paths
///   recover through factor shifts instead, unless given identity
///   factors);
/// - `skew96`, `skew97`: skew tridiagonals that drive BiCGSTAB through ρ
///   and ω direction restarts and non-finite aborts;
/// - `adaptive`: the SPD grid with the re-tier controller armed, on the
///   paths that honour it and on the pipelined PCG path, which must
///   ignore it;
/// - `overflow`: the SPD grid with one huge coupling, whose residual
///   overflows after the first update, so the cores take their
///   non-finite abort (with identity factors for the preconditioned
///   ones);
/// - `signed_m`: the SPD grid with `b = 1` and alternating-sign diagonal
///   factors, where PCG's β = 0/0 loses the direction.
fn cases() -> Vec<Case> {
    let spd = noisy_grid(20, 1.0);
    let n = spd.nrows;
    let fooled = fooled_spd(40);
    let mut fooled_b = vec![0.0; fooled.nrows];
    fooled_b[38] = 1.0;
    fooled_b[39] = -1.0;
    let mut overflow_b = rhs(n);
    overflow_b[0] = 0.0;
    vec![
        Case {
            name: "spd",
            a: spd.clone(),
            b: rhs(n),
            cfg: base_config(),
            cores: &ALL,
        },
        Case {
            name: "negdef",
            a: noisy_grid(20, -1.0),
            b: rhs(n),
            cfg: base_config(),
            cores: &ALL,
        },
        Case {
            name: "nonsym",
            a: nonsym(300),
            b: rhs(300),
            cfg: base_config(),
            cores: &[
                "bicgstab",
                "pbicgstab",
                "auto",
                "bicgstab_threaded",
                "pbicgstab_threaded",
            ],
        },
        Case {
            name: "fooled",
            a: fooled,
            b: fooled_b,
            cfg: base_config(),
            cores: &["cg", "auto"],
        },
        Case {
            name: "zero_pivot",
            a: zero_pivot_grid(20),
            b: rhs(n),
            cfg: base_config(),
            cores: &[
                "pcg_ilu0",
                "pcg_ic0",
                "pcg_pipelined",
                "pbicgstab",
                "pcg_threaded",
                "pbicgstab_threaded",
            ],
        },
        Case {
            name: "fixed_iters",
            a: tridiag(48),
            b: rhs(48),
            cfg: SolverConfig {
                fixed_iterations: Some(40),
                ..base_config()
            },
            cores: &CORES,
        },
        Case {
            name: "rotation",
            a: rotation(64),
            b: rhs(64),
            cfg: base_config(),
            cores: &SKEW_CORES,
        },
        Case {
            name: "skew96",
            a: skew(96),
            b: rhs(96),
            cfg: base_config(),
            cores: &SKEW_CORES,
        },
        Case {
            name: "skew97",
            a: skew(97),
            b: rhs(97),
            cfg: base_config(),
            cores: &SKEW_CORES,
        },
        Case {
            name: "overflow",
            a: huge_coupling(20),
            b: overflow_b,
            cfg: base_config(),
            cores: &[
                "cg",
                "cg_pipelined",
                "bicgstab",
                "pcg_identity",
                "pbicgstab_identity",
                "pcg_pipelined_identity",
            ],
        },
        Case {
            name: "signed_m",
            a: spd.clone(),
            b: vec![1.0; n],
            cfg: base_config(),
            cores: &["pcg_signed"],
        },
        Case {
            name: "adaptive",
            a: spd,
            b: rhs(n),
            cfg: SolverConfig {
                partial_convergence: false,
                adaptive: Some(AdaptiveConfig {
                    period: 4,
                    ..AdaptiveConfig::default()
                }),
                ..base_config()
            },
            cores: &[
                "cg",
                "cg_pipelined",
                "pcg_ilu0",
                "cg_threaded",
                "pcg_pipelined",
            ],
        },
    ]
}

#[rustfmt::skip]
fn golden() -> Vec<(&'static str, &'static str, Digest)> {
    vec![
    ("spd", "cg", ok(0x9425320671f9099f, 35, 0x273d4c57dfd6e925, "", "None", 0x4082fb0f95f54a1f)),
    ("spd", "cg_pipelined", ok(0xbbe24da6b0186328, 35, 0x31eb0bdd9f865d2c, "", "None", 0x40700809fdfab269)),
    ("spd", "bicgstab", ok(0xa552c516a74e5297, 25, 0x3c763beec87b20b2, "", "None", 0x408a98b59fba1a42)),
    ("spd", "pcg_ilu0", ok(0x4722aed7076800cd, 12, 0xd526ec7be5b1ef68, "", "None", 0x409cd95d3a3257d6)),
    ("spd", "pcg_ic0", ok(0x763bb4dc2a769674, 12, 0xeb674bf24595b678, "", "None", 0x409cd999eaa766dc)),
    ("spd", "pcg_block_jacobi", ok(0x09d6057e119fc432, 26, 0xc2e767d7248eb8eb, "", "None", 0x40ab68fe3cbdcf17)),
    ("spd", "pcg_pipelined", ok(0x2dca1a29a2e92db4, 12, 0x81bcfe2cf5a50eab, "", "None", 0x4092e43220f3ad08)),
    ("spd", "pbicgstab", ok(0xf22de9fd84215881, 7, 0x7f479a5bf5636325, "", "None", 0x4098cd2368e391ee)),
    ("spd", "auto", ok(0xbbe24da6b0186328, 35, 0x31eb0bdd9f865d2c, "", "None", 0x40700809fdfab269)),
    ("spd", "cg_threaded", engine(0x7787da13d8decb48, 35, 0x047339353aff32f3, "", "None")),
    ("spd", "bicgstab_threaded", engine(0x21a6a30ea86030ec, 25, 0xb23fd71d5d74d99d, "", "None")),
    ("spd", "pcg_threaded", engine(0x425404af4e289840, 12, 0x4724f5418640c701, "", "None")),
    ("spd", "pbicgstab_threaded", engine(0xb441a0e68b132c29, 7, 0x10a56644b5c66d0b, "", "None")),
    ("negdef", "cg", ok(0x13f631ef6a6fdd25, 8, 0x01254f26d3b0bba5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x4063d551bb1709c6)),
    ("negdef", "cg_pipelined", ok(0x13f631ef6a6fdd25, 8, 0x01254f26d3b0bba5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x404cea1586ded352)),
    ("negdef", "bicgstab", ok(0xfe13d8f607f0e197, 25, 0x3c763beec87b20b2, "", "None", 0x408a98b59fba1a42)),
    ("negdef", "pcg_ilu0", ok(0x13f631ef6a6fdd25, 8, 0x0bb2e2e48f5e8da5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x40910af93929bce2)),
    ("negdef", "pcg_ic0", err("NotSpd(0)")),
    ("negdef", "pcg_block_jacobi", ok(0x13f631ef6a6fdd25, 8, 0x0bb2e2e48f5e8da5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x40908dc828d747ce)),
    ("negdef", "pcg_pipelined", ok(0x13f631ef6a6fdd25, 8, 0x01254f26d3b0bba5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x4076e58d2a83adee)),
    ("negdef", "pbicgstab", ok(0xc043d5695370d581, 7, 0x7f479a5bf5636325, "", "None", 0x4098cd2368e391ee)),
    ("negdef", "auto", ok(0xfe13d8f607f0e197, 25, 0x3c763beec87b20b2, "", "None", 0x408a98b59fba1a42)),
    ("negdef", "cg_threaded", engine(0x13f631ef6a6fdd25, 8, 0xcbf29ce484222325, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })")),
    ("negdef", "bicgstab_threaded", engine(0xb36e17ac38696fec, 25, 0xb23fd71d5d74d99d, "", "None")),
    ("negdef", "pcg_threaded", engine(0x13f631ef6a6fdd25, 8, 0xcbf29ce484222325, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })")),
    ("negdef", "pbicgstab_threaded", engine(0x90bfab203ab21629, 7, 0x10a56644b5c66d0b, "", "None")),
    ("nonsym", "bicgstab", ok(0xe6cb792bd897fbac, 15, 0x1588c8be51604b74, "", "None", 0x407f08f776cc4bcd)),
    ("nonsym", "pbicgstab", ok(0x1199c123bddbb873, 1, 0x419a8553fc3978b9, "", "None", 0x406ed804f66dd6b2)),
    ("nonsym", "auto", ok(0xe6cb792bd897fbac, 15, 0x1588c8be51604b74, "", "None", 0x407f08f776cc4bcd)),
    ("nonsym", "bicgstab_threaded", engine(0xb190ee41222cf805, 15, 0xd9aac930fc4b476c, "", "None")),
    ("nonsym", "pbicgstab_threaded", engine(0xcb23efb2bf9c3b25, 1, 0x546e75ec9eccea57, "", "None")),
    ("fooled", "cg", ok(0xf05e74aa1eda9c25, 8, 0x01254f26d3b0bba5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x40629f2380adfc39)),
    ("fooled", "auto", ok(0x912ed36b74c2e285, 1, 0xc06ad2530110e245, "0-6:Curvature:Restarted 7:Curvature:Aborted 8:Curvature:SwitchedSolver", "None", 0x404990d8024a8c59)),
    ("zero_pivot", "pcg_ilu0", ok(0x13f631ef6a6fdd25, 8, 0x0bb2e2e48f5e8da5, "0:FactorShift:Restarted 0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x40910aecef07cb20)),
    ("zero_pivot", "pcg_ic0", err("NotSpd(1)")),
    ("zero_pivot", "pcg_pipelined", ok(0x13f631ef6a6fdd25, 8, 0x01254f26d3b0bba5, "0:FactorShift:Restarted 0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x4076e556d9629786)),
    ("zero_pivot", "pbicgstab", ok(0x49d22b176b05aa42, 12, 0x50b95d97da7c0c15, "0:FactorShift:Restarted", "None", 0x40a4ffb669c69d8e)),
    ("zero_pivot", "pcg_threaded", engine(0x13f631ef6a6fdd25, 8, 0xcbf29ce484222325, "0:FactorShift:Restarted 0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })")),
    ("zero_pivot", "pbicgstab_threaded", engine(0x65c28d0c9e9134a3, 12, 0x6fa650aa0d5d2725, "0:FactorShift:Restarted", "None")),
    ("fixed_iters", "cg", ok(0xc050784f836c8490, 40, 0x9f7ccb463020c1e7, "24-39:Curvature:Restarted", "None", 0x40842b9b05f8eaf4)),
    ("fixed_iters", "cg_pipelined", ok(0xda31755edd3f3092, 40, 0xc9bf8933d7ea9ac9, "26:Curvature:Restarted 28-39:Curvature:Restarted", "None", 0x406a4a8794ab3ca7)),
    ("fixed_iters", "bicgstab", ok(0xec922d5ea1650470, 40, 0x0ce2a931f859fc5a, "15:Omega:Restarted 16-39:NonFinite:Restarted", "None", 0x40938d3c5da47658)),
    ("fixed_iters", "pcg_ilu0", ok(0xdf5d5d6c5189651e, 40, 0x37a0488aef2a6a29, "11-39:Curvature:Restarted", "None", 0x40b201d2a0beb529)),
    ("fixed_iters", "pcg_ic0", ok(0xb832bec6706d3659, 40, 0x8945b196a8101a11, "11-39:Curvature:Restarted", "None", 0x40b203f4d4dc3c59)),
    ("fixed_iters", "pcg_block_jacobi", ok(0x67f000b6b9308c2d, 40, 0xe8fe4aa77da982b7, "", "None", 0x40b2fde9ecfc0b80)),
    ("fixed_iters", "pcg_pipelined", ok(0xbbd93ebfffe6ca0c, 40, 0x47276fd29a528248, "2:Curvature:Restarted 7:Curvature:Restarted 12:Curvature:Restarted 17:Curvature:Restarted 27:Curvature:Restarted 32:Curvature:Restarted 37:Curvature:Restarted", "None", 0x40a3a7a5417d6a51)),
    ("fixed_iters", "pbicgstab", ok(0xdf5d5d6c5189651e, 40, 0xd4f1e302da82e016, "5-14:Omega:Restarted 15-39:Rho:Restarted", "None", 0x40bb54d2a0beb529)),
    ("rotation", "bicgstab", ok(0x7da144b97d054b25, 8, 0x01254f26d3b0bba5, "0-6:NonFinite:Restarted 7:NonFinite:Aborted", "Some(Stalled { iteration: 7 })", 0x4070d719a7979dd0)),
    ("rotation", "bicgstab_threaded", engine(0x7da144b97d054b25, 8, 0xcbf29ce484222325, "0-6:NonFinite:Restarted 7:NonFinite:Aborted", "Some(Stalled { iteration: 7 })")),
    ("rotation", "pbicgstab", ok(0x04de09ed9e6ead4d, 2, 0x8a0c26e85c7971e4, "0:FactorShift:Restarted", "None", 0x4077dbc03a94ff37)),
    ("rotation", "pbicgstab_threaded", engine(0x04de09ed9e6ead4d, 2, 0x103537e2a71ce1b9, "0:FactorShift:Restarted", "None")),
    ("rotation", "pbicgstab_identity", ok(0x7da144b97d054b25, 8, 0x0bb2e2e48f5e8da5, "0-6:NonFinite:Restarted 7:NonFinite:Aborted", "Some(Stalled { iteration: 7 })", 0x40965f8ef8b26ece)),
    ("skew96", "bicgstab", ok(0x69f742eef3808cd0, 1000, 0x568719676ecbdbc5, "41-42:Omega:Restarted", "None", 0x40de6e5fe66282ea)),
    ("skew96", "bicgstab_threaded", engine(0x44c0b77ba3c6a825, 71, 0xb621fae58797af7d, "1:NonFinite:Restarted 7:Rho:Restarted 26:Rho:Restarted 31:Rho:Restarted 48:Rho:Restarted 64:Rho:Restarted 69:Rho:Restarted 70:NonFinite:Aborted", "Some(NonFinite { iteration: 70 })")),
    ("skew96", "pbicgstab", ok(0xdeb6e4c8ef220d6c, 3, 0x4dc27e32ddea77ca, "0:FactorShift:Restarted", "None", 0x4081864e13ade294)),
    ("skew96", "pbicgstab_threaded", engine(0x32b130d227e23253, 3, 0xdf031ba86452f596, "0:FactorShift:Restarted", "None")),
    ("skew96", "pbicgstab_identity", ok(0x69f742eef3808cd0, 1000, 0x568719676ecbdbc5, "41-42:Omega:Restarted", "None", 0x410577370d44e9f3)),
    ("skew97", "bicgstab", ok(0x89a30e1532607196, 1000, 0x9d261974c61445a3, "11:Rho:Restarted 127:Rho:Restarted 825:Omega:Restarted", "None", 0x40de768a9c4acc37)),
    ("skew97", "bicgstab_threaded", engine(0x6d556a9cf74934c0, 227, 0xcd159e0342070f36, "2:Omega:Restarted 51:Rho:Restarted 60:Omega:Restarted 67:Omega:Restarted 69:Omega:Restarted 73:Rho:Restarted 90:Omega:Restarted 109:Omega:Restarted 113-114:Omega:Restarted 116:Rho:Restarted 117:Omega:Restarted 172:Omega:Restarted 187:Rho:Restarted 189:Omega:Restarted 225:Rho:Restarted 226:NonFinite:Aborted", "Some(NonFinite { iteration: 226 })")),
    ("skew97", "pbicgstab", ok(0x621da237450c88da, 1000, 0x6c403cdedf85f492, "0:FactorShift:Restarted", "None", 0x41058585ae0d1020)),
    ("skew97", "pbicgstab_threaded", engine(0xcbf0c5e38343b9ff, 1000, 0x86aadfcec71a3d3d, "0:FactorShift:Restarted", "None")),
    ("skew97", "pbicgstab_identity", ok(0x89a30e1532607196, 1000, 0x9d261974c61445a3, "11:Rho:Restarted 127:Rho:Restarted 825:Omega:Restarted", "None", 0x41057de2e15e9b91)),
    ("overflow", "cg", ok(0x874cfe4ac2334fcc, 1, 0xcbf29ce484222325, "0:NonFinite:Aborted", "Some(NonFinite { iteration: 0 })", 0x4043d7c2aa39a324)),
    ("overflow", "cg_pipelined", ok(0x874cfe4ac2334fcc, 1, 0xcbf29ce484222325, "0:NonFinite:Aborted", "Some(NonFinite { iteration: 0 })", 0x40420ef1f360aa48)),
    ("overflow", "bicgstab", ok(0xf0099296fd4386a5, 1, 0xcbf29ce484222325, "0:NonFinite:Aborted", "Some(NonFinite { iteration: 0 })", 0x404c233ffbc4c706)),
    ("overflow", "pcg_identity", ok(0x874cfe4ac2334fcc, 1, 0xcbf29ce484222325, "0:NonFinite:Aborted", "Some(NonFinite { iteration: 0 })", 0x406701d87ba2ad31)),
    ("overflow", "pbicgstab_identity", ok(0xf0099296fd4386a5, 1, 0xcbf29ce484222325, "0:NonFinite:Aborted", "Some(NonFinite { iteration: 0 })", 0x406f38ac79357ceb)),
    ("overflow", "pcg_pipelined_identity", ok(0x874cfe4ac2334fcc, 1, 0xcbf29ce484222325, "0:NonFinite:Aborted", "Some(NonFinite { iteration: 0 })", 0x4067bfb62fc8aada)),
    ("signed_m", "pcg_signed", ok(0x13f631ef6a6fdd25, 1, 0xaab1693229ba1db8, "0:NonFinite:Aborted", "Some(NonFinite { iteration: 0 })", 0x406d4fc465e77df1)),
    ("adaptive", "cg", ok(0x8eac0340b8a28d1a, 37, 0x0753d8ed0d067e59, "", "None", 0x4084e9329da3fcdb)),
    ("adaptive", "cg_pipelined", ok(0xe2cf373b0120fa58, 37, 0xc506e77d5a4ee660, "", "None", 0x4071edbd7ea69e30)),
    ("adaptive", "pcg_ilu0", ok(0xf074b85c1574a652, 12, 0xf69febd6a0897461, "", "None", 0x409f39a4694d1a1a)),
    ("adaptive", "cg_threaded", engine(0xbe1f45f8f2c7454a, 37, 0x683009a8d0069f48, "", "None")),
    ("adaptive", "pcg_pipelined", ok(0x2dca1a29a2e92db4, 12, 0x81bcfe2cf5a50eab, "", "None", 0x4092e43220f3ad08)),
    ]
}

#[test]
fn every_facade_path_matches_its_golden_digest() {
    let mut observed = Vec::new();
    for c in cases() {
        let solver = MilleFeuille::new(DeviceSpec::a100(), c.cfg);
        for &core in c.cores {
            observed.push((c.name, core, digest(run(core, &solver, &c.a, &c.b))));
        }
    }
    let expected = golden();
    let table: String = observed
        .iter()
        .map(|(case, core, d)| row_source(case, core, d) + "\n")
        .collect();
    assert_eq!(
        observed.len(),
        expected.len(),
        "golden table size; observed table:\n{table}"
    );
    for ((case, core, got), (ecase, ecore, want)) in observed.iter().zip(&expected) {
        assert_eq!(
            (case, core),
            (ecase, ecore),
            "row order; observed table:\n{table}"
        );
        assert_eq!(got, want, "{case}/{core} moved; observed table:\n{table}");
    }
}

/// The golden table is not vacuous: it covers a converging solve on every
/// path, a `Stalled` abort, fixed-iteration restarts, the `Auto` handoff
/// and factor shifts, and the armed controller fires on ILU(0)-PCG.
#[test]
fn golden_cases_exercise_convergence_restarts_and_retiering() {
    let by_core = |case: &str, core: &str| {
        let c = cases().into_iter().find(|c| c.name == case).unwrap();
        run(
            core,
            &MilleFeuille::new(DeviceSpec::a100(), c.cfg),
            &c.a,
            &c.b,
        )
    };
    for core in ALL {
        let spd = by_core("spd", core).unwrap();
        assert!(spd.converged, "spd/{core}");
    }
    let stalled = by_core("negdef", "pcg_ilu0").unwrap();
    assert!(
        matches!(
            stalled.failure,
            Some(mf_solver::SolveFailure::Stalled { .. })
        ),
        "{:?}",
        stalled.failure
    );
    let fixed = by_core("fixed_iters", "pcg_ic0").unwrap();
    assert!(!fixed.breakdowns.is_empty() && fixed.failure.is_none());
    // A fixed budget records one residual per iteration, preconditioned
    // restarts included.
    for core in [
        "pcg_ilu0",
        "pcg_ic0",
        "pcg_block_jacobi",
        "pcg_pipelined",
        "pbicgstab",
    ] {
        let fixed = by_core("fixed_iters", core).unwrap();
        assert_eq!(fixed.iterations, 40, "fixed_iters/{core}");
        assert_eq!(
            fixed.residual_history.len(),
            fixed.iterations,
            "fixed_iters/{core}"
        );
    }
    let adaptive = by_core("adaptive", "pcg_ilu0").unwrap();
    assert!(!adaptive.retier_trail.is_empty());
    let alpha = by_core("rotation", "bicgstab_threaded").unwrap();
    assert!(matches!(alpha.failure, Some(SolveFailure::Stalled { .. })));
    let alpha = by_core("rotation", "pbicgstab_identity").unwrap();
    assert!(matches!(alpha.failure, Some(SolveFailure::Stalled { .. })));
    for case in ["rotation", "skew96", "skew97"] {
        for core in SKEW_CORES {
            let rep = by_core(case, core).unwrap();
            assert!(!rep.breakdowns.is_empty(), "{case}/{core}: empty trail");
        }
    }
    let skew = by_core("skew97", "bicgstab_threaded").unwrap();
    for kind in [BreakdownKind::Rho, BreakdownKind::Omega] {
        assert!(skew.breakdowns.iter().any(|e| e.kind == kind), "{kind:?}");
    }
    let overflow = cases().into_iter().find(|c| c.name == "overflow").unwrap();
    for core in overflow.cores {
        let rep = by_core("overflow", core).unwrap();
        assert!(
            matches!(rep.failure, Some(SolveFailure::NonFinite { iteration: 0 }))
                && rep
                    .breakdowns
                    .iter()
                    .all(|e| e.action != mf_solver::RecoveryAction::Restarted),
            "overflow/{core}: {:?}",
            rep.failure
        );
    }
    // The lost direction ends a completed iteration: its residual is
    // recorded before the abort.
    let lost = by_core("signed_m", "pcg_signed").unwrap();
    assert!(matches!(
        lost.failure,
        Some(SolveFailure::NonFinite { iteration: 0 })
    ));
    assert_eq!(lost.residual_history.len(), 1);
    let handoff = by_core("fooled", "auto").unwrap();
    assert!(handoff.converged);
    assert!(handoff
        .breakdowns
        .iter()
        .any(|e| e.action == mf_solver::RecoveryAction::SwitchedSolver));
    for core in ["pcg_ilu0", "pcg_threaded"] {
        let boosted = by_core("zero_pivot", core).unwrap();
        assert_eq!(
            boosted.breakdowns.first().map(|e| e.kind),
            Some(mf_solver::BreakdownKind::FactorShift),
            "zero_pivot/{core}"
        );
    }
}
