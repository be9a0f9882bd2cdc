//! Golden outputs of the four baseline-library solves — CG, BiCGSTAB,
//! ILU(0)-PCG and ILU(0)-PBiCGSTAB — under each of the four library
//! profiles, pinned bitwise.
//!
//! The baselines run the solver's own cores, so these rows pin the
//! library pricing of their charges. The cases drive every core through
//! its branches: a converging SPD grid; its negation, where CG and PCG
//! restart on curvature until the stall abort; 2×2 rotation blocks, where
//! the BiCGSTAB family restarts on α until the same abort; a skew
//! tridiagonal, where it restarts on ρ or ω; a zero right-hand side; and
//! a fixed-iteration run that records the residual and error histories.
//! The BiCGSTAB-family rows of the rotation and skew cases use identity
//! factors, which keep the breakdowns a built factorization would not.
//!
//! Each row digests one solve: an FNV-1a hash of the solution bits, the
//! iteration count, `converged`, the `final_relres` bits, hashes of both
//! histories and a hash of every Timeline phase's bits. A refactor that
//! keeps the arithmetic and the charge order keeps every row.
//!
//! On a mismatch the assertion prints the whole observed table in this
//! file's source form, so an intended change can be reviewed row by row.

use mf_baselines::Baseline;
use mf_gpu::Phase;
use mf_kernels::{ilu0, Ilu0};
use mf_solver::config::MAX_CONSECUTIVE_RESTARTS;
use mf_solver::{SolveFailure, SolveReport, SolverConfig};
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

/// 5-point Laplacian on a `g × g` grid with noisy couplings and a strictly
/// dominant diagonal, times `sign`: SPD for `sign = 1`, negative definite
/// for `sign = −1`, with an ILU(0) that is not exact either way.
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

/// Tridiagonal SPD matrix: ILU(0) is exact, so a fixed-iteration run
/// keeps iterating past convergence.
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

/// `n / 2` diagonal 2×2 rotation blocks `[[0, 1], [−1, 0]]`: `(A·p, r₀*)`
/// cancels exactly, so the BiCGSTAB family restarts on α every step.
fn rotation(n: usize) -> Csr {
    let mut a = Coo::new(n, n);
    for k in 0..n / 2 {
        a.push(2 * k, 2 * k + 1, 1.0);
        a.push(2 * k + 1, 2 * k, -1.0);
    }
    a.to_csr()
}

/// Skew tridiagonal with varied couplings: `(A·b, b)` cancels only up to
/// rounding, so BiCGSTAB makes progress but runs into ρ and ω restarts.
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

/// ILU(0) factors with an empty `L` and `U = I`: the preconditioned loops
/// then follow their unpreconditioned recurrences.
fn identity_ilu0(n: usize) -> Ilu0 {
    let mut u = Coo::new(n, n);
    for i in 0..n {
        u.push(i, i, 1.0);
    }
    Ilu0 {
        l: Coo::new(n, n).to_csr(),
        u: u.to_csr(),
    }
}

fn rhs(n: usize) -> Vec<f64> {
    noise(n, 11).iter().map(|v| 2.0 * v - 1.0).collect()
}

const METHODS: [&str; 4] = ["cg", "bicgstab", "pcg", "pbicgstab"];
const BICGSTAB_FAMILY: [&str; 2] = ["bicgstab", "pbicgstab"];
const PROFILES: [&str; 4] = ["cusparse", "hipsparse", "petsc", "ginkgo"];

fn profile(name: &str) -> Baseline {
    match name {
        "cusparse" => Baseline::cusparse(),
        "hipsparse" => Baseline::hipsparse(),
        "petsc" => Baseline::petsc(),
        "ginkgo" => Baseline::ginkgo(),
        other => panic!("unknown profile {other}"),
    }
}

/// One solve setting, run on each of `methods` under every profile.
/// `ilu` is what the preconditioned methods apply.
struct Case {
    name: &'static str,
    a: Csr,
    b: Vec<f64>,
    ilu: Ilu0,
    cfg: SolverConfig,
    methods: &'static [&'static str],
}

fn base_config() -> SolverConfig {
    SolverConfig {
        trace_residuals: true,
        ..SolverConfig::default()
    }
}

/// The cases:
/// - `spd`: a converging noisy SPD grid;
/// - `negdef`: the grid negated — CG and PCG restart on curvature every
///   step until the stall abort, the BiCGSTAB family converges;
/// - `rotation`: the BiCGSTAB family's α restart on every step, until the
///   stall abort;
/// - `skew`: the BiCGSTAB family's ρ and ω restarts;
/// - `zero_rhs`: `b = 0`, answered before the first iteration;
/// - `fixed_iters`: an exactly factorizable tridiagonal run for a fixed
///   iteration count past convergence, into curvature restarts that PCG
///   takes like CG, with the residual history and the error against the
///   reference solution recorded for every iteration.
fn cases() -> Vec<Case> {
    let spd = noisy_grid(12, 1.0);
    let negdef = noisy_grid(12, -1.0);
    let n = spd.nrows;
    let tri = tridiag(48);
    let mut tri_b = vec![0.0; 48];
    tri.matvec(&[1.0; 48], &mut tri_b);
    vec![
        Case {
            name: "spd",
            b: rhs(n),
            ilu: ilu0(&spd).unwrap(),
            a: spd.clone(),
            cfg: base_config(),
            methods: &METHODS,
        },
        Case {
            name: "negdef",
            b: rhs(n),
            ilu: ilu0(&negdef).unwrap(),
            a: negdef,
            cfg: base_config(),
            methods: &METHODS,
        },
        Case {
            name: "rotation",
            a: rotation(64),
            b: rhs(64),
            ilu: identity_ilu0(64),
            cfg: base_config(),
            methods: &BICGSTAB_FAMILY,
        },
        Case {
            name: "skew",
            a: skew(97),
            b: rhs(97),
            ilu: identity_ilu0(97),
            cfg: base_config(),
            methods: &BICGSTAB_FAMILY,
        },
        Case {
            name: "zero_rhs",
            b: vec![0.0; n],
            ilu: ilu0(&spd).unwrap(),
            a: spd,
            cfg: base_config(),
            methods: &METHODS,
        },
        Case {
            name: "fixed_iters",
            ilu: ilu0(&tri).unwrap(),
            a: tri,
            b: tri_b,
            cfg: SolverConfig {
                fixed_iterations: Some(40),
                reference_solution: Some(vec![1.0; 48]),
                ..base_config()
            },
            methods: &METHODS,
        },
    ]
}

fn run(method: &str, base: &Baseline, c: &Case) -> SolveReport {
    match method {
        "cg" => base.solve_cg(&c.a, &c.b, &c.cfg),
        "bicgstab" => base.solve_bicgstab(&c.a, &c.b, &c.cfg),
        "pcg" => base.solve_pcg_with(&c.a, &c.b, &c.cfg, &c.ilu),
        "pbicgstab" => base.solve_pbicgstab_with(&c.a, &c.b, &c.cfg, &c.ilu),
        other => panic!("unknown method {other}"),
    }
}

/// What one row pins.
#[derive(Debug, PartialEq)]
struct Digest {
    x: u64,
    iterations: usize,
    converged: bool,
    final_relres: u64,
    residuals: u64,
    errors: u64,
    phases: u64,
}

fn digest(rep: &SolveReport) -> Digest {
    Digest {
        x: bits(&rep.x),
        iterations: rep.iterations,
        converged: rep.converged,
        final_relres: rep.final_relres.to_bits(),
        residuals: bits(&rep.residual_history),
        errors: bits(&rep.error_history),
        phases: fnv(Phase::ALL.iter().map(|&p| rep.timeline.get(p).to_bits())),
    }
}

fn row(
    x: u64,
    iterations: usize,
    converged: bool,
    final_relres: u64,
    residuals: u64,
    errors: u64,
    phases: u64,
) -> Digest {
    Digest {
        x,
        iterations,
        converged,
        final_relres,
        residuals,
        errors,
        phases,
    }
}

fn row_source(case: &str, method: &str, prof: &str, d: &Digest) -> String {
    format!(
        "    (\"{case}\", \"{method}\", \"{prof}\", row({:#018x}, {}, {}, {:#018x}, {:#018x}, {:#018x}, {:#018x})),",
        d.x, d.iterations, d.converged, d.final_relres, d.residuals, d.errors, d.phases
    )
}

#[rustfmt::skip]
fn golden() -> Vec<(&'static str, &'static str, &'static str, Digest)> {
    vec![
    ("spd", "cg", "cusparse", row(0x1e1535f605aa06ae, 34, true, 0x3dcefcf3a1daf102, 0xeb7b75e779cc405f, 0xcbf29ce484222325, 0xd95cbd1a64beb646)),
    ("spd", "cg", "hipsparse", row(0x1e1535f605aa06ae, 34, true, 0x3dcefcf3a1daf102, 0xeb7b75e779cc405f, 0xcbf29ce484222325, 0x1041cc00a7659a82)),
    ("spd", "cg", "petsc", row(0x1e1535f605aa06ae, 34, true, 0x3dcefcf3a1daf102, 0xeb7b75e779cc405f, 0xcbf29ce484222325, 0x752967787bfd548f)),
    ("spd", "cg", "ginkgo", row(0x1e1535f605aa06ae, 34, true, 0x3dcefcf3a1daf102, 0xeb7b75e779cc405f, 0xcbf29ce484222325, 0xf66f4fab0bb471aa)),
    ("spd", "bicgstab", "cusparse", row(0xed2d5d18e52b3675, 24, true, 0x3dca5fb17b292bef, 0xfb43fd9aec7ba446, 0xcbf29ce484222325, 0x8f1ad660ce5cee7b)),
    ("spd", "bicgstab", "hipsparse", row(0xed2d5d18e52b3675, 24, true, 0x3dca5fb17b292bef, 0xfb43fd9aec7ba446, 0xcbf29ce484222325, 0xc9b1bff85f8964ba)),
    ("spd", "bicgstab", "petsc", row(0xed2d5d18e52b3675, 24, true, 0x3dca5fb17b292bef, 0xfb43fd9aec7ba446, 0xcbf29ce484222325, 0xaa585cdf7e5307ea)),
    ("spd", "bicgstab", "ginkgo", row(0xed2d5d18e52b3675, 24, true, 0x3dca5fb17b292bef, 0xfb43fd9aec7ba446, 0xcbf29ce484222325, 0x6f41603db3d5441a)),
    ("spd", "pcg", "cusparse", row(0xd4fff93229cfdc4e, 11, true, 0x3dd74b72b08e93c4, 0xc61e0235bd8cd660, 0xcbf29ce484222325, 0x56ff50f425ab93de)),
    ("spd", "pcg", "hipsparse", row(0xd4fff93229cfdc4e, 11, true, 0x3dd74b72b08e93c4, 0xc61e0235bd8cd660, 0xcbf29ce484222325, 0x1fe0d7866547255d)),
    ("spd", "pcg", "petsc", row(0xd4fff93229cfdc4e, 11, true, 0x3dd74b72b08e93c4, 0xc61e0235bd8cd660, 0xcbf29ce484222325, 0x88e562c599d2c871)),
    ("spd", "pcg", "ginkgo", row(0xd4fff93229cfdc4e, 11, true, 0x3dd74b72b08e93c4, 0xc61e0235bd8cd660, 0xcbf29ce484222325, 0xd5c26c9bf13b2db0)),
    ("spd", "pbicgstab", "cusparse", row(0x3782eb7b01a878ff, 7, true, 0x3d9a64d6b099ef41, 0x222c07bc1ef430eb, 0xcbf29ce484222325, 0xd0bb90964dd73d73)),
    ("spd", "pbicgstab", "hipsparse", row(0x3782eb7b01a878ff, 7, true, 0x3d9a64d6b099ef41, 0x222c07bc1ef430eb, 0xcbf29ce484222325, 0xab518481f7fa4c69)),
    ("spd", "pbicgstab", "petsc", row(0x3782eb7b01a878ff, 7, true, 0x3d9a64d6b099ef41, 0x222c07bc1ef430eb, 0xcbf29ce484222325, 0x52d03d430bcb03d3)),
    ("spd", "pbicgstab", "ginkgo", row(0x3782eb7b01a878ff, 7, true, 0x3d9a64d6b099ef41, 0x222c07bc1ef430eb, 0xcbf29ce484222325, 0xfd8c96a122d66874)),
    ("negdef", "cg", "cusparse", row(0x36fe4d3f1c233d25, 8, false, 0x3ff0000000000000, 0x01254f26d3b0bba5, 0xcbf29ce484222325, 0x5a4abb6ad0285dd8)),
    ("negdef", "cg", "hipsparse", row(0x36fe4d3f1c233d25, 8, false, 0x3ff0000000000000, 0x01254f26d3b0bba5, 0xcbf29ce484222325, 0xcc3fdd2a395295bf)),
    ("negdef", "cg", "petsc", row(0x36fe4d3f1c233d25, 8, false, 0x3ff0000000000000, 0x01254f26d3b0bba5, 0xcbf29ce484222325, 0xa358dbc14c55f775)),
    ("negdef", "cg", "ginkgo", row(0x36fe4d3f1c233d25, 8, false, 0x3ff0000000000000, 0x01254f26d3b0bba5, 0xcbf29ce484222325, 0x3d3a7cdf64e2bf69)),
    ("negdef", "bicgstab", "cusparse", row(0xcdec18e636adc475, 24, true, 0x3dca5fb17b292bef, 0xfb43fd9aec7ba446, 0xcbf29ce484222325, 0x8f1ad660ce5cee7b)),
    ("negdef", "bicgstab", "hipsparse", row(0xcdec18e636adc475, 24, true, 0x3dca5fb17b292bef, 0xfb43fd9aec7ba446, 0xcbf29ce484222325, 0xc9b1bff85f8964ba)),
    ("negdef", "bicgstab", "petsc", row(0xcdec18e636adc475, 24, true, 0x3dca5fb17b292bef, 0xfb43fd9aec7ba446, 0xcbf29ce484222325, 0xaa585cdf7e5307ea)),
    ("negdef", "bicgstab", "ginkgo", row(0xcdec18e636adc475, 24, true, 0x3dca5fb17b292bef, 0xfb43fd9aec7ba446, 0xcbf29ce484222325, 0x6f41603db3d5441a)),
    ("negdef", "pcg", "cusparse", row(0x36fe4d3f1c233d25, 8, false, 0x7ff0000000000000, 0x0bb2e2e48f5e8da5, 0xcbf29ce484222325, 0x53a9fad6265b7c17)),
    ("negdef", "pcg", "hipsparse", row(0x36fe4d3f1c233d25, 8, false, 0x7ff0000000000000, 0x0bb2e2e48f5e8da5, 0xcbf29ce484222325, 0x161a5586ed82fbdb)),
    ("negdef", "pcg", "petsc", row(0x36fe4d3f1c233d25, 8, false, 0x7ff0000000000000, 0x0bb2e2e48f5e8da5, 0xcbf29ce484222325, 0x09d333e8ebaff0e7)),
    ("negdef", "pcg", "ginkgo", row(0x36fe4d3f1c233d25, 8, false, 0x7ff0000000000000, 0x0bb2e2e48f5e8da5, 0xcbf29ce484222325, 0xc24784bff9933c73)),
    ("negdef", "pbicgstab", "cusparse", row(0x0110575ca2a5b9ff, 7, true, 0x3d9a64d6b099ef41, 0x222c07bc1ef430eb, 0xcbf29ce484222325, 0xd0bb90964dd73d73)),
    ("negdef", "pbicgstab", "hipsparse", row(0x0110575ca2a5b9ff, 7, true, 0x3d9a64d6b099ef41, 0x222c07bc1ef430eb, 0xcbf29ce484222325, 0xab518481f7fa4c69)),
    ("negdef", "pbicgstab", "petsc", row(0x0110575ca2a5b9ff, 7, true, 0x3d9a64d6b099ef41, 0x222c07bc1ef430eb, 0xcbf29ce484222325, 0x52d03d430bcb03d3)),
    ("negdef", "pbicgstab", "ginkgo", row(0x0110575ca2a5b9ff, 7, true, 0x3d9a64d6b099ef41, 0x222c07bc1ef430eb, 0xcbf29ce484222325, 0xfd8c96a122d66874)),
    ("rotation", "bicgstab", "cusparse", row(0x7da144b97d054b25, 8, false, 0x3ff0000000000000, 0x01254f26d3b0bba5, 0xcbf29ce484222325, 0x2c2c3cd04165138d)),
    ("rotation", "bicgstab", "hipsparse", row(0x7da144b97d054b25, 8, false, 0x3ff0000000000000, 0x01254f26d3b0bba5, 0xcbf29ce484222325, 0xeb9b959c301db859)),
    ("rotation", "bicgstab", "petsc", row(0x7da144b97d054b25, 8, false, 0x3ff0000000000000, 0x01254f26d3b0bba5, 0xcbf29ce484222325, 0xc73e78673ff4e4c4)),
    ("rotation", "bicgstab", "ginkgo", row(0x7da144b97d054b25, 8, false, 0x3ff0000000000000, 0x01254f26d3b0bba5, 0xcbf29ce484222325, 0xaaa00598bc2a6894)),
    ("rotation", "pbicgstab", "cusparse", row(0x7da144b97d054b25, 8, false, 0x7ff0000000000000, 0x0bb2e2e48f5e8da5, 0xcbf29ce484222325, 0x688b3907285c5f5a)),
    ("rotation", "pbicgstab", "hipsparse", row(0x7da144b97d054b25, 8, false, 0x7ff0000000000000, 0x0bb2e2e48f5e8da5, 0xcbf29ce484222325, 0xb50be9d9454ebf91)),
    ("rotation", "pbicgstab", "petsc", row(0x7da144b97d054b25, 8, false, 0x7ff0000000000000, 0x0bb2e2e48f5e8da5, 0xcbf29ce484222325, 0x9c89a627a6523533)),
    ("rotation", "pbicgstab", "ginkgo", row(0x7da144b97d054b25, 8, false, 0x7ff0000000000000, 0x0bb2e2e48f5e8da5, 0xcbf29ce484222325, 0x1c82af4b51496741)),
    ("skew", "bicgstab", "cusparse", row(0x89a30e1532607196, 1000, false, 0x449b06aea8cabbef, 0x9d261974c61445a3, 0xcbf29ce484222325, 0x9fd30bbf03b6ae4f)),
    ("skew", "bicgstab", "hipsparse", row(0x89a30e1532607196, 1000, false, 0x449b06aea8cabbef, 0x9d261974c61445a3, 0xcbf29ce484222325, 0x083a285355556eed)),
    ("skew", "bicgstab", "petsc", row(0x89a30e1532607196, 1000, false, 0x449b06aea8cabbef, 0x9d261974c61445a3, 0xcbf29ce484222325, 0xe72531a3b60c8b38)),
    ("skew", "bicgstab", "ginkgo", row(0x89a30e1532607196, 1000, false, 0x449b06aea8cabbef, 0x9d261974c61445a3, 0xcbf29ce484222325, 0xd1cd6818acbbe686)),
    ("skew", "pbicgstab", "cusparse", row(0x89a30e1532607196, 1000, false, 0x449b06aea8cabbef, 0x9d261974c61445a3, 0xcbf29ce484222325, 0xaf7c007d06147de1)),
    ("skew", "pbicgstab", "hipsparse", row(0x89a30e1532607196, 1000, false, 0x449b06aea8cabbef, 0x9d261974c61445a3, 0xcbf29ce484222325, 0xf5aa1406f6da6444)),
    ("skew", "pbicgstab", "petsc", row(0x89a30e1532607196, 1000, false, 0x449b06aea8cabbef, 0x9d261974c61445a3, 0xcbf29ce484222325, 0x33d6a380f1764e60)),
    ("skew", "pbicgstab", "ginkgo", row(0x89a30e1532607196, 1000, false, 0x449b06aea8cabbef, 0x9d261974c61445a3, 0xcbf29ce484222325, 0xa1c203b7d176735e)),
    ("zero_rhs", "cg", "cusparse", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x7479744ad77ee805)),
    ("zero_rhs", "cg", "hipsparse", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x7479744ad77ee805)),
    ("zero_rhs", "cg", "petsc", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x7479744ad77ee805)),
    ("zero_rhs", "cg", "ginkgo", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x7479744ad77ee805)),
    ("zero_rhs", "bicgstab", "cusparse", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x7479744ad77ee805)),
    ("zero_rhs", "bicgstab", "hipsparse", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x7479744ad77ee805)),
    ("zero_rhs", "bicgstab", "petsc", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x7479744ad77ee805)),
    ("zero_rhs", "bicgstab", "ginkgo", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x7479744ad77ee805)),
    ("zero_rhs", "pcg", "cusparse", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x020b460c389bce7b)),
    ("zero_rhs", "pcg", "hipsparse", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x839349e52611f1e5)),
    ("zero_rhs", "pcg", "petsc", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x020b460c389bce7b)),
    ("zero_rhs", "pcg", "ginkgo", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x020b460c389bce7b)),
    ("zero_rhs", "pbicgstab", "cusparse", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x020b460c389bce7b)),
    ("zero_rhs", "pbicgstab", "hipsparse", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x839349e52611f1e5)),
    ("zero_rhs", "pbicgstab", "petsc", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x020b460c389bce7b)),
    ("zero_rhs", "pbicgstab", "ginkgo", row(0x36fe4d3f1c233d25, 0, true, 0x0000000000000000, 0xcbf29ce484222325, 0xcbf29ce484222325, 0x020b460c389bce7b)),
    ("fixed_iters", "cg", "cusparse", row(0x5c6c8ad44e0739d9, 40, false, 0x3843a4f89b1e5112, 0xdbbfb0a73d4805f9, 0xa0c9932f007c1f5c, 0x82bc6c032a27f2b3)),
    ("fixed_iters", "cg", "hipsparse", row(0x5c6c8ad44e0739d9, 40, false, 0x3843a4f89b1e5112, 0xdbbfb0a73d4805f9, 0xa0c9932f007c1f5c, 0xe382724fc2b08d74)),
    ("fixed_iters", "cg", "petsc", row(0x5c6c8ad44e0739d9, 40, false, 0x3843a4f89b1e5112, 0xdbbfb0a73d4805f9, 0xa0c9932f007c1f5c, 0x8bcfbb071a5fc43e)),
    ("fixed_iters", "cg", "ginkgo", row(0x5c6c8ad44e0739d9, 40, false, 0x3843a4f89b1e5112, 0xdbbfb0a73d4805f9, 0xa0c9932f007c1f5c, 0x73c81ee94ec1e85a)),
    ("fixed_iters", "bicgstab", "cusparse", row(0x9f36d57d6672db21, 40, false, 0x350675493964a371, 0x4d8d7b93eacee9f8, 0x2b89c0a1ccb93fd6, 0x599997986d069dbe)),
    ("fixed_iters", "bicgstab", "hipsparse", row(0x9f36d57d6672db21, 40, false, 0x350675493964a371, 0x4d8d7b93eacee9f8, 0x2b89c0a1ccb93fd6, 0x70ebe893e111e46f)),
    ("fixed_iters", "bicgstab", "petsc", row(0x9f36d57d6672db21, 40, false, 0x350675493964a371, 0x4d8d7b93eacee9f8, 0x2b89c0a1ccb93fd6, 0xe05c05eaf324ac0a)),
    ("fixed_iters", "bicgstab", "ginkgo", row(0x9f36d57d6672db21, 40, false, 0x350675493964a371, 0x4d8d7b93eacee9f8, 0x2b89c0a1ccb93fd6, 0x5b263cfcb09fdc80)),
    ("fixed_iters", "pcg", "cusparse", row(0xf8d0cf8b73597625, 40, false, 0x0000000000000000, 0xc48379698c35399f, 0xcbf29ce484222325, 0x035334972833a72a)),
    ("fixed_iters", "pcg", "hipsparse", row(0xf8d0cf8b73597625, 40, false, 0x0000000000000000, 0xc48379698c35399f, 0xcbf29ce484222325, 0xb7307694ad0cb877)),
    ("fixed_iters", "pcg", "petsc", row(0xf8d0cf8b73597625, 40, false, 0x0000000000000000, 0xc48379698c35399f, 0xcbf29ce484222325, 0xe1bd0a21f6673fdb)),
    ("fixed_iters", "pcg", "ginkgo", row(0xf8d0cf8b73597625, 40, false, 0x0000000000000000, 0xc48379698c35399f, 0xcbf29ce484222325, 0x7d03ad8e43df5a88)),
    ("fixed_iters", "pbicgstab", "cusparse", row(0xf8d0cf8b73597625, 40, false, 0x0000000000000000, 0x740a53fe39be5aee, 0xcbf29ce484222325, 0xd49534143cfb1cb2)),
    ("fixed_iters", "pbicgstab", "hipsparse", row(0xf8d0cf8b73597625, 40, false, 0x0000000000000000, 0x740a53fe39be5aee, 0xcbf29ce484222325, 0xb4335ec6571afa38)),
    ("fixed_iters", "pbicgstab", "petsc", row(0xf8d0cf8b73597625, 40, false, 0x0000000000000000, 0x740a53fe39be5aee, 0xcbf29ce484222325, 0x4154f139899c981f)),
    ("fixed_iters", "pbicgstab", "ginkgo", row(0xf8d0cf8b73597625, 40, false, 0x0000000000000000, 0x740a53fe39be5aee, 0xcbf29ce484222325, 0x48662f3dc8a4cc70)),
    ]
}

fn observed() -> Vec<(&'static str, &'static str, &'static str, Digest)> {
    let mut rows = Vec::new();
    for c in cases() {
        for &method in c.methods {
            for prof in PROFILES {
                rows.push((
                    c.name,
                    method,
                    prof,
                    digest(&run(method, &profile(prof), &c)),
                ));
            }
        }
    }
    rows
}

#[test]
fn every_baseline_solve_matches_its_golden_digest() {
    let observed = observed();
    let expected = golden();
    let table: String = observed
        .iter()
        .map(|(case, method, prof, d)| row_source(case, method, prof, d) + "\n")
        .collect();
    assert_eq!(
        observed.len(),
        expected.len(),
        "golden table size; observed table:\n{table}"
    );
    for (got, want) in observed.iter().zip(&expected) {
        assert_eq!(
            (got.0, got.1, got.2),
            (want.0, want.1, want.2),
            "row order; observed table:\n{table}"
        );
        assert_eq!(
            got.3, want.3,
            "{}/{}/{} moved; observed table:\n{table}",
            got.0, got.1, got.2
        );
    }
}

/// The golden table is not vacuous: the cases reach the branches the
/// module doc names.
#[test]
fn golden_cases_reach_their_branches() {
    let cases = cases();
    let case = |name: &str| cases.iter().find(|c| c.name == name).unwrap();
    let cu = Baseline::cusparse();
    for method in METHODS {
        assert!(run(method, &cu, case("spd")).converged, "spd/{method}");
        let zero = run(method, &cu, case("zero_rhs"));
        assert!(zero.converged && zero.iterations == 0, "zero_rhs/{method}");
        // Every method runs every fixed iteration, restarts included, and
        // records one residual per iteration.
        let fixed = run(method, &cu, case("fixed_iters"));
        assert_eq!(fixed.iterations, 40, "fixed_iters/{method}");
        assert_eq!(
            fixed.residual_history.len(),
            fixed.iterations,
            "fixed_iters/{method}"
        );
        // Only the unpreconditioned methods record the error history.
        let errors = if method.starts_with('p') { 0 } else { 40 };
        assert_eq!(fixed.error_history.len(), errors, "{method}");
    }
    // CG and PCG restart on every curvature breakdown until the restart
    // policy aborts the solve as stalled.
    let stalled = |rep: &SolveReport| {
        matches!(rep.failure, Some(SolveFailure::Stalled { .. }))
            && rep.iterations == MAX_CONSECUTIVE_RESTARTS
    };
    for method in ["cg", "pcg"] {
        assert!(
            stalled(&run(method, &cu, case("negdef"))),
            "negdef/{method}"
        );
    }
    // Every rotation step is an α restart: the solution never moves until
    // the same abort.
    for method in BICGSTAB_FAMILY {
        let rot = run(method, &cu, case("rotation"));
        assert!(stalled(&rot), "rotation/{method}");
        assert!(rot.x.iter().all(|&v| v == 0.0), "{method}");
    }
}

/// Table II's "With cuSPARSE" column: `Baseline::cusparse()` CG and
/// BiCGSTAB on the 14 convergence proxies with `b = A·1`, every solve
/// converged at these iteration counts.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: 14 proxy solves take about 45 s unoptimized"
)]
fn table2_cusparse_iterations_are_pinned() {
    let (cg_names, bi_names) = mf_collection::table2_names();
    let cg_iters = [28, 58, 94, 29, 41, 33];
    let bi_iters = [19, 149, 315, 312, 11, 44, 13, 774];
    let cu = Baseline::cusparse();
    let cfg = SolverConfig::default();
    let solve = |name: &str, bicgstab: bool| {
        let a = mf_collection::named_matrix(name).unwrap().generate();
        let mut b = vec![0.0; a.nrows];
        a.matvec(&vec![1.0; a.ncols], &mut b);
        let rep = match bicgstab {
            false => cu.solve_cg(&a, &b, &cfg),
            true => cu.solve_bicgstab(&a, &b, &cfg),
        };
        (rep.iterations, rep.converged)
    };
    for (name, iters) in cg_names.into_iter().zip(cg_iters) {
        assert_eq!(solve(name, false), (iters, true), "CG {name}");
    }
    for (name, iters) in bi_names.into_iter().zip(bi_iters) {
        assert_eq!(solve(name, true), (iters, true), "BiCGSTAB {name}");
    }
}
