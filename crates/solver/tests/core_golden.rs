//! Golden outputs of every sequential core, pinned bitwise through the
//! facade: CG, pipelined CG, BiCGSTAB, PCG with ILU(0) / IC(0) /
//! block-Jacobi, pipelined PCG and PBiCGSTAB.
//!
//! Each row digests one solve: an FNV-1a hash of the solution bits, the
//! iteration count, a hash of the residual-history bits, the breakdown
//! trail and failure, and the modeled total time bits. A refactor of the
//! core loops that keeps the arithmetic order keeps every row; any change
//! to the numerics, the restart policy or the cost charging moves one.
//!
//! On a mismatch the assertion prints the whole observed table in this
//! file's source form, so an intended change can be reviewed row by row.

use mf_gpu::DeviceSpec;
use mf_solver::{AdaptiveConfig, BreakdownEvent, MilleFeuille, SolveReport, SolverConfig};
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

/// Runs one core through its facade entry. A preconditioner that fails
/// to factor yields `Err` with the error's debug form.
fn run(core: &str, solver: &MilleFeuille, a: &Csr, b: &[f64]) -> Result<SolveReport, String> {
    let e = |e: &dyn std::fmt::Debug| format!("{e:?}");
    match core {
        "cg" => Ok(solver.solve_cg(a, b)),
        "cg_pipelined" => Ok(solver.solve_cg_pipelined(a, b)),
        "bicgstab" => Ok(solver.solve_bicgstab(a, b)),
        "pcg_ilu0" => solver.solve_pcg(a, b).map_err(|x| e(&x)),
        "pcg_ic0" => solver.solve_pcg_ic0(a, b).map_err(|x| e(&x)),
        "pcg_block_jacobi" => solver.solve_pcg_block_jacobi(a, b, 16).map_err(|x| e(&x)),
        "pcg_pipelined" => solver.solve_pcg_pipelined(a, b).map_err(|x| e(&x)),
        "pbicgstab" => solver.solve_pbicgstab(a, b).map_err(|x| e(&x)),
        other => panic!("unknown core {other}"),
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
        total_us: u64,
    },
    FactorError(String),
}

fn digest(rep: Result<SolveReport, String>) -> Digest {
    match rep {
        Err(e) => Digest::FactorError(e),
        Ok(rep) => Digest::Solved {
            x: bits(&rep.x),
            iterations: rep.iterations,
            residuals: bits(&rep.residual_history),
            breakdowns: trail(&rep.breakdowns),
            failure: format!("{:?}", rep.failure),
            total_us: rep.timeline.total_us().to_bits(),
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
            total_us,
        } => format!(
            "    (\"{case}\", \"{core}\", ok({x:#018x}, {iterations}, {residuals:#018x}, \"{breakdowns}\", \"{failure}\", {total_us:#018x})),"
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
        total_us,
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
///   (BiCGSTAB converges; IC(0) fails to factor);
/// - `fixed_iters`: an exactly factorizable tridiagonal run for a fixed
///   iteration count, past convergence, into restarts that are exempt
///   from the stall abort;
/// - `adaptive`: the SPD grid with the re-tier controller armed, on the
///   cores that honour it.
fn cases() -> Vec<Case> {
    let spd = noisy_grid(20, 1.0);
    let n = spd.nrows;
    vec![
        Case {
            name: "spd",
            a: spd.clone(),
            b: rhs(n),
            cfg: base_config(),
            cores: &CORES,
        },
        Case {
            name: "negdef",
            a: noisy_grid(20, -1.0),
            b: rhs(n),
            cfg: base_config(),
            cores: &CORES,
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
            cores: &["cg", "cg_pipelined", "pcg_ilu0"],
        },
    ]
}

#[rustfmt::skip]
fn golden() -> Vec<(&'static str, &'static str, Digest)> {
    vec![
    ("spd", "cg", ok(0x9425320671f9099f, 35, 0x273d4c57dfd6e925, "", "None", 0x4082fb0f95f54a1f)),
    ("spd", "cg_pipelined", ok(0xbbe24da6b0186328, 35, 0x31eb0bdd9f865d2c, "", "None", 0x40700809fdfab269)),
    ("spd", "bicgstab", ok(0xa552c516a74e5297, 25, 0x3c763beec87b20b2, "", "None", 0x408a98b59fba1a42)),
    ("spd", "pcg_ilu0", ok(0x0076f3bdebb9fd04, 12, 0xd4258c9e228c7d57, "", "None", 0x409cd95d3a3257d6)),
    ("spd", "pcg_ic0", ok(0xff278ff14eadcc75, 12, 0x9331e629fd21f436, "", "None", 0x409cd999eaa766dc)),
    ("spd", "pcg_block_jacobi", ok(0x09d6057e119fc432, 26, 0xc2e767d7248eb8eb, "", "None", 0x40ab68fe3cbdcf17)),
    ("spd", "pcg_pipelined", ok(0xb89faee37789a571, 12, 0x1611981d950c8bdf, "", "None", 0x4092e43220f3ad08)),
    ("spd", "pbicgstab", ok(0xce1381bca41049d1, 7, 0xfc99b10b8f2ccb38, "", "None", 0x4098cd2368e391ee)),
    ("negdef", "cg", ok(0x13f631ef6a6fdd25, 8, 0x01254f26d3b0bba5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x4063d551bb1709c6)),
    ("negdef", "cg_pipelined", ok(0x13f631ef6a6fdd25, 8, 0x01254f26d3b0bba5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x404cea1586ded352)),
    ("negdef", "bicgstab", ok(0xfe13d8f607f0e197, 25, 0x3c763beec87b20b2, "", "None", 0x408a98b59fba1a42)),
    ("negdef", "pcg_ilu0", ok(0x13f631ef6a6fdd25, 8, 0xcbf29ce484222325, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x40910af93929bce2)),
    ("negdef", "pcg_ic0", err("NotSpd(0)")),
    ("negdef", "pcg_block_jacobi", ok(0x13f631ef6a6fdd25, 8, 0xcbf29ce484222325, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x40908dc828d747ce)),
    ("negdef", "pcg_pipelined", ok(0x13f631ef6a6fdd25, 8, 0x01254f26d3b0bba5, "0-6:Curvature:Restarted 7:Curvature:Aborted", "Some(Stalled { iteration: 7 })", 0x4076e58d2a83adee)),
    ("negdef", "pbicgstab", ok(0xdb40eafdc6329bd1, 7, 0xfc99b10b8f2ccb38, "", "None", 0x4098cd2368e391ee)),
    ("fixed_iters", "cg", ok(0xc050784f836c8490, 40, 0x9f7ccb463020c1e7, "24-39:Curvature:Restarted", "None", 0x40842b9b05f8eaf4)),
    ("fixed_iters", "cg_pipelined", ok(0xda31755edd3f3092, 40, 0xc9bf8933d7ea9ac9, "26:Curvature:Restarted 28-39:Curvature:Restarted", "None", 0x406a4a8794ab3ca7)),
    ("fixed_iters", "bicgstab", ok(0xec922d5ea1650470, 40, 0x0ce2a931f859fc5a, "15:Omega:Restarted 16-39:NonFinite:Restarted", "None", 0x40938d3c5da47658)),
    ("fixed_iters", "pcg_ilu0", ok(0xdf5d5d6c5189651e, 40, 0xf33b39fb2ead8f89, "11-39:Curvature:Restarted", "None", 0x40b201d2a0beb529)),
    ("fixed_iters", "pcg_ic0", ok(0xb832bec6706d3659, 40, 0xdfdc1ae070a3a671, "11-39:Curvature:Restarted", "None", 0x40b203f4d4dc3c59)),
    ("fixed_iters", "pcg_block_jacobi", ok(0x67f000b6b9308c2d, 40, 0xe8fe4aa77da982b7, "", "None", 0x40b2fde9ecfc0b80)),
    ("fixed_iters", "pcg_pipelined", ok(0xbbd93ebfffe6ca0c, 40, 0x47276fd29a528248, "2:Curvature:Restarted 7:Curvature:Restarted 12:Curvature:Restarted 17:Curvature:Restarted 27:Curvature:Restarted 32:Curvature:Restarted 37:Curvature:Restarted", "None", 0x40a3a7a5417d6a51)),
    ("fixed_iters", "pbicgstab", ok(0xdf5d5d6c5189651e, 40, 0x87a0b0c143295756, "5-14:Omega:Restarted 15-39:Rho:Restarted", "None", 0x40be74d2a0beb529)),
    ("adaptive", "cg", ok(0x8eac0340b8a28d1a, 37, 0x0753d8ed0d067e59, "", "None", 0x4084e9329da3fcdb)),
    ("adaptive", "cg_pipelined", ok(0xe2cf373b0120fa58, 37, 0xc506e77d5a4ee660, "", "None", 0x4071edbd7ea69e30)),
    ("adaptive", "pcg_ilu0", ok(0xe26b36a9f7ffacc7, 12, 0xe9c96a45a45064da, "", "None", 0x409f39a4694d1a1a)),
    ]
}

#[test]
fn every_sequential_core_matches_its_golden_digest() {
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

/// The golden table is not vacuous: it covers a converging solve, a
/// `Stalled` abort and fixed-iteration restarts, and the armed controller
/// fires on ILU(0)-PCG.
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
    for core in CORES {
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
    let adaptive = by_core("adaptive", "pcg_ilu0").unwrap();
    assert!(!adaptive.retier_trail.is_empty());
}
