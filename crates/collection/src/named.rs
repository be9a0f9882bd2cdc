//! Named proxies for the SuiteSparse matrices the paper references.
//!
//! Each proxy matches the real matrix's documented dimensions (scaled down
//! when the original exceeds ~100k rows — noted per entry), its structural
//! family (mass / stencil / FEM band / circuit / CFD / random) and its
//! *value character*, which drives the precision classification that
//! Figs. 1 and 11 visualize. Convergence-sensitive proxies (Table II,
//! Figs. 4/12) use shifted stencils tuned to converge in the same regime
//! (tens to ~150 CG iterations at ε = 1e-10) as the originals.

use crate::generators::*;
use crate::values::ValueClass;
use mf_sparse::Csr;

/// Which solver the paper benchmarks this matrix with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Symmetric positive definite — CG / PCG.
    Cg,
    /// Nonsymmetric or indefinite — BiCGSTAB / PBiCGSTAB.
    Bicgstab,
}

/// A named proxy matrix.
pub struct NamedMatrix {
    /// SuiteSparse name of the matrix this stands in for.
    pub name: &'static str,
    /// Solver class (decides which suite it appears in).
    pub kind: SolverKind,
    /// What the proxy models and how it was generated.
    pub description: &'static str,
    generate_fn: fn() -> Csr,
}

impl NamedMatrix {
    /// Generates the proxy (deterministic).
    pub fn generate(&self) -> Csr {
        (self.generate_fn)()
    }
}

macro_rules! named {
    ($name:literal, $kind:ident, $desc:literal, $gen:expr) => {
        NamedMatrix {
            name: $name,
            kind: SolverKind::$kind,
            description: $desc,
            generate_fn: $gen,
        }
    };
}

/// The full registry of named proxies.
pub fn named_matrices() -> &'static [NamedMatrix] {
    static REGISTRY: &[NamedMatrix] = &[
        // ---------------- CG (SPD) ----------------
        named!(
            "bcsstm22",
            Cg,
            "n=138 diagonal mass matrix; converges instantly, launch overhead dominates (paper's best CG speedup)",
            || mass_matrix(138, ValueClass::Real, 0x22)
        ),
        named!(
            "mesh3e1",
            Cg,
            "n=289 structural mesh; shifted 17x17 Poisson stencil tuned to ~40 CG iterations (paper: 36)",
            || shifted_poisson2d(17, 17, 0.75)
        ),
        named!(
            "Muu",
            Cg,
            "n=7102 FEM mass matrix (real values, narrow band); early partial convergence (Fig. 4)",
            || banded_spd(7102, 3, ValueClass::Real, 0x4d)
        ),
        named!(
            "minsurfo",
            Cg,
            "n=40806 minimal-surface optimization; shifted 202x202 Poisson, ~100 CG iterations (paper: 109)",
            || shifted_poisson2d(202, 202, 0.125)
        ),
        named!(
            "qa8fm",
            Cg,
            "n=66127 FEM acoustics mass matrix, ~1.2M nnz, dyadic values (FP16-classifiable)",
            || banded_spd(66_127, 12, ValueClass::Dyadic, 0x8f)
        ),
        named!(
            "thermomech_TC",
            Cg,
            "n=102158 thermomechanical FEM, random sparse SPD with real values",
            || random_spd(102_158, 5, ValueClass::Real, 0x7c)
        ),
        named!(
            "m3plates",
            Cg,
            "n=11072 acoustics plates; 25% slow unshifted-Laplacian chains + 75% identity blocks - many solution elements converge (and bypass) from early on (Fig. 4)",
            || decoupled_blocks_with(173, 64, 0.25, 2.0, 0x31)
        ),
        named!(
            "bcsstm37",
            Cg,
            "n=25503 structural mass with coupling; 'pretty normal' convergence profile (Fig. 4)",
            || banded_spd(25_503, 2, ValueClass::Real, 0x37)
        ),
        named!(
            "LFAT5000",
            Cg,
            "n=19994 linear FEM test matrix, narrow dyadic band (recursive-SpTRSV-friendly, Fig. 10)",
            || banded_spd(19_994, 1, ValueClass::Dyadic, 0x5000)
        ),
        named!(
            "ship_001",
            Cg,
            "n=34920 ship structure, wide band ~1.5M nnz",
            || banded_spd(34_920, 21, ValueClass::Real, 0x001)
        ),
        named!(
            "thermal",
            Cg,
            "n=3375 3-D thermal cube (15^3, 7-point stencil, integer values); small - single-kernel gains dominate (Fig. 11)",
            || poisson3d(15, 15, 15)
        ),
        named!(
            "shallow_water1",
            Cg,
            "n=81796 climate stencil (286x286), dyadic values, well conditioned - converges in ~15 iterations so a 100-iteration run bypasses nearly everything (Fig. 11 best case)",
            || shifted_poisson2d(286, 286, 4.0)
        ),
        named!(
            "t2dal_bci",
            Cg,
            "n=4257 thermal FEM with single-precision source data: FP32/FP64 mix (Fig. 11 low-gain case)",
            || banded_spd(4_257, 3, ValueClass::SingleExact, 0xbc1)
        ),
        named!(
            "apache1",
            Cg,
            "n=80800 structural 3-D stencil (scaled), dyadic values",
            || shifted_poisson3d(44, 43, 43, 0.25)
        ),
        named!(
            "crystm02",
            Cg,
            "n=13965 crystal FEM mass matrix, real values, narrow band",
            || banded_spd(13_965, 6, ValueClass::Real, 0xc2)
        ),
        // ---------------- BiCGSTAB (nonsymmetric) ----------------
        named!(
            "Trec4",
            Bicgstab,
            "n=6 tiny recursion test matrix; pure launch-overhead benchmark (paper's best BiCGSTAB speedup group)",
            || random_nonsym(6, 2, ValueClass::Integer, 0x74)
        ),
        named!(
            "mhdb416",
            Bicgstab,
            "n=416 magnetohydrodynamics, banded nonsymmetric, real values",
            || random_nonsym(416, 6, ValueClass::Real, 0x416)
        ),
        named!(
            "b1_ss",
            Bicgstab,
            "n=7 chemical master equation fragment",
            || random_nonsym(7, 2, ValueClass::Real, 0xb1)
        ),
        named!(
            "jgl011",
            Bicgstab,
            "n=11 combinatorial integer matrix",
            || random_nonsym(11, 4, ValueClass::Integer, 0x11)
        ),
        named!(
            "rgg010",
            Bicgstab,
            "n=10 random geometric graph matrix",
            || random_nonsym(10, 3, ValueClass::Integer, 0x10)
        ),
        named!(
            "arc130",
            Bicgstab,
            "n=130 laser problem with ~10 decades of value range (converges in ~10 iterations)",
            || random_nonsym(130, 6, ValueClass::WideModerate, 0x130)
        ),
        named!(
            "fs_541_1",
            Bicgstab,
            "n=541 chemical kinetics, stiff wide-range values",
            || random_nonsym(541, 8, ValueClass::WideModerate, 0x541)
        ),
        named!(
            "poli",
            Bicgstab,
            "n=4008 economic/circuit matrix: integer blocks + sparse couplings",
            || circuit_like_with(501, 8, 2_000, 0.04, ValueClass::WideModerate, 0x901)
        ),
        named!(
            "Hamrle1",
            Bicgstab,
            "n=32 circuit simulation matrix",
            || random_nonsym(32, 4, ValueClass::Real, 0x41)
        ),
        named!(
            "pores_1",
            Bicgstab,
            "n=30 reservoir simulation, wide-range values",
            || random_nonsym(30, 6, ValueClass::WideModerate, 0x9e5)
        ),
        named!(
            "cz308",
            Bicgstab,
            "n=308 chemical vapor deposition, banded",
            || banded_nonsym(308, 3, ValueClass::Real, 0x308)
        ),
        named!(
            "cz40948",
            Bicgstab,
            "n=40948 chemical vapor deposition (large variant); banded - its ILU factors serialize, the recursive-SpTRSV showcase of Fig. 10",
            || banded_nonsym(40_948, 3, ValueClass::Real, 0x9f48)
        ),
        named!(
            "CAG_mat72",
            Bicgstab,
            "n=72 combinatorial CAG matrix, integer values",
            || random_nonsym(72, 6, ValueClass::Integer, 0x72)
        ),
        named!(
            "majorbasis",
            Bicgstab,
            "n=160000 optimization basis, 400x400 convection-diffusion stencil with dyadic coefficients",
            || convdiff2d(400, 400, 0.5, 0.25)
        ),
        named!(
            "garon2",
            Bicgstab,
            "n=13572 CFD (Navier-Stokes); dyadic upwind coefficients - mostly FP16/FP8 classifiable (Fig. 1 left)",
            || convdiff2d(116, 117, 0.5, 0.25)
        ),
        named!(
            "nmos3",
            Bicgstab,
            "n=18592 semiconductor device; half FP64 blocks, half FP8 blocks (Fig. 1 middle)",
            || circuit_like(1_162, 16, 9_000, 0.5, 0x303)
        ),
        named!(
            "ASIC_320k",
            Bicgstab,
            "circuit with FP8 device blocks + FP64 wide-range hub connections (Fig. 1 right); scaled from n=321671 to n=64000",
            || circuit_like(8_000, 8, 40_000, 0.04, 0x320)
        ),
        named!(
            "wang1",
            Bicgstab,
            "n=2916 semiconductor device (54x54), dyadic convection - high low-precision ratio but small (Fig. 11)",
            || convdiff2d(54, 54, 0.5, 0.25)
        ),
        named!(
            "rajat24",
            Bicgstab,
            "circuit matrix with high bypass rate (Fig. 11 best case); scaled from n=358172 to n=32000",
            || circuit_like(4_000, 8, 20_000, 0.03, 0x24)
        ),
        named!(
            "torso2",
            Bicgstab,
            "n=115940 bioengineering FD model (341x340 stencil), dyadic coefficients - mostly low precision (Fig. 11 'torso2')",
            || convdiff2d(341, 340, 0.25, 0.5)
        ),
        named!(
            "poisson3Da",
            Bicgstab,
            "n=13824 FEMLAB 3-D Poisson (nonsymmetric assembly, 24^3); Fig. 12 convergence case",
            || convdiff3d(24, 24, 24, 0.5)
        ),
        named!(
            "Chebyshev4",
            Bicgstab,
            "spectral discretization, dense-ish rows; scaled from n=68121/5.3M nnz to n=20000/~800k nnz",
            || random_nonsym(20_000, 40, ValueClass::Real, 0xceb4)
        ),
        named!(
            "epb1",
            Bicgstab,
            "n=14734 heat exchanger model, real values",
            || random_nonsym(14_734, 6, ValueClass::Real, 0xeb1)
        ),
    ];
    REGISTRY
}

/// Looks up a proxy by name.
pub fn named_matrix(name: &str) -> Option<&'static NamedMatrix> {
    named_matrices().iter().find(|m| m.name == name)
}

/// Shifted 2-D Poisson: `(4 + shift)` diagonal — tunes the condition number
/// (and thus the CG iteration count) while keeping dyadic values.
pub fn shifted_poisson2d(nx: usize, ny: usize, shift: f64) -> Csr {
    let mut a = poisson2d(nx, ny);
    for r in 0..a.nrows {
        for k in a.rowptr[r]..a.rowptr[r + 1] {
            if a.colidx[k] == r {
                a.vals[k] += shift;
            }
        }
    }
    a
}

/// Shifted 3-D Poisson.
pub fn shifted_poisson3d(nx: usize, ny: usize, nz: usize, shift: f64) -> Csr {
    let mut a = poisson3d(nx, ny, nz);
    for r in 0..a.nrows {
        for k in a.rowptr[r]..a.rowptr[r + 1] {
            if a.colidx[k] == r {
                a.vals[k] += shift;
            }
        }
    }
    a
}

/// 3-D convection–diffusion 7-point stencil (nonsymmetric).
pub fn convdiff3d(nx: usize, ny: usize, nz: usize, conv: f64) -> Csr {
    let n = nx * ny * nz;
    let mut a = mf_sparse::Coo::with_capacity(n, n, 7 * n);
    let idx = |i: usize, j: usize, k: usize| (i * ny + j) * nz + k;
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let r = idx(i, j, k);
                a.push(r, r, 6.0 + conv);
                if i > 0 {
                    a.push(r, idx(i - 1, j, k), -1.0 - conv);
                }
                if i + 1 < nx {
                    a.push(r, idx(i + 1, j, k), -1.0);
                }
                if j > 0 {
                    a.push(r, idx(i, j - 1, k), -1.0);
                }
                if j + 1 < ny {
                    a.push(r, idx(i, j + 1, k), -1.0);
                }
                if k > 0 {
                    a.push(r, idx(i, j, k - 1), -1.0);
                }
                if k + 1 < nz {
                    a.push(r, idx(i, j, k + 1), -1.0);
                }
            }
        }
    }
    a.to_csr()
}

/// The 24 representative matrices of Fig. 11 (precision distribution and
/// mixed-precision gains).
pub fn fig11_names() -> [&'static str; 24] {
    [
        "shallow_water1",
        "rajat24",
        "torso2",
        "garon2",
        "wang1",
        "thermal",
        "t2dal_bci",
        "nmos3",
        "mesh3e1",
        "Muu",
        "minsurfo",
        "qa8fm",
        "thermomech_TC",
        "m3plates",
        "bcsstm22",
        "LFAT5000",
        "mhdb416",
        "arc130",
        "poli",
        "pores_1",
        "cz308",
        "CAG_mat72",
        "majorbasis",
        "poisson3Da",
    ]
}

/// The 14 convergence matrices of Table II (6 CG + 8 BiCGSTAB).
pub fn table2_names() -> ([&'static str; 6], [&'static str; 8]) {
    (
        [
            "mesh3e1",
            "Muu",
            "minsurfo",
            "qa8fm",
            "thermomech_TC",
            "m3plates",
        ],
        [
            "CAG_mat72",
            "arc130",
            "fs_541_1",
            "poli",
            "Hamrle1",
            "pores_1",
            "cz308",
            "majorbasis",
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::MatrixStats;

    #[test]
    fn registry_has_no_duplicate_names() {
        let ms = named_matrices();
        for (i, a) in ms.iter().enumerate() {
            for b in &ms[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
        assert!(ms.len() >= 35, "registry holds all referenced matrices");
    }

    #[test]
    fn lookup_works() {
        assert!(named_matrix("garon2").is_some());
        assert!(named_matrix("ASIC_320k").is_some());
        assert!(named_matrix("nope").is_none());
    }

    #[test]
    fn cg_proxies_are_spd() {
        for m in named_matrices().iter().filter(|m| m.kind == SolverKind::Cg) {
            // Skip the big ones in tests; structure is identical per family.
            let a = m.generate();
            if a.nrows > 20_000 {
                continue;
            }
            let s = MatrixStats::compute(&a);
            assert!(s.symmetric, "{} must be symmetric", m.name);
            assert!(s.positive_diagonal, "{}", m.name);
            assert!(
                s.diag_dominant_fraction > 0.9,
                "{}: {}",
                m.name,
                s.diag_dominant_fraction
            );
        }
    }

    #[test]
    fn bicgstab_proxies_are_nonsymmetric() {
        for name in ["garon2", "arc130", "poli", "mhdb416", "wang1"] {
            let a = named_matrix(name).unwrap().generate();
            assert!(
                !MatrixStats::compute(&a).symmetric,
                "{name} must be nonsymmetric"
            );
        }
    }

    #[test]
    fn fig1_proxies_have_documented_precision_character() {
        use mf_precision::{classification_histogram, ClassifyOptions};
        let opts = ClassifyOptions::default();
        // garon2: mostly FP16/FP8.
        let g = named_matrix("garon2").unwrap().generate();
        let h = classification_histogram(&g.vals, &opts);
        assert!(
            h[2] + h[3] > g.nnz() * 8 / 10,
            "garon2 should be low-precision-heavy: {h:?}"
        );
        // ASIC_320k: FP8 blocks + a real FP64 share.
        let a = named_matrix("ASIC_320k").unwrap().generate();
        let h = classification_histogram(&a.vals, &opts);
        assert!(h[3] > 0 && h[0] > 0, "ASIC mixes FP8 and FP64: {h:?}");
        assert!(h[0] > a.nnz() / 20, "ASIC has a real FP64 share: {h:?}");
    }

    #[test]
    fn named_sizes_are_plausible() {
        let cases = [
            ("bcsstm22", 138),
            ("mesh3e1", 289),
            ("Muu", 7102),
            ("pores_1", 30),
            ("arc130", 130),
            ("jgl011", 11),
        ];
        for (name, n) in cases {
            let a = named_matrix(name).unwrap().generate();
            assert_eq!(a.nrows, n, "{name}");
        }
    }

    #[test]
    fn fig11_and_table2_names_resolve() {
        for name in fig11_names() {
            assert!(named_matrix(name).is_some(), "{name}");
        }
        let (cg, bi) = table2_names();
        for name in cg.iter().chain(bi.iter()) {
            let m = named_matrix(name).unwrap();
            let expect = if cg.contains(name) {
                SolverKind::Cg
            } else {
                SolverKind::Bicgstab
            };
            assert_eq!(m.kind, expect, "{name}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = named_matrix("poli").unwrap().generate();
        let b = named_matrix("poli").unwrap().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn shifted_poisson_keeps_symmetry() {
        let a = shifted_poisson2d(10, 10, 0.125);
        let s = MatrixStats::compute(&a);
        assert!(s.likely_spd());
        assert_eq!(a.get(0, 0), 4.125);
    }

    #[test]
    fn convdiff3d_nonsym() {
        let a = convdiff3d(6, 6, 6, 0.5);
        assert_eq!(a.nrows, 216);
        assert!(!MatrixStats::compute(&a).symmetric);
    }
}
