//! The four seeded workloads and the closed loop that drives them.
//!
//! The run seed draws every right-hand side and the request order. The
//! operators come from fixed generator seeds: drawing them from the run
//! seed moved `serve_batch` between 49 and 65 iterations per solve, and
//! that matrix lottery, not the solver, dominated run-to-run spread. The
//! library only ever receives the generated `Csr` and `Vec<f64>` inputs.
//! Each workload is a closed loop: one client thread, no think time, and
//! every call waits for its answer before the next is made. Every answer
//! is verified against the CSR matrix.

use std::hint::black_box;
use std::ops::Range;
use std::time::{Duration, Instant};

use mf_collection::{banded_spd, poisson2d, poisson3d, random_spd, ValueClass};
use mf_gpu::DeviceSpec;
use mf_kernels::{FactorError, Ilu0};
use mf_serve::{CacheStats, ServeConfig, SolveService};
use mf_solver::config::AUTO_PAR_NNZ;
use mf_solver::solver::Preprocessed;
use mf_solver::{MilleFeuille, SolveReport, SolverConfig, SolverWorkspace};
use mf_sparse::Csr;

use crate::trace::Tracer;

/// A solve passes verification when its true relative residual, recomputed
/// against the CSR matrix, is within this factor of the tolerance.
pub const VERIFY_FACTOR: f64 = 10.0;

/// Right-hand sides per `solve_batch` call on `serve_batch`.
pub const BATCH_K: usize = 8;

/// Size of the `serve_mixed` operator pool (24 per family).
const POOL: usize = 96;

/// Operators of `serve_mixed` the layer probes visit: the eight most
/// requested, two of each family.
const MIXED_PROBE_OPS: usize = 8;

/// Timed units a run makes even when the time budget is already spent.
const MIN_COLD_ROUNDS: usize = 3;
const MIN_SERVE_CALLS: usize = 100;

/// Cold preparation passes behind `setup_s` on the serve workloads: at
/// least this many, and more until the passes cover the time below.
const MIN_SETUP_PASSES: usize = 5;
const MAX_SETUP_PASSES: usize = 200;
const SETUP_TIME: Duration = Duration::from_millis(500);

/// Generator seed of every operator (see the module docs).
const OPERATOR_SEED: u64 = 0x6D66_6265_6E63_6801;

const STREAM_OPS: u64 = 1;
const STREAM_RHS: u64 = 2;
const STREAM_REQUESTS: u64 = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    StencilCgCold,
    IrregularPcgCold,
    ServeMixed,
    ServeBatch,
}

pub const ALL: [Kind; 4] = [
    Kind::StencilCgCold,
    Kind::IrregularPcgCold,
    Kind::ServeMixed,
    Kind::ServeBatch,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::StencilCgCold => "stencil_cg_cold",
            Kind::IrregularPcgCold => "irregular_pcg_cold",
            Kind::ServeMixed => "serve_mixed",
            Kind::ServeBatch => "serve_batch",
        }
    }

    /// Why the workload exists: which layers it stresses and which it skips.
    pub fn why(self) -> &'static str {
        match self {
            Kind::StencilCgCold => {
                "one-shot CG above the parallel threshold: 2-thread SpMV and ticketed tiling on FP8 \
                 stencil tiles with partial-convergence bypass; skips ILU, the cache and SpMM"
            }
            Kind::IrregularPcgCold => {
                "set-up heavy PCG: fused ticketed tiling + ILU(0) and SpTRSV-bound iterations on \
                 irregular FP64 tiles; skips the cache, bypass and SpMM"
            }
            Kind::ServeMixed => {
                "SolveService on 96 small operators, skewed requests: cache hits beside \
                 build-and-evict misses, per-request fixed costs and SpTRSV, serial path only"
            }
            Kind::ServeBatch => {
                "warm solve_batch with k=8 on one FP32/FP16 operator: the only user of SpMM and \
                 block CG; skips ILU, host parallelism and bypass"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_cold(self) -> bool {
        matches!(self, Kind::StencilCgCold | Kind::IrregularPcgCold)
    }

    /// Whether the workload's solves run ILU(0)-preconditioned CG.
    pub fn preconditioned(self) -> bool {
        matches!(self, Kind::IrregularPcgCold | Kind::ServeMixed)
    }
}

/// SplitMix64: the benchmark's only source of randomness.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A right-hand side with entries uniform in [-0.5, 0.5).
    pub fn rhs(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.unit() - 0.5).collect()
    }
}

/// One workload's generated inputs.
pub struct Inputs {
    pub kind: Kind,
    pub ops: Vec<Csr>,
    /// One right-hand side per operator: the system each cold round
    /// solves, and the system every layer probe uses.
    pub rhs: Vec<Vec<f64>>,
    pub seed: u64,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let op_seed =
            |i: usize| SplitMix::new(OPERATOR_SEED, STREAM_OPS + ((i as u64) << 8)).next_u64();
        // The cold operators sit above AUTO_PAR_NNZ (so the 2-thread SpMV and
        // the ticketed build run) but keep a round near 0.25 s: a run then
        // holds dozens of rounds, and their median rides out the stalls of
        // a shared host, which multi-second rounds average in.
        let ops: Vec<Csr> = match kind {
            Kind::StencilCgCold => vec![poisson2d(160, 160), poisson3d(24, 24, 24)],
            Kind::IrregularPcgCold => vec![
                random_spd(12_000, 8, ValueClass::WideModerate, op_seed(0)),
                banded_spd(24_000, 4, ValueClass::Real, op_seed(1)),
            ],
            // Operator i is member i / 4 of family i % 4; sizes grow with the
            // member index, so the most requested (lowest) indices are the
            // smallest of each family.
            Kind::ServeMixed => (0..POOL)
                .map(|i| {
                    let m = i / 4;
                    match i % 4 {
                        0 => poisson2d(32 + 2 * m, 32 + 2 * m),
                        1 => banded_spd(2_000 + 100 * m, 6, ValueClass::Real, op_seed(i)),
                        2 => random_spd(1_500 + 100 * m, 8, ValueClass::WideModerate, op_seed(i)),
                        _ => banded_spd(2_000 + 100 * m, 4, ValueClass::Dyadic, op_seed(i)),
                    }
                })
                .collect(),
            Kind::ServeBatch => vec![banded_spd(2_000, 3, ValueClass::Dyadic, op_seed(0))],
        };
        assert!(
            ops.iter()
                .all(|a| (a.nnz() >= AUTO_PAR_NNZ) == kind.is_cold()),
            "cold operators take the parallel path, serve operators the serial one"
        );
        let mut rng = SplitMix::new(seed, STREAM_RHS);
        let rhs = ops.iter().map(|a| rng.rhs(a.nrows)).collect();
        Inputs {
            kind,
            ops,
            rhs,
            seed,
        }
    }

    /// The default service, preconditioned on `serve_mixed`.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            precondition: self.kind.preconditioned(),
            ..ServeConfig::default()
        }
    }

    /// The facade whose single-solve path the workload exercises: solver
    /// defaults, except on `serve_batch`, where it is the configuration
    /// `SolveService` solves batches and detached columns with (partial
    /// convergence off).
    pub fn facade(&self) -> MilleFeuille {
        let config = SolverConfig {
            partial_convergence: self.kind != Kind::ServeBatch,
            ..SolverConfig::default()
        };
        MilleFeuille::new(DeviceSpec::a100(), config)
    }

    /// Units per part of the quiet statistics (`stats::quiet_median`): an
    /// eighth of the run, or the whole run on `serve_mixed`. There a
    /// part's median moves with its share of cache misses, so the best
    /// part picks the luckiest request order rather than the quietest
    /// host: over the same ten seeds, parts of one request epoch spread
    /// 10% against 5.7% for the whole-run median, while eighths cut the
    /// cold workloads' spread from 13–16% to 6–7%.
    pub fn quiet_part(&self, units: usize) -> usize {
        match self.kind {
            Kind::ServeMixed => units.max(1),
            _ => (units / QUIET_PARTS).max(1),
        }
    }

    /// Operators the layer probes visit.
    pub fn probe_ops(&self) -> Range<usize> {
        match self.kind {
            Kind::ServeMixed => 0..MIXED_PROBE_OPS,
            _ => 0..self.ops.len(),
        }
    }

    fn tol(&self) -> f64 {
        SolverConfig::default().tolerance
    }
}

/// A cold path's prepared state: the tiled matrix, plus the ILU(0)
/// factors on the preconditioned workloads.
pub struct Cold {
    pub pre: Preprocessed,
    pub ilu: Option<Result<Ilu0, FactorError>>,
}

impl Cold {
    /// The facade's preprocessing exactly as the workload calls it.
    pub fn prepare(mf: &MilleFeuille, a: &Csr, pcg: bool) -> Cold {
        if pcg {
            let (pre, factors) = mf.preprocess_with_ilu0(a);
            Cold {
                pre,
                ilu: Some(factors.map(|(ilu, _shifts)| ilu)),
            }
        } else {
            Cold {
                pre: mf.preprocess(a),
                ilu: None,
            }
        }
    }

    /// Solves on the prepared state; `None` when the factorization failed.
    pub fn solve(&self, mf: &MilleFeuille, a: &Csr, b: &[f64]) -> Option<SolveReport> {
        match &self.ilu {
            Some(Ok(ilu)) => Some(mf.solve_pcg_preprocessed(a, &self.pre, b, ilu)),
            Some(Err(_)) => None,
            None => Some(mf.solve_cg_preprocessed(a, &self.pre, b, &mut SolverWorkspace::new())),
        }
    }

    /// Resident bytes: tiles plus factors, as the serve cache counts them.
    pub fn bytes(&self) -> usize {
        let factors = match &self.ilu {
            Some(Ok(f)) => f.l.memory_bytes() + f.u.memory_bytes(),
            _ => 0,
        };
        self.pre.tiled.memory_bytes().total() + factors
    }
}

/// `‖b − A·x‖₂ / ‖b‖₂` against the CSR matrix.
pub fn true_relres(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    let mut ax = vec![0.0; a.nrows];
    a.matvec(x, &mut ax);
    let (mut rr, mut bb) = (0.0, 0.0);
    for (bi, axi) in b.iter().zip(&ax) {
        rr += (bi - axi) * (bi - axi);
        bb += bi * bi;
    }
    (rr / bb.max(f64::MIN_POSITIVE)).sqrt()
}

/// The satellite verification rule: converged, no `SolveFailure`, and the
/// recomputed true residual within [`VERIFY_FACTOR`] × tolerance.
pub fn solve_ok(rep: &SolveReport, a: &Csr, b: &[f64], tol: f64) -> bool {
    rep.converged && rep.failure.is_none() && rep.true_relres(a, b) <= VERIFY_FACTOR * tol
}

/// When a loop stops: after a deadline (but never before a minimum number
/// of timed units), or after an exact unit count.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    Until(Instant),
    Units(usize),
}

impl Stop {
    fn reached(self, units: usize, min_units: usize) -> bool {
        match self {
            Stop::Until(t) => units >= min_units && Instant::now() >= t,
            Stop::Units(n) => units >= n,
        }
    }
}

/// What one pass of a workload's loop observed.
#[derive(Default)]
pub struct LoopStats {
    /// Timed units: rounds on the cold workloads, calls on the serve ones.
    pub units: usize,
    /// When each timed unit ended, in seconds since the loop started.
    pub unit_end_s: Vec<f64>,
    /// Per request (a cold round, a serve call), call to return of the
    /// library calls.
    pub latency_ms: Vec<f64>,
    /// Per request on the serve workloads: was it a cache hit?
    pub hit: Vec<bool>,
    /// Per cold round: preprocessing wall, solve wall, whole round wall.
    pub setup_s: Vec<f64>,
    pub solve_s: Vec<f64>,
    pub round_s: Vec<f64>,
    /// Right-hand sides answered in the timed units.
    pub rhs_done: usize,
    /// Right-hand sides verified (warm-up included), and how many failed.
    pub attempted: usize,
    pub failed: usize,
    /// Cold workloads: resident bytes of one round's prepared state.
    pub prepared_bytes: usize,
    pub cache: CacheStats,
    /// Right-hand sides answered inside a lockstep batch.
    pub batched: usize,
}

impl LoopStats {
    fn verdict(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }
}

/// Runs the workload's loop until `stop`, recording spans into `tr`.
pub fn run(w: &Inputs, stop: Stop, tr: &mut Tracer) -> LoopStats {
    match w.kind {
        Kind::StencilCgCold | Kind::IrregularPcgCold => run_cold(w, stop, tr),
        Kind::ServeMixed => run_serve_mixed(w, stop, tr),
        Kind::ServeBatch => run_serve_batch(w, stop, tr),
    }
}

fn run_cold(w: &Inputs, stop: Stop, tr: &mut Tracer) -> LoopStats {
    let mf = w.facade();
    let mut st = LoopStats::default();
    // One discarded warm-up round: verified, not timed.
    let mut discard = LoopStats::default();
    cold_round(w, &mf, 0, tr, &mut discard);
    st.attempted = discard.attempted;
    st.failed = discard.failed;
    let t0 = Instant::now();
    while !stop.reached(st.units, MIN_COLD_ROUNDS) {
        st.units += 1;
        cold_round(w, &mf, st.units, tr, &mut st);
        st.unit_end_s.push(t0.elapsed().as_secs_f64());
    }
    st
}

/// One round: every operator preprocessed, solved and verified.
fn cold_round(w: &Inputs, mf: &MilleFeuille, round: usize, tr: &mut Tracer, st: &mut LoopStats) {
    let pcg = w.kind.preconditioned();
    let (prep_name, solve_name) = if pcg {
        (
            "MilleFeuille::preprocess_with_ilu0",
            "MilleFeuille::solve_pcg_preprocessed",
        )
    } else {
        (
            "MilleFeuille::preprocess",
            "MilleFeuille::solve_cg_preprocessed",
        )
    };
    let round_span = tr.begin("round", round as u64);
    let start = Instant::now();
    let (mut setup, mut solve, mut bytes) = (0.0, 0.0, 0);
    for (k, (a, b)) in w.ops.iter().zip(&w.rhs).enumerate() {
        let req = (round * w.ops.len() + k) as u64;
        let req_span = tr.begin("request", req);
        let t0 = Instant::now();
        let s = tr.begin(prep_name, req);
        let cold = Cold::prepare(mf, a, pcg);
        tr.end(s);
        let t1 = Instant::now();
        let s = tr.begin(solve_name, req);
        let rep = cold.solve(mf, a, b);
        tr.end(s);
        let t2 = Instant::now();
        let s = tr.begin("verify", req);
        let ok = rep.is_some_and(|r| solve_ok(&r, a, b, w.tol()));
        tr.end(s);
        tr.end(req_span);
        st.verdict(ok);
        setup += (t1 - t0).as_secs_f64();
        solve += (t2 - t1).as_secs_f64();
        bytes += cold.bytes();
    }
    st.round_s.push(start.elapsed().as_secs_f64());
    tr.end(round_span);
    // A cold request is the whole round: each operator's one-shot calls.
    st.latency_ms.push((setup + solve) * 1e3);
    st.setup_s.push(setup);
    st.solve_s.push(solve);
    st.rhs_done += w.ops.len();
    st.prepared_bytes = bytes;
}

fn run_serve_mixed(w: &Inputs, stop: Stop, tr: &mut Tracer) -> LoopStats {
    let svc = SolveService::new(w.serve_config());
    let mut requests = Requests::new(w.ops.len(), w.seed);
    let mut st = LoopStats::default();
    let t0 = Instant::now();
    while !stop.reached(st.units, MIN_SERVE_CALLS) {
        let call = st.units as u64;
        let a = &w.ops[requests.next_op()];
        let b = requests.rng.rhs(a.nrows);
        let req_span = tr.begin("request", call);
        let s = tr.begin("SolveService::solve", call);
        let start = Instant::now();
        let out = svc.solve(a, &b);
        let latency = start.elapsed();
        tr.end(s);
        let s = tr.begin("verify", call);
        let ok = solve_ok(&out.report, a, &b, w.tol());
        tr.end(s);
        tr.end(req_span);
        st.verdict(ok);
        st.latency_ms.push(latency.as_secs_f64() * 1e3);
        st.hit.push(out.cache_hit);
        st.rhs_done += 1;
        st.units += 1;
        st.unit_end_s.push(t0.elapsed().as_secs_f64());
    }
    st.cache = svc.cache_stats();
    st
}

fn run_serve_batch(w: &Inputs, stop: Stop, tr: &mut Tracer) -> LoopStats {
    let svc = SolveService::new(w.serve_config());
    let a = &w.ops[0];
    // The operator is warm before the loop: every call is a cache hit.
    black_box(svc.prepare(a));
    let before = svc.cache_stats();
    let mut rng = SplitMix::new(w.seed, STREAM_REQUESTS);
    let mut st = LoopStats::default();
    let t0 = Instant::now();
    while !stop.reached(st.units, MIN_SERVE_CALLS) {
        let call = st.units as u64;
        let rhss: Vec<Vec<f64>> = (0..BATCH_K).map(|_| rng.rhs(a.nrows)).collect();
        let req_span = tr.begin("request", call);
        let s = tr.begin("SolveService::solve_batch", call);
        let start = Instant::now();
        let out = svc.solve_batch(a, &rhss);
        let latency = start.elapsed();
        tr.end(s);
        let s = tr.begin("verify", call);
        for (o, b) in out.iter().zip(&rhss) {
            let ok = o.converged && true_relres(a, &o.x, b) <= VERIFY_FACTOR * w.tol();
            st.verdict(ok);
            st.batched += usize::from(o.batched);
        }
        // A missing answer is a failed right-hand side too.
        for _ in out.len()..rhss.len() {
            st.verdict(false);
        }
        tr.end(s);
        tr.end(req_span);
        st.latency_ms.push(latency.as_secs_f64() * 1e3);
        st.hit.push(out.first().is_some_and(|o| o.cache_hit));
        st.rhs_done += BATCH_K;
        st.units += 1;
        st.unit_end_s.push(t0.elapsed().as_secs_f64());
    }
    let after = svc.cache_stats();
    st.cache = CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        rejected: after.rejected - before.rejected,
        builds: after.builds - before.builds,
    };
    st
}

/// Calls per `serve_mixed` request epoch.
const EPOCH: usize = 480;

/// Parts a run is cut into by the quiet statistics.
const QUIET_PARTS: usize = 8;

/// The `serve_mixed` request order. Popularity is u³-skewed: operator `i`
/// has share `((i+1)/pool)^(1/3) − (i/pool)^(1/3)`, so operator 0 is the
/// most requested. Each epoch of [`EPOCH`] calls holds every operator
/// exactly in proportion to its share, shuffled by the run seed; drawing
/// each call independently let the median fall between operator sizes
/// differently from seed to seed.
struct Requests {
    rng: SplitMix,
    epoch: Vec<usize>,
    order: Vec<usize>,
}

impl Requests {
    fn new(pool: usize, seed: u64) -> Requests {
        Requests {
            rng: SplitMix::new(seed, STREAM_REQUESTS),
            epoch: epoch_mix(pool, EPOCH),
            order: Vec::new(),
        }
    }

    fn next_op(&mut self) -> usize {
        if self.order.is_empty() {
            self.order = self.epoch.clone();
            for i in (1..self.order.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.order.swap(i, j);
            }
        }
        self.order.pop().expect("epochs are not empty")
    }
}

/// One epoch's operator indices: `len` calls split by u³ popularity,
/// rounded by largest remainder.
fn epoch_mix(pool: usize, len: usize) -> Vec<usize> {
    let cdf = |i: usize| (i as f64 / pool as f64).cbrt();
    let exact: Vec<f64> = (0..pool)
        .map(|i| (cdf(i + 1) - cdf(i)) * len as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..pool).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let missing = len - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(missing) {
        counts[i] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect()
}

/// Serve set-up: cold preparation passes (`prepare` of every operator on a
/// fresh service). Returns each pass's wall in seconds and the resident
/// cache bytes a pass leaves behind.
pub fn serve_setup(w: &Inputs) -> (Vec<f64>, usize) {
    let mut walls = Vec::new();
    let mut bytes = 0;
    let start = Instant::now();
    while walls.len() < MIN_SETUP_PASSES
        || (start.elapsed() < SETUP_TIME && walls.len() < MAX_SETUP_PASSES)
    {
        let svc = SolveService::new(w.serve_config());
        let t0 = Instant::now();
        for a in &w.ops {
            black_box(svc.prepare(a));
        }
        walls.push(t0.elapsed().as_secs_f64());
        bytes = svc.cache_bytes();
    }
    (walls, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Inputs::generate(Kind::ServeBatch, 7);
        let b = Inputs::generate(Kind::ServeBatch, 7);
        let c = Inputs::generate(Kind::ServeBatch, 8);
        assert_eq!(a.rhs, b.rhs);
        assert_ne!(a.rhs, c.rhs);
        assert_eq!(
            a.ops[0], c.ops[0],
            "operators do not depend on the run seed"
        );
    }

    #[test]
    fn epochs_hold_every_operator_by_popularity() {
        let mix = epoch_mix(POOL, EPOCH);
        assert_eq!(mix.len(), EPOCH);
        let count = |i: usize| mix.iter().filter(|&&j| j == i).count();
        assert!((0..POOL).all(|i| count(i) >= 1));
        assert!(count(0) > count(1) && count(1) > count(POOL - 1));
        let mut r = Requests::new(POOL, 5);
        let mut first: Vec<usize> = (0..EPOCH).map(|_| r.next_op()).collect();
        first.sort_unstable();
        assert_eq!(first, mix, "one epoch is a permutation of the mix");
    }

    #[test]
    fn names_round_trip() {
        for k in ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn serve_batch_answers_verify() {
        let w = Inputs::generate(Kind::ServeBatch, 3);
        let st = run(&w, Stop::Units(2), &mut Tracer::new(false));
        assert_eq!(st.units, 2);
        assert_eq!(st.attempted, 2 * BATCH_K);
        assert_eq!(st.failed, 0);
        assert_eq!(st.cache.builds, 0, "the operator is warm before the loop");
    }

    #[test]
    fn a_wrong_answer_fails_verification() {
        let w = Inputs::generate(Kind::ServeBatch, 3);
        let (a, b) = (&w.ops[0], &w.rhs[0]);
        let mf = w.facade();
        let mut rep = Cold::prepare(&mf, a, false)
            .solve(&mf, a, b)
            .expect("CG path");
        assert!(solve_ok(&rep, a, b, w.tol()));
        rep.x[0] += 1.0;
        assert!(!solve_ok(&rep, a, b, w.tol()));
    }
}
