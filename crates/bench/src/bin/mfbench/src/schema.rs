//! The metric table: every metric the benchmark can report, its unit,
//! direction, the workloads it applies to, and whether `BENCHMARK.json`
//! lists it. `--list` prints this table; a unit test keeps it and
//! `BENCHMARK.json` in step.

use crate::workloads::Kind;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Section {
    /// What a user of the solver sees; measured only by untraced runs.
    EndToEnd,
    /// One layer's cost; measured only by the traced run.
    PerLayer,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    All,
    Cold,
    Serve,
    ServeMixed,
    ServeBatch,
}

impl Scope {
    pub fn covers(self, kind: Kind) -> bool {
        match self {
            Scope::All => true,
            Scope::Cold => kind.is_cold(),
            Scope::Serve => !kind.is_cold(),
            Scope::ServeMixed => kind == Kind::ServeMixed,
            Scope::ServeBatch => kind == Kind::ServeBatch,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Scope::All => "all",
            Scope::Cold => "cold",
            Scope::Serve => "serve",
            Scope::ServeMixed => "serve_mixed",
            Scope::ServeBatch => "serve_batch",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
    pub section: Section,
    pub scope: Scope,
    /// Listed in `BENCHMARK.json` (only metrics every workload reports).
    pub listed: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    scope: Scope,
    listed: bool,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        section: Section::EndToEnd,
        scope,
        listed,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    scope: Scope,
    listed: bool,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        section: Section::PerLayer,
        scope,
        listed,
        bound: None,
        what,
    }
}

use Scope::{All, Cold, Serve, ServeBatch, ServeMixed};

// One entry per line reads as a table; rustfmt would split each call.
#[rustfmt::skip]
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", All, true, 0.25,
        "median set-up wall: cold = one round's preprocessing (+ILU); serve = one cold prepare pass over the operator set"),
    e2e("latency_p50_ms", "ms", "lower", All, true, 0.25,
        "median request latency, call to return, in the run's quietest eighth (whole run on serve_mixed; cold request = one round)"),
    e2e("latency_p99_ms", "ms", "lower", Serve, false, 0.20,
        "nearest-rank p99 request latency (>= 1000 samples, so 10 lie beyond it)"),
    e2e("throughput_rps", "1/s", "higher", All, true, 0.25,
        "right-hand sides answered per second in the run's quietest eighth (whole run on serve_mixed)"),
    e2e("time_to_solution_s", "s", "lower", Cold, false, 0.25,
        "median round wall: every operator preprocessed, solved and verified"),
    e2e("solve_s", "s", "lower", Cold, false, 0.25,
        "median per-round solve wall"),
    e2e("failed_frac", "ratio", "lower", All, false, 0.0,
        "failed / attempted right-hand sides (zero by design; the run exits non-zero otherwise)"),
    layer("prepared_mb", "MB", "lower", All, true,
        "computed resident bytes of the prepared state: tiles + ILU factors (cold), cache_bytes after one prepare pass (serve)"),
    layer("sparse.tile_plan_ms", "ms", "lower", All, true, "TileBuildPlan::new"),
    layer("sparse.fingerprint_us", "us", "lower", All, true, "Csr::fingerprint"),
    layer("precision.classify_ms", "ms", "lower", All, true, "classify_tile over every tile"),
    layer("precision.nnz_frac_fp64", "ratio", "lower", All, true, "nonzeros stored in FP64 tiles"),
    layer("precision.nnz_frac_fp32", "ratio", "lower", All, true, "nonzeros stored in FP32 tiles"),
    layer("precision.nnz_frac_fp16", "ratio", "lower", All, true, "nonzeros stored in FP16 tiles"),
    layer("precision.nnz_frac_fp8", "ratio", "higher", All, true, "nonzeros stored in FP8 tiles"),
    layer("ticket.tickets", "count", "lower", All, true,
        "tickets of the ticketed tile build (+ILU rows) at the facade's worker count, per operator"),
    layer("ticket.fallbacks", "count", "lower", All, true, "tickets the committer recomputed, per operator"),
    layer("ticket.accept_ratio", "ratio", "higher", All, true, "accepted / tickets"),
    layer("solver.preprocess_ms", "ms", "lower", All, true, "the facade's preprocessing (+ILU) as the workload calls it"),
    layer("solver.preprocess_serial_ms", "ms", "lower", All, true, "from_csr_with (+ ilu0_boosted)"),
    layer("solver.preprocess_over_serial", "ratio", "lower", All, true, "preprocess_ms / preprocess_serial_ms"),
    layer("solver.iterations", "count", "lower", All, true, "iterations of the reference solve, per operator"),
    layer("solver.iter_us", "us", "lower", All, true, "reference solve wall / iterations"),
    layer("solver.true_relres_max", "ratio", "lower", All, true, "largest true relative residual of the reference solves"),
    layer("solver.modeled_solve_ms", "ms", "lower", All, true, "cost-model solve time of the reference solve"),
    layer("solver.measured_over_modeled", "ratio", "lower", All, true, "measured / modeled solve time"),
    layer("solver.modeled_value_mb_per_iter", "MB", "lower", All, true, "tile value bytes the SpMV touched per iteration"),
    layer("solver.bypass_frac", "ratio", "higher", All, true, "nonzero work skipped by partial convergence"),
    layer("solver.coverage_frac", "ratio", "higher", All, true,
        "replayed kernels x calls per iteration x iterations + per-solve fixed costs, over measured solve wall"),
    layer("kernels.shared_tiles_load_us", "us", "lower", All, true, "SharedTiles::load, paid on every solve"),
    layer("kernels.level_schedule_us", "us", "lower", All, true, "level_schedule of L and U, paid on every PCG solve"),
    layer("kernels.spmv_us", "us", "lower", All, true, "spmv_mixed_par at threads_for(nnz)"),
    layer("kernels.spmv_serial_us", "us", "lower", All, true, "spmv_mixed"),
    layer("kernels.spmv_par_speedup", "ratio", "higher", All, true, "spmv_serial_us / spmv_us"),
    layer("kernels.spmv_host_gbs", "GB/s", "higher", All, true,
        "computed SpMV bytes (values, tile indices, metadata, x, y) / spmv_us"),
    layer("kernels.spmv_frac_of_ceiling", "ratio", "higher", All, true, "spmv_host_gbs / host.triad_ws_gbs"),
    layer("kernels.vis_flags_us", "us", "lower", All, true, "retrieve_vis_flags over one vector"),
    layer("kernels.blas1_us", "us", "lower", All, true, "one iteration's dot/axpy/xpay set"),
    layer("kernels.ilu_apply_us", "us", "lower", All, true, "Ilu0::apply_recursive_into"),
    layer("kernels.ilu0_ms", "ms", "lower", All, true, "ilu0_boosted"),
    layer("kernels.spmm_us_per_rhs", "us", "lower", All, true, "spmm_mixed with k = 8, per right-hand side"),
    layer("kernels.spmm_amortization", "ratio", "higher", All, true, "spmv_serial_us / spmm_us_per_rhs"),
    layer("serve.hit_rate", "ratio", "higher", Serve, false, "cache hits / requests"),
    layer("serve.builds", "1/kreq", "lower", Serve, false, "cache builds per 1000 requests"),
    layer("serve.evictions", "1/kreq", "lower", Serve, false, "cache evictions per 1000 requests"),
    layer("serve.hit_latency_p50_ms", "ms", "lower", Serve, false, "median SolveService span of cache hits"),
    layer("serve.miss_latency_p50_ms", "ms", "lower", ServeMixed, false, "median SolveService span of cache misses"),
    layer("serve.hit_fixed_overhead_frac", "ratio", "lower", Serve, false,
        "(fingerprint + shared tiles load + level schedule) / hit p50"),
    layer("serve.batched_frac", "ratio", "higher", ServeBatch, false, "right-hand sides answered inside a lockstep batch"),
    layer("host.llc_mb", "MB", "higher", All, false, "last-level cache size from sysfs"),
    layer("host.triad_array_mb", "MB", "higher", All, false, "array size of the DRAM triad"),
    layer("host.triad_ws_array_mb", "MB", "higher", All, false, "array size of the working-set triad"),
    layer("host.triad_dram_gbs", "GB/s", "higher", All, true, "STREAM triad on DRAM-sized arrays, all cores"),
    layer("host.triad_ws_gbs", "GB/s", "higher", All, true,
        "STREAM triad sized to the workload's SpMV working set, at its SpMV thread count"),
    layer("bench.trace_overhead_frac", "ratio", "lower", All, true, "median per-unit loop time, traced / untraced - 1"),
];

/// The table entry of `name`; an unknown name is a bug in this program.
pub fn def(name: &str) -> &'static MetricDef {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

/// The `--list` text: workloads, then the metric table.
pub fn listing() -> String {
    let mut out = String::from("workloads:\n");
    for k in crate::workloads::ALL {
        out.push_str(&format!("  {:<20} {}\n", k.name(), k.why()));
    }
    out.push_str("metrics (section scope listed bound name unit better: what):\n");
    for m in METRICS {
        let section = match m.section {
            Section::EndToEnd => "e2e",
            Section::PerLayer => "layer",
        };
        let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
        out.push_str(&format!(
            "  {section:<5} {:<11} {:<5} {bound:<4} {} {} {}: {}\n",
            m.scope.label(),
            if m.listed { "json" } else { "-" },
            m.name,
            m.unit,
            m.better,
            m.what
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

    /// The `"name": "..."` values of one top-level array of BENCHMARK.json.
    fn names_in(section: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    fn table(section: Section) -> Vec<&'static MetricDef> {
        METRICS
            .iter()
            .filter(|m| m.section == section && m.listed)
            .collect()
    }

    #[test]
    fn benchmark_json_and_table_agree() {
        for (key, section) in [
            ("end_to_end", Section::EndToEnd),
            ("per_layer", Section::PerLayer),
        ] {
            let json = names_in(key);
            let listed: Vec<&str> = table(section).iter().map(|m| m.name).collect();
            for n in &json {
                assert!(
                    listed.contains(&n.as_str()),
                    "{key}: {n} is not a listed metric"
                );
            }
            for n in &listed {
                assert!(
                    json.iter().any(|j| j == n),
                    "{key}: listed {n} missing from BENCHMARK.json"
                );
            }
        }
        let workloads = names_in("workloads");
        let ours: Vec<&str> = crate::workloads::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
        for k in crate::workloads::ALL {
            assert!(k.why().len() <= 200, "{}: why is too long", k.name());
            assert!(
                BENCHMARK_JSON.contains(k.why()),
                "{}: why differs",
                k.name()
            );
        }
    }

    #[test]
    fn listed_metrics_are_reported_by_every_workload() {
        for m in METRICS.iter().filter(|m| m.listed) {
            assert_eq!(m.scope, Scope::All, "{} is listed but scoped", m.name);
            let bound_ok = m.bound.is_none_or(|b| b > 0.0 && b <= 0.25);
            assert!(bound_ok, "{} bound must be in (0, 0.25]", m.name);
        }
        let setup = def("setup_s");
        let widest = METRICS.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s has the largest bound");
    }

    #[test]
    fn names_are_unique() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS[i + 1..].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
    }
}
