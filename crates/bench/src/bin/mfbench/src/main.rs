//! `mfbench`: the repository's end-to-end benchmark.
//!
//! Four seeded workloads drive the public solver entry points
//! (`MilleFeuille` one-shot calls and `SolveService`) in a closed loop and
//! time them with host wall-clock. The untraced run gives the end-to-end
//! metrics. `--trace` repeats the same calls with spans around each public
//! call, then times every layer's public call on the workload's own inputs
//! and measures the host's bandwidth ceilings; it gives the per-layer
//! metrics and a Chrome trace file. Every answer is verified; the run
//! exits non-zero when any right-hand side fails.
//!
//! ```text
//! cargo run --release --locked --offline \
//!     --manifest-path crates/bench/src/bin/mfbench/Cargo.toml -- \
//!     --seed 1 [--workload NAME] [--seconds S] [--trace [0|1]] [--out PATH] [--list]
//! ```
//!
//! Output: one `workload metric value unit n=<samples>` line per metric,
//! the same data as JSON in `--out` (default `bench_out/mfbench.json`),
//! and, last, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}` holding the metrics `BENCHMARK.json` lists.

mod probe;
mod schema;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use probe::OpProbe;
use schema::Section;
use trace::Tracer;
use workloads::{Inputs, Kind, LoopStats, Stop};

/// Measured seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 12.0;
const DEFAULT_OUT: &str = "bench_out/mfbench.json";
const USAGE: &str = "usage: mfbench [--workload NAME] [--seed U64] [--seconds S] \
                     [--trace [0|1]] [--out PATH] [--list]";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    list: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: PathBuf::from(DEFAULT_OUT),
        list: false,
    };
    let mut pending = it.next();
    while let Some(flag) = pending.take() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let v = value("an unsigned integer")?;
                args.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {v}"))?;
            }
            "--out" => args.out = PathBuf::from(value("a path")?),
            "--list" => args.list = true,
            "--trace" => {
                // An optional 0 or 1 follows; a bare `--trace` means 1.
                pending = it.next();
                args.trace = pending.as_deref() != Some("0");
                if matches!(pending.as_deref(), Some("0" | "1")) {
                    pending = it.next();
                }
                continue;
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
        pending = it.next();
    }
    Ok(args)
}

/// One measured value with its sample count, and the quartiles of the
/// samples when it summarises a timing distribution.
struct Metric {
    name: &'static str,
    value: f64,
    n: usize,
    quartiles: Option<[f64; 3]>,
}

fn metric(name: &'static str, value: f64, n: usize) -> Metric {
    schema::def(name);
    Metric {
        name,
        // JSON has no NaN or infinity; an undefined value has no samples.
        value: if value.is_finite() { value } else { 0.0 },
        n,
        quartiles: None,
    }
}

fn timing(name: &'static str, value: f64, samples: &[f64]) -> Metric {
    Metric {
        quartiles: Some(stats::quartiles(samples)),
        ..metric(name, value, samples.len())
    }
}

struct Outcome {
    kind: Kind,
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
}

fn end_to_end(w: &Inputs, run: &LoopStats, setup_walls: &[f64]) -> Vec<Metric> {
    let lat = &run.latency_ms;
    let per_unit = run.rhs_done as f64 / run.units.max(1) as f64;
    let part = w.quiet_part(run.units);
    let mut m = vec![
        timing("setup_s", stats::median(setup_walls), setup_walls),
        timing("latency_p50_ms", stats::quiet_median(lat, part), lat),
        metric(
            "throughput_rps",
            stats::quiet_rate(&run.unit_end_s, per_unit, part),
            run.rhs_done,
        ),
    ];
    if w.kind.is_cold() {
        let (rounds, solves) = (&run.round_s, &run.solve_s);
        m.push(timing("time_to_solution_s", stats::median(rounds), rounds));
        m.push(timing("solve_s", stats::median(solves), solves));
    } else {
        m.push(timing("latency_p99_ms", stats::percentile(lat, 99.0), lat));
    }
    m.push(metric(
        "failed_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.attempted,
    ));
    m
}

/// Per-layer metrics read from the traced loop's spans (serve workloads).
fn serve_layers(w: &Inputs, traced: &LoopStats, spans: &Tracer, probes: &[OpProbe]) -> Vec<Metric> {
    let call = match w.kind {
        Kind::ServeBatch => "SolveService::solve_batch",
        _ => "SolveService::solve",
    };
    let durs: Vec<(f64, bool)> = spans
        .spans()
        .iter()
        .filter(|s| s.name == call)
        .map(|s| s.dur().as_secs_f64() * 1e3)
        .zip(traced.hit.iter().copied())
        .collect();
    let pick = |hit: bool| -> Vec<f64> {
        durs.iter()
            .filter(|(_, h)| *h == hit)
            .map(|(d, _)| *d)
            .collect()
    };
    let (hits, misses) = (pick(true), pick(false));
    let calls = durs.len().max(1) as f64;
    let k = probes.len().max(1) as f64;
    let fixed_us: f64 = probes
        .iter()
        .map(|p| {
            p.fingerprint_us
                + p.load_us
                + if w.kind.preconditioned() {
                    p.level_us
                } else {
                    0.0
                }
        })
        .sum::<f64>()
        / k;
    let hit_p50 = stats::median(&hits);
    let mut m = vec![
        metric("serve.hit_rate", hits.len() as f64 / calls, durs.len()),
        metric(
            "serve.builds",
            traced.cache.builds as f64 * 1e3 / calls,
            durs.len(),
        ),
        metric(
            "serve.evictions",
            traced.cache.evictions as f64 * 1e3 / calls,
            durs.len(),
        ),
        metric("serve.hit_latency_p50_ms", hit_p50, hits.len()),
        metric(
            "serve.hit_fixed_overhead_frac",
            fixed_us / 1e3 / hit_p50,
            hits.len(),
        ),
    ];
    match w.kind {
        Kind::ServeMixed => m.push(metric(
            "serve.miss_latency_p50_ms",
            stats::median(&misses),
            misses.len(),
        )),
        _ => m.push(metric(
            "serve.batched_frac",
            traced.batched as f64 / traced.rhs_done.max(1) as f64,
            traced.rhs_done,
        )),
    }
    m
}

fn trace_path(out: &Path) -> PathBuf {
    let stem = out
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("mfbench");
    out.with_file_name(format!("{stem}_trace.json"))
}

fn run_workload(kind: Kind, args: &Args) -> Outcome {
    let w = Inputs::generate(kind, args.seed);
    let mut off = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let run = workloads::run(&w, Stop::Until(deadline), &mut off);
    let (setup_walls, prepared_bytes) = if kind.is_cold() {
        (run.setup_s.clone(), run.prepared_bytes)
    } else {
        workloads::serve_setup(&w)
    };
    let mut out = Outcome {
        kind,
        metrics: end_to_end(&w, &run, &setup_walls),
        attempted: run.attempted,
        failed: run.failed,
    };
    if !args.trace {
        return out;
    }
    out.metrics
        .push(metric("prepared_mb", prepared_bytes as f64 / 1e6, 1));

    // Traced run: the same calls in the same order, then the layer probes.
    let mut tr = Tracer::new(true);
    let traced = workloads::run(&w, Stop::Units(run.units), &mut tr);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    let probes: Vec<OpProbe> = w
        .probe_ops()
        .map(|i| probe::probe_op(&w, i, &mut tr))
        .collect();
    let ws_bytes = probes.iter().map(|p| p.spmv_bytes).fold(0.0, f64::max);
    let ws_threads = probes.iter().map(|p| p.spmv_threads).max().unwrap_or(1);
    let host = probe::host_ceilings(ws_bytes, ws_threads, &mut tr);
    let n = probes.len();
    for (name, value) in probe::layer_values(&probes, &host) {
        out.metrics.push(metric(name, value, n));
    }
    if !kind.is_cold() {
        out.metrics.extend(serve_layers(&w, &traced, &tr, &probes));
    }
    // Medians of per-unit loop time (spans included), so a host stall in
    // either loop does not read as tracing cost.
    let unit_s = |st: &LoopStats| {
        let starts = std::iter::once(0.0).chain(st.unit_end_s.iter().copied());
        let d: Vec<f64> = st
            .unit_end_s
            .iter()
            .zip(starts)
            .map(|(e, s)| e - s)
            .collect();
        stats::median(&d)
    };
    out.metrics.push(metric(
        "bench.trace_overhead_frac",
        unit_s(&traced) / unit_s(&run) - 1.0,
        run.units,
    ));
    let path = trace_path(&args.out);
    if let Err(e) = tr.write_chrome(&path, &format!("mfbench {}", kind.name())) {
        eprintln!("mfbench: cannot write {}: {e}", path.display());
    }
    out
}

/// Every metric the table scopes to `kind` (per-layer ones only when
/// traced) was measured, and nothing else.
fn check_complete(o: &Outcome, traced: bool) {
    for d in schema::METRICS {
        let expected = d.scope.covers(o.kind) && (traced || d.section == Section::EndToEnd);
        let present = o.metrics.iter().filter(|m| m.name == d.name).count();
        assert_eq!(
            present,
            usize::from(expected),
            "{} on {}",
            d.name,
            o.kind.name()
        );
    }
}

fn write_json(args: &Args, outcomes: &[Outcome]) -> std::io::Result<()> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut s = format!(
        "{{\"seed\":{},\"seconds\":{},\"trace\":{},\"host_threads\":{threads},\"workloads\":[",
        args.seed, args.seconds, args.trace
    );
    for (i, o) in outcomes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n{{\"name\":\"{}\",\"attempted\":{},\"failed\":{},\"metrics\":[",
            o.kind.name(),
            o.attempted,
            o.failed
        );
        for (j, m) in o.metrics.iter().enumerate() {
            let d = schema::def(m.name);
            let section = match d.section {
                Section::EndToEnd => "end_to_end",
                Section::PerLayer => "per_layer",
            };
            let sep = if j == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n{{\"name\":\"{}\",\"value\":{},\"unit\":\"{}\",\"n\":{},\"section\":\"{section}\"",
                m.name, m.value, d.unit, m.n
            );
            if let Some([q1, q2, q3]) = m.quartiles {
                let _ = write!(s, ",\"q1\":{q1},\"median\":{q2},\"q3\":{q3}");
            }
            if m.name == "latency_p99_ms" {
                let trusted = stats::tail_percentile(m.n).is_some_and(|p| p >= 99.0);
                let _ = write!(s, ",\"tail_trusted\":{trusted}");
            }
            s.push('}');
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");
    if let Some(dir) = args.out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&args.out, s)
}

/// The last stdout line: the metrics `BENCHMARK.json` lists for the run's
/// section (per-layer when traced), keyed by name; with several workloads
/// the keys are `workload/metric`.
fn summary_line(args: &Args, outcomes: &[Outcome]) -> String {
    let section = if args.trace {
        Section::PerLayer
    } else {
        Section::EndToEnd
    };
    let attempted: usize = outcomes.iter().map(|o| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|o| o.failed).sum();
    let mut metrics = Vec::new();
    for o in outcomes {
        for m in &o.metrics {
            let d = schema::def(m.name);
            if !d.listed || d.section != section {
                continue;
            }
            let key = if outcomes.len() == 1 {
                m.name.to_string()
            } else {
                format!("{}/{}", o.kind.name(), m.name)
            };
            metrics.push(format!(
                "\"{key}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.value, d.unit
            ));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        print!("{}", schema::listing());
        return ExitCode::SUCCESS;
    }
    let kinds: Vec<Kind> = match args.workload {
        Some(k) => vec![k],
        None => workloads::ALL.to_vec(),
    };
    let mut outcomes = Vec::new();
    for kind in kinds {
        let o = run_workload(kind, &args);
        check_complete(&o, args.trace);
        for m in &o.metrics {
            let unit = schema::def(m.name).unit;
            println!(
                "{}",
                stats::result_line(kind.name(), m.name, m.value, unit, m.n)
            );
        }
        outcomes.push(o);
    }
    if let Err(e) = write_json(&args, &outcomes) {
        eprintln!("mfbench: cannot write {}: {e}", args.out.display());
    }
    println!("{}", summary_line(&args, &outcomes));
    let failed: usize = outcomes.iter().map(|o| o.failed).sum();
    if failed > 0 {
        eprintln!("mfbench: {failed} right-hand side(s) failed verification");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn benchmark_command_line_parses() {
        let a = parse("--workload serve_batch --seed 9 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Kind::ServeBatch));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 10.0, false));
        let a = parse("--trace 1 --seed 3 --out x.json").unwrap();
        assert!(a.trace && a.seed == 3 && a.out == Path::new("x.json"));
        let a = parse("--trace 0 --seed 4").unwrap();
        assert!(!a.trace && a.seed == 4);
        let a = parse("--trace --seed 5").unwrap();
        assert!(a.trace && a.seed == 5);
        assert!(parse("--seed 6 --trace").unwrap().trace);
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn summary_lists_exactly_the_listed_metrics() {
        let args = parse("--seed 1").unwrap();
        let o = Outcome {
            kind: Kind::ServeBatch,
            metrics: vec![
                metric("setup_s", 0.5, 5),
                metric("failed_frac", 0.0, 8),
                metric("prepared_mb", 1.0, 1),
            ],
            attempted: 8,
            failed: 0,
        };
        let line = summary_line(&args, &[o]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":8,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }
}
