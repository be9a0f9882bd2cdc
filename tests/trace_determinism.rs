//! Determinism and zero-interference guarantees of the event recorder.
//!
//! Two properties, both load-bearing for observability you can trust:
//!
//! 1. **Deterministic streams.** Same matrix, same seeded `FaultPlan`, same
//!    warp count ⇒ the merged event stream is *bitwise identical* across
//!    repeat runs, in both export formats that exclude schedule-dependent
//!    payloads (`canonical_jsonl`, `to_chrome_trace`). Spin-poll counts are
//!    genuinely nondeterministic and are confined to the raw JSONL payloads
//!    by construction.
//! 2. **No-op sink.** With tracing disabled (the default), every threaded
//!    entry point produces output bitwise identical to a run that never
//!    set `ThreadedOpts::trace` — iteration counts, residual trajectories, solutions —
//!    and recording *enabled* must not perturb the numerics either (the
//!    recorder only observes; it never reorders a reduction).

// This suite uses only a slice of the shared kit; `threaded_parity` keeps
// the full surface exercised, so unused-item lints stay meaningful there.
#[allow(dead_code)]
mod common;

use common::paper_rhs;
use mille_feuille::collection as gen;
use mille_feuille::collection::ValueClass;
use mille_feuille::kernels::ilu0;
use mille_feuille::prelude::*;
use mille_feuille::solver::{
    run_bicgstab_threaded, run_cg_threaded, run_pbicgstab_threaded, run_pcg_threaded,
};
use mille_feuille::trace::{EventKind, Trace, TraceConfig};

fn spd_fixture() -> Csr {
    gen::poisson2d(9, 8)
}

fn nonsym_fixture() -> Csr {
    gen::banded_spd(56, 3, ValueClass::WideModerate, 13)
}

fn tiled(a: &Csr) -> TiledMatrix {
    TiledMatrix::from_csr_with(a, 8, &Default::default())
}

/// A threaded engine closed over its fixture set, dispatchable uniformly.
type EngineFn = Box<dyn Fn(&FaultPlan, usize, &TraceConfig) -> SolveReport>;

/// Every threaded engine, closed over one fixture set, dispatchable by
/// name — so each property is asserted uniformly across all four.
/// Default watchdog, the given plan, warp cap and trace switch.
fn opts(plan: &FaultPlan, warps: usize, tc: &TraceConfig) -> ThreadedOpts {
    ThreadedOpts {
        faults: plan.clone(),
        trace: *tc,
        ..ThreadedOpts::new(warps)
    }
}

fn engines() -> Vec<(&'static str, EngineFn)> {
    let (tol, max_iter) = (1e-10, 150);
    let spd = spd_fixture();
    let spd_b = paper_rhs(&spd);
    let spd_m = tiled(&spd);
    let spd_ilu = ilu0(&spd).expect("ILU(0) on the SPD fixture");
    let gen_a = nonsym_fixture();
    let gen_b = paper_rhs(&gen_a);
    let gen_m = tiled(&gen_a);
    let gen_ilu = ilu0(&gen_a).expect("ILU(0) on the banded fixture");
    vec![
        ("cg", {
            let (m, b) = (spd_m.clone(), spd_b.clone());
            Box::new(move |plan: &FaultPlan, warps, tc: &TraceConfig| {
                run_cg_threaded(&m, &b, tol, max_iter, &opts(plan, warps, tc))
            }) as _
        }),
        ("bicgstab", {
            let (m, b) = (gen_m.clone(), gen_b.clone());
            Box::new(move |plan: &FaultPlan, warps, tc: &TraceConfig| {
                run_bicgstab_threaded(&m, &b, tol, max_iter, &opts(plan, warps, tc))
            }) as _
        }),
        ("pcg", {
            let (m, b, ilu) = (spd_m.clone(), spd_b.clone(), spd_ilu.clone());
            Box::new(move |plan: &FaultPlan, warps, tc: &TraceConfig| {
                run_pcg_threaded(&m, &ilu, &b, tol, max_iter, &opts(plan, warps, tc))
            }) as _
        }),
        ("pbicgstab", {
            let (m, b, ilu) = (gen_m.clone(), gen_b.clone(), gen_ilu.clone());
            Box::new(move |plan: &FaultPlan, warps, tc: &TraceConfig| {
                run_pbicgstab_threaded(&m, &ilu, &b, tol, max_iter, &opts(plan, warps, tc))
            }) as _
        }),
    ]
}

fn assert_bitwise_equal_reports(name: &str, a: &SolveReport, b: &SolveReport) {
    assert_eq!(a.iterations, b.iterations, "{name}: iterations");
    assert_eq!(a.converged, b.converged, "{name}: converged");
    assert_eq!(
        a.final_relres.to_bits(),
        b.final_relres.to_bits(),
        "{name}: final relres"
    );
    assert_eq!(
        a.residual_history.len(),
        b.residual_history.len(),
        "{name}: trajectory length"
    );
    for (i, (x, y)) in a
        .residual_history
        .iter()
        .zip(&b.residual_history)
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{name}: trajectory[{i}]");
    }
    for (i, (x, y)) in a.x.iter().zip(&b.x).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{name}: x[{i}]");
    }
    assert_eq!(
        a.failure.is_some(),
        b.failure.is_some(),
        "{name}: failure presence"
    );
}

/// Same seed, same plan, same warp count ⇒ bitwise-identical canonical
/// streams, clean runs and seeded fault-injection runs alike.
#[test]
fn canonical_streams_are_bitwise_deterministic() {
    let plans = [
        FaultPlan::default(),
        FaultPlan::seeded(42).with_delay(60, 12).with_stall(64, 20),
    ];
    let on = TraceConfig::on();
    for (name, run) in engines() {
        for plan in &plans {
            for warps in [1usize, 2, 5] {
                let label = format!("{name}/{plan}/w{warps}");
                let first = run(plan, warps, &on);
                let second = run(plan, warps, &on);
                let (ta, tb) = (
                    first.trace.as_ref().expect("trace on"),
                    second.trace.as_ref().expect("trace on"),
                );
                assert_eq!(
                    ta.canonical_jsonl(),
                    tb.canonical_jsonl(),
                    "{label}: canonical JSONL diverged between identical runs"
                );
                assert_eq!(
                    ta.to_chrome_trace(),
                    tb.to_chrome_trace(),
                    "{label}: Chrome trace diverged between identical runs"
                );
                assert_bitwise_equal_reports(&label, &first, &second);
            }
        }
    }
}

/// Disabled tracing is a no-op sink: an explicit off config must be
/// bitwise identical to the default options, and
/// *enabled* tracing must not perturb the numerics either.
#[test]
fn disabled_and_enabled_tracing_leave_numerics_bitwise_unchanged() {
    let (tol, max_iter) = (1e-10, 150);
    let plan = FaultPlan::seeded(7).with_delay(50, 9);
    let off = TraceConfig::default();
    let on = TraceConfig::on();

    let spd = spd_fixture();
    let (spd_b, spd_m) = (paper_rhs(&spd), tiled(&spd));
    let spd_ilu = ilu0(&spd).unwrap();
    let gen_a = nonsym_fixture();
    let (gen_b, gen_m) = (paper_rhs(&gen_a), tiled(&gen_a));
    let gen_ilu = ilu0(&gen_a).unwrap();

    for warps in [1usize, 3] {
        let opts = ThreadedOpts {
            faults: plan.clone(),
            ..ThreadedOpts::new(warps)
        };
        let silent_opts = ThreadedOpts {
            trace: off,
            ..opts.clone()
        };
        let traced_opts = ThreadedOpts {
            trace: on,
            ..opts.clone()
        };
        let full = run_cg_threaded(&spd_m, &spd_b, tol, max_iter, &opts);
        let silent = run_cg_threaded(&spd_m, &spd_b, tol, max_iter, &silent_opts);
        let traced = run_cg_threaded(&spd_m, &spd_b, tol, max_iter, &traced_opts);
        assert!(silent.trace.is_none(), "cg: off config must record nothing");
        assert!(traced.trace.is_some(), "cg: on config must record");
        assert_bitwise_equal_reports("cg full-vs-off", &full, &silent);
        assert_bitwise_equal_reports("cg off-vs-on", &silent, &traced);

        let full = run_bicgstab_threaded(&gen_m, &gen_b, tol, max_iter, &opts);
        let silent = run_bicgstab_threaded(&gen_m, &gen_b, tol, max_iter, &silent_opts);
        let traced = run_bicgstab_threaded(&gen_m, &gen_b, tol, max_iter, &traced_opts);
        assert!(silent.trace.is_none());
        assert_bitwise_equal_reports("bicgstab full-vs-off", &full, &silent);
        assert_bitwise_equal_reports("bicgstab off-vs-on", &silent, &traced);

        let full = run_pcg_threaded(&spd_m, &spd_ilu, &spd_b, tol, max_iter, &opts);
        let silent = run_pcg_threaded(&spd_m, &spd_ilu, &spd_b, tol, max_iter, &silent_opts);
        let traced = run_pcg_threaded(&spd_m, &spd_ilu, &spd_b, tol, max_iter, &traced_opts);
        assert!(silent.trace.is_none());
        assert_bitwise_equal_reports("pcg full-vs-off", &full, &silent);
        assert_bitwise_equal_reports("pcg off-vs-on", &silent, &traced);

        let full = run_pbicgstab_threaded(&gen_m, &gen_ilu, &gen_b, tol, max_iter, &opts);
        let silent = run_pbicgstab_threaded(&gen_m, &gen_ilu, &gen_b, tol, max_iter, &silent_opts);
        let traced = run_pbicgstab_threaded(&gen_m, &gen_ilu, &gen_b, tol, max_iter, &traced_opts);
        assert!(silent.trace.is_none());
        assert_bitwise_equal_reports("pbicgstab full-vs-off", &full, &silent);
        assert_bitwise_equal_reports("pbicgstab off-vs-on", &silent, &traced);
    }
}

/// The Chrome export is structurally what Perfetto / `chrome://tracing`
/// ingest: one `traceEvents` array of complete (`ph: "X"`) events whose
/// count matches the merged stream, valid UTF-8 JSON shape, monotone
/// logical timestamps.
#[test]
fn chrome_trace_shape_is_perfetto_ingestible() {
    let spd = spd_fixture();
    let (b, m) = (paper_rhs(&spd), tiled(&spd));
    let ilu = ilu0(&spd).unwrap();
    let rep = run_pcg_threaded(
        &m,
        &ilu,
        &b,
        1e-10,
        150,
        &ThreadedOpts {
            trace: TraceConfig::on(),
            ..ThreadedOpts::new(2)
        },
    );
    let trace = rep.trace.expect("trace on");
    assert!(!trace.events.is_empty(), "a real solve must record events");
    let chrome = trace.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["), "envelope open");
    assert!(chrome.trim_end().ends_with("]}"), "envelope close");
    assert_eq!(
        chrome.matches("\"ph\":\"X\"").count(),
        trace.events.len(),
        "one complete event per merged record"
    );
    for label in ["iter_start", "iter_end", "barrier_enter", "barrier_exit"] {
        assert!(
            chrome.contains(&format!("\"name\":\"{label}\"")),
            "missing {label} events"
        );
    }
    // Logical timestamps are the merged order: 0..len, strictly monotone.
    let mut expect = 0usize;
    for chunk in chrome.split("\"ts\":").skip(1) {
        let ts: usize = chunk
            .split(',')
            .next()
            .and_then(|v| v.parse().ok())
            .expect("numeric ts");
        assert_eq!(ts, expect, "logical timestamps must be the merge order");
        expect += 1;
    }
    assert_eq!(expect, trace.events.len());

    // And the per-warp attribution survives the export: every warp that ran
    // appears as a distinct tid.
    for w in 0..rep.warp_count {
        assert!(
            chrome.contains(&format!("\"tid\":{w}")),
            "warp {w} missing from the timeline"
        );
    }
}

/// Seeded fault plans leave their mark in the stream: the injected-fault
/// events carry the plan's deterministic firing pattern, and line up with
/// the `InjectedFaults` telemetry the engine already reports.
#[test]
fn seeded_faults_appear_as_deterministic_events() {
    let spd = spd_fixture();
    let (b, m) = (paper_rhs(&spd), tiled(&spd));
    let plan = FaultPlan::seeded(42).with_delay(60, 12).with_stall(16, 20);
    let rep = run_cg_threaded(
        &m,
        &b,
        1e-10,
        150,
        &ThreadedOpts {
            faults: plan.clone(),
            trace: TraceConfig::on(),
            ..ThreadedOpts::new(3)
        },
    );
    let telemetry = rep.injected_faults().expect("fault telemetry").clone();
    let trace = rep.trace.expect("trace on");
    let fault_events = trace.count(EventKind::Fault);
    assert!(
        fault_events > 0,
        "a firing plan must leave Fault events (telemetry: {telemetry:?})"
    );
    // Determinism of the fault pattern itself: an independent run fires the
    // identical (warp, iteration, step, code) sequence.
    let again = run_cg_threaded(
        &m,
        &b,
        1e-10,
        150,
        &ThreadedOpts {
            faults: plan.clone(),
            trace: TraceConfig::on(),
            ..ThreadedOpts::new(3)
        },
    );
    let pick = |t: &Trace| {
        t.events
            .iter()
            .filter(|e| e.kind == EventKind::Fault)
            .map(|e| (e.warp, e.iteration, e.step, e.a))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        pick(&trace),
        pick(again.trace.as_ref().unwrap()),
        "seeded fault firing pattern must be reproducible"
    );
}
