//! `mfsolve` — solve a Matrix Market system with Mille-feuille from the
//! command line.
//!
//! ```text
//! mfsolve <matrix.mtx> [options]
//!
//! options:
//!   --method cg|bicgstab|pcg|pbicgstab|auto   (default: auto — CG for SPD)
//!   --device a100|mi210                       (default: a100)
//!   --rhs ones|a1                             b = 1 or b = A·1 (default: a1)
//!   --tol <float>                             (default: 1e-10)
//!   --max-iter <int>                          (default: 1000)
//!   --fp64                                    disable mixed precision
//!   --no-partial                              disable the dynamic strategy
//!   --multi-kernel | --single-kernel          force the execution mode
//!   --solution <path>                         write x as one value per line
//! ```

use mille_feuille::prelude::*;
use mille_feuille::sparse::{mm::read_matrix_market_file, MatrixStats};
use std::io::Write;
use std::process::ExitCode;

struct Args {
    matrix: String,
    method: String,
    device: String,
    rhs: String,
    tol: f64,
    max_iter: usize,
    fp64: bool,
    no_partial: bool,
    mode: KernelMode,
    solution: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mfsolve <matrix.mtx> [--method cg|bicgstab|pcg|pbicgstab|auto] \
         [--device a100|mi210] [--rhs ones|a1] [--tol T] [--max-iter N] \
         [--fp64] [--no-partial] [--multi-kernel|--single-kernel] [--solution PATH]"
    );
    ExitCode::from(2)
}

fn parse() -> Result<Args, ExitCode> {
    let mut args = Args {
        matrix: String::new(),
        method: "auto".into(),
        device: "a100".into(),
        rhs: "a1".into(),
        tol: 1e-10,
        max_iter: 1000,
        fp64: false,
        no_partial: false,
        mode: KernelMode::Auto,
        solution: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = |name: &str| -> Result<String, ExitCode> {
            it.next().ok_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match a.as_str() {
            "--method" => args.method = grab("--method")?,
            "--device" => args.device = grab("--device")?,
            "--rhs" => args.rhs = grab("--rhs")?,
            "--tol" => {
                args.tol = grab("--tol")?.parse().map_err(|_| usage())?;
            }
            "--max-iter" => {
                args.max_iter = grab("--max-iter")?.parse().map_err(|_| usage())?;
            }
            "--fp64" => args.fp64 = true,
            "--no-partial" => args.no_partial = true,
            "--multi-kernel" => args.mode = KernelMode::MultiKernel,
            "--single-kernel" => args.mode = KernelMode::SingleKernel,
            "--solution" => args.solution = Some(grab("--solution")?),
            "-h" | "--help" => return Err(usage()),
            other if args.matrix.is_empty() && !other.starts_with('-') => {
                args.matrix = other.to_string();
            }
            other => {
                eprintln!("unknown argument: {other}");
                return Err(usage());
            }
        }
    }
    if args.matrix.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(code) => return code,
    };

    let coo = match read_matrix_market_file(&args.matrix) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}: {e}", args.matrix);
            return ExitCode::FAILURE;
        }
    };
    let a = coo.to_csr();
    if a.nrows != a.ncols {
        eprintln!("matrix must be square ({}x{})", a.nrows, a.ncols);
        return ExitCode::FAILURE;
    }
    let stats = MatrixStats::compute(&a);
    println!(
        "{}: n = {}, nnz = {}, symmetric = {}, diag-dominant rows = {:.0}%",
        args.matrix,
        a.nrows,
        a.nnz(),
        stats.symmetric,
        100.0 * stats.diag_dominant_fraction
    );

    let device = match args.device.as_str() {
        "a100" => DeviceSpec::a100(),
        "mi210" => DeviceSpec::mi210(),
        other => {
            eprintln!("unknown device {other}");
            return ExitCode::from(2);
        }
    };
    let method = if args.method == "auto" {
        if stats.likely_spd() { "cg" } else { "bicgstab" }.to_string()
    } else {
        args.method.clone()
    };

    let b = match args.rhs.as_str() {
        "ones" => vec![1.0; a.nrows],
        "a1" => {
            let mut b = vec![0.0; a.nrows];
            a.matvec(&vec![1.0; a.ncols], &mut b);
            b
        }
        other => {
            eprintln!("unknown rhs {other}");
            return ExitCode::from(2);
        }
    };

    let cfg = SolverConfig {
        tolerance: args.tol,
        max_iter: args.max_iter,
        uniform_precision: args.fp64.then_some(Precision::Fp64),
        partial_convergence: !args.no_partial && !args.fp64,
        kernel_mode: args.mode,
        ..SolverConfig::default()
    };
    let solver = MilleFeuille::new(device, cfg);

    let method_spec = match method.as_str() {
        "cg" => Method::Cg,
        "bicgstab" => Method::BiCgStab,
        "pcg" => Method::Pcg(PrecondKind::Ilu0),
        "pbicgstab" => Method::PBiCgStab,
        other => {
            eprintln!("unknown method {other}");
            return ExitCode::from(2);
        }
    };
    let report = match solver.solve(&a, &b, &SolveSpec::new(method_spec)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{method} failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("method:        {method} on {}", solver.device.name);
    println!(
        "result:        {} after {} iterations (relres {:.3e})",
        if report.converged {
            "converged"
        } else {
            "NOT converged"
        },
        report.iterations,
        report.final_relres
    );
    println!(
        "mode:          {:?}, {} warps",
        report.mode, report.warp_count
    );
    println!(
        "modeled time:  {:.1} µs ({})",
        report.total_us(),
        report.timeline
    );
    println!(
        "precision:     {:.1}% of SpMV work below FP64, {:.1}% bypassed",
        100.0 * report.low_precision_fraction(),
        100.0 * report.bypass_fraction()
    );
    println!(
        "memory:        tiled/CSR ratio {:.3}",
        report.tiled_memory.total() as f64 / report.csr_memory as f64
    );

    if let Some(path) = args.solution {
        let mut f = match std::fs::File::create(&path) {
            Ok(f) => std::io::BufWriter::new(f),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for v in &report.x {
            writeln!(f, "{v:e}").expect("write solution");
        }
        println!("solution:      written to {path}");
    }

    if report.converged {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
