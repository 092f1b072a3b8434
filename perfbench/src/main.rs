//! The repository benchmark: five seeded workloads, end-to-end metrics
//! from untraced runs, and a per-layer breakdown from a separate traced
//! run. See `README.md` in this directory for the workloads, the metric
//! definitions and the layer-to-metric map.
//!
//! Usage: `nwq-perfbench --workload <name|all> --seed <n> --seconds <s>
//! --trace <0|1>`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any output check fails.

mod gen;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// One run's settings, straight from the command line.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<(String, Args), String> {
    let mut workload = None;
    let mut args = Args {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, args))
}

fn run_one(name: &str, args: Args) -> Result<Outcome, String> {
    let mut out = match name {
        "vqe_h2_pes" => workloads::h2::run(args),
        "vqe_water10_adjoint" => workloads::water::run(args),
        "adapt_water10" => workloads::adapt::run(args),
        "serve_mixed" => workloads::serve::run(args),
        "dist_24q" => workloads::dist::run(args),
        other => return Err(format!("unknown workload {other:?}")),
    }
    .map_err(|e| format!("{name}: {e}"))?;
    out.set("peak_rss_mb", report::peak_rss_mb());
    Ok(out)
}

/// Runs every workload, each in its own process, and prints one line per
/// workload plus a combined verdict.
fn run_all(args: Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed, mut ok) = (0u64, 0u64, true);
    for name in workloads::NAMES {
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output();
        let line = match &out {
            Ok(o) => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .unwrap_or("")
                .to_string(),
            Err(e) => format!("failed to start: {e}"),
        };
        println!("{name}: {line}");
        let json = nwq_telemetry::JsonValue::parse(&line).ok();
        let num = |k| json.as_ref().and_then(|j| j.get(k)?.as_u64()).unwrap_or(0);
        attempted += num("attempted");
        failed += num("failed");
        ok &= out.is_ok_and(|o| o.status.success());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}",
        ok && failed == 0
    );
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, args) = match parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("usage: nwq-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            return ExitCode::from(2);
        }
    };
    if name == "all" {
        return run_all(args);
    }
    let out = match run_one(&name, args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let line = if args.trace {
        out.to_json(PER_LAYER, false)
    } else {
        out.to_json(END_TO_END, true)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}
