//! Host-throughput benchmark for the simulator workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process drives one workload through the library crates' public
//! APIs, checks every op's output against a single-worker reference, and
//! prints `name = value unit` lines followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics (host wall clock, tracing
//! off); `--trace 1` reports the per-layer metrics of a traced run.
//! Simulated (virtual-clock) statistics are printed under `sim.` and feed
//! the correctness digest; they are never metrics. See `README.md`.

mod alloc;
mod host;
mod metrics;
mod runner;
mod stats;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Most worker threads the benchmark runs with (fewer if `ENW_THREADS` or
/// the machine says so), so results from hosts of different sizes stay
/// comparable and `parallel.speedup_2t` means what it says.
const MAX_THREADS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(run) = workloads::find(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    // Tracing is decided by `--trace`, never by an inherited ENW_TRACE.
    enw_trace::set_mode(enw_trace::TraceMode::Off);
    let threads = enw_parallel::max_threads().min(MAX_THREADS);
    let outcome = enw_parallel::with_threads(threads, || {
        let mut host = host::Host::fingerprint();
        // The traced run needs the roofline for its layer rates; the
        // untraced run probes last, so the probe's arrays stay out of
        // its peak RSS.
        if args.trace {
            host.measure_roofline();
        }
        let mut out = run(&workloads::Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            host: &host,
        });
        if args.trace {
            out.values.set("host.stream_triad_gbps", host.stream_triad_gbps);
            out.values.set("host.fma_gflops", host.fma_gflops);
        } else {
            host.measure_roofline();
        }
        out.lines.splice(0..0, host.lines());
        out
    });
    println!(
        "workload = {} seed = {} seconds = {} trace = {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in outcome.lines.iter().chain(&metrics::metric_lines(&outcome, args.trace)) {
        println!("{line}");
    }
    println!("ops.attempted = {} ops.failed = {}", outcome.attempted, outcome.failed);
    println!("{}", metrics::result_json(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload fleet_flash --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_flash", 7, 10.0, true)
        );
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed -1 --seconds 1").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn every_workload_is_registered() {
        for name in workloads::NAMES {
            assert!(workloads::find(name).is_some(), "{name}");
        }
        assert!(workloads::find("nope").is_none());
    }
}
