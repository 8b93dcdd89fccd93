//! Benchmark executable: one workload per process.
//!
//! ```text
//! agb-layerbench timed  --workload <name> --seed <n> --seconds <s> [--tiny]
//! agb-layerbench traced --workload <name> --seed <n> --seconds <s> [--tiny] [--out <dir>]
//! ```
//!
//! `timed` drives the program as a user would and prints the end-to-end
//! metrics; `traced` replays the same run with timing adapters around
//! each layer and prints the per-layer metrics. Each prints one JSON
//! object as its last line; `run.py` combines and checks them.

mod host;
mod rtrun;
mod simrun;
mod spans;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

#[global_allocator]
static ALLOC: agb_perf::alloc::CountingAllocator = agb_perf::alloc::CountingAllocator;

struct Args {
    mode: String,
    workload: String,
    seed: u64,
    seconds: f64,
    tiny: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode (timed|traced)")?;
    let mut args = Args {
        mode,
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        tiny: false,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("agb-layerbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::workload(&args.workload, args.tiny) else {
        eprintln!("agb-layerbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let result = match (args.mode.as_str(), &workload) {
        ("timed", Workload::Sim(spec)) => simrun::timed(spec, args.seed, args.seconds),
        ("timed", Workload::Rt(spec)) => rtrun::run(spec, args.seed, args.seconds, false),
        ("traced", Workload::Sim(spec)) => {
            host::traced(spec, args.seed, args.seconds, args.out.as_deref())
        }
        ("traced", Workload::Rt(spec)) => rtrun::run(spec, args.seed, args.seconds, true),
        (mode, _) => {
            eprintln!("agb-layerbench: unknown mode {mode:?}");
            return ExitCode::from(2);
        }
    };
    println!("{}", result.render());
    ExitCode::SUCCESS
}
