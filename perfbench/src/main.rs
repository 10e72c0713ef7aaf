//! `perfbench --workload <train_lsh|serve_single|serve_sharded|all> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics by name and unit, then, as
//! the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (end-to-end metrics
//! untraced, per-layer metrics traced). Exits non-zero if any operation
//! failed or any output check did not hold. `all` runs the three
//! workloads one after another, each in its own process.
//!
//! `--make-snapshot` and `--idle-poll <n>` are the modes the benchmark
//! starts its own child processes in (see `serve::make_snapshot` and
//! `idle`).

use std::io::Write;
use std::process::ExitCode;

use perfbench::report::{host_block, Outcome};
use perfbench::serve::{self, Topology};
use perfbench::train;

const USAGE: &str = "usage: perfbench --workload <train_lsh|serve_single|serve_sharded|all> --seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 3] = ["train_lsh", "serve_single", "serve_sharded"];

/// Runs every workload in a process of its own (so each reports its own
/// memory high-water mark); true if all of them succeeded.
fn run_all(args: &Args) -> bool {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate this executable");
        return false;
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    ok
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    make_snapshot: bool,
    idle_poll: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        make_snapshot: false,
        idle_poll: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--make-snapshot" {
            args.make_snapshot = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--idle-poll" => {
                args.idle_poll = Some(usize::try_from(number()?).map_err(|e| e.to_string())?)
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.idle_poll {
        perfbench::idle::poll_until_stdin_closes(n);
        return ExitCode::SUCCESS;
    }
    if args.make_snapshot {
        let bytes = serve::make_snapshot();
        let mut stdout = std::io::stdout().lock();
        return match stdout.write_all(&bytes).and_then(|()| stdout.flush()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("writing the snapshot: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.workload == "all" {
        return if run_all(&args) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let outcome: Outcome = match args.workload.as_str() {
        "train_lsh" => train::run(args.seed, args.seconds, args.trace),
        "serve_single" => serve::run(Topology::Single, args.seed, args.seconds, args.trace),
        "serve_sharded" => serve::run(Topology::Sharded, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host {}", host_block());
    for (k, v) in &outcome.details {
        println!("  {k:<28} {v}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        println!("  {:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("{}", outcome.result_line(args.trace));
    if outcome.correct(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
