//! `armbar` — command-line front end for the barrier workspace.
//!
//! ```text
//! armbar platforms
//! armbar latency <platform>
//! armbar sweep <platform> [--threads 2,8,32,64] [--algos SENSE,OPT]
//! armbar recommend <platform> [--threads 64]
//! armbar phases <platform> [--threads 64]
//! armbar trace <platform> [--algorithm OPT] [--threads 64] [--episodes 8]
//!              [--format csv|json] [--out FILE]
//! armbar chaos [--churn] [--platforms kunpeng,phytium] [--algos SENSE,OPT]
//!              [--scenarios straggler,crash-evict] [--backend sim|host|both]
//!              [--threads 8] [--seed 0xC4A05] [--format csv|json]
//! armbar conform [--quick] [--phasers] [--platforms kunpeng]
//!                [--algos SENSE,OPT] [--threads 8] [--episodes 2]
//!                [--seeds 1200] [--schedule-seed 0xC0F0] [--budget 64]
//!                [--format csv|json]
//! armbar serve [--teams 2000] [--members 4] [--episodes 200000]
//!              [--shards 8] [--seed 0xBA5E] [--zipf 0.8] [--drop-frac 0.01]
//!              [--format csv|json] [--out FILE]
//! ```

mod cmds;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", cmds::USAGE);
        return ExitCode::FAILURE;
    };
    if let Some(Err(e)) = cmds::check_args(cmd, rest) {
        eprintln!("error: {e}\n{}", cmds::USAGE);
        return ExitCode::from(2);
    }
    let result = match cmd.as_str() {
        "platforms" => cmds::platforms(),
        "latency" => cmds::latency(rest),
        "sweep" => cmds::sweep(rest),
        "recommend" => cmds::recommend(rest),
        "phases" => cmds::phases(rest),
        "trace" => cmds::trace(rest),
        "chaos" => cmds::chaos(rest),
        "conform" => cmds::conform(rest),
        "serve" => cmds::serve(rest),
        "help" | "--help" | "-h" => {
            println!("{}", cmds::USAGE);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", cmds::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
