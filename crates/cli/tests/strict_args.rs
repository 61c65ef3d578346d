//! `armbar` refuses what a subcommand does not declare: an unknown flag, a
//! flag missing its value, or a stray positional exits 2 with the usage
//! text, before any work runs. A typo such as `conform --seed 5` (the
//! flag is `--schedule-seed`) must not silently run the default search.

use std::process::Command;

/// Runs the real binary; returns its exit code and stderr.
fn armbar(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_armbar"))
        .args(args)
        .output()
        .expect("failed to spawn the armbar binary");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn undeclared_flags_and_stray_positionals_exit_2() {
    for (args, needle) in [
        (&["conform", "--seed", "5", "--seeds", "1", "--algos", "SENSE"][..], "unknown flag"),
        (&["platforms", "--bogus"][..], "unknown flag"),
        (&["serve", "--teams", "2", "--episodes", "2", "--sed", "1"][..], "unknown flag"),
        (&["serve", "--teams", "2", "--episodes", "2", "extra"][..], "unexpected argument"),
        (&["latency", "kunpeng", "phytium"][..], "unexpected argument"),
        (&["trace", "kunpeng", "--episodes"][..], "needs a value"),
    ] {
        let (code, stderr) = armbar(args);
        assert_eq!(code, Some(2), "armbar {args:?} must be a usage error: {stderr}");
        assert!(stderr.contains(needle), "armbar {args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "armbar {args:?} prints the usage: {stderr}");
    }
}

#[test]
fn declared_flags_still_run() {
    let (code, stderr) = armbar(&["latency", "--platform", "kunpeng920"]);
    assert_eq!(code, Some(0), "{stderr}");
    let (code, stderr) =
        armbar(&["serve", "--teams", "2", "--episodes", "4", "--seed", "0x5", "--jobs", "1"]);
    assert_eq!(code, Some(0), "{stderr}");
}
