//! Golden-file regression for the `armbar` CLI's structured output: the
//! `trace` and `chaos` CSV formats, the `conform` tables (fixed, phaser,
//! and weak JSON), the fence report's shrunk reproducers and the `serve`
//! tenant table are pinned byte-for-byte.
//!
//! Unlike `tests/golden_master.rs` (which pins the *model's numbers*
//! through the library API), these tests pin the *CLI contract*: flag
//! parsing, column order, provenance headers, float formatting — anything
//! a downstream script parsing `armbar trace`/`armbar chaos` output would
//! notice. The binary is invoked for real via `CARGO_BIN_EXE_armbar`, with
//! `--jobs 1` and fixed seeds so the bytes are reproducible anywhere.
//!
//! To regenerate after an *intentional* format or model change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p armbar-cli --test golden_cli
//! ```

use std::path::PathBuf;
use std::process::Command;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Runs the real `armbar` binary and returns its stdout.
fn armbar(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_armbar"))
        .args(args)
        .output()
        .expect("failed to spawn the armbar binary");
    assert!(
        out.status.success(),
        "armbar {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("armbar wrote non-UTF-8 output")
}

fn check_golden(name: &str, fresh: &str) {
    let path = fixture_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fresh).expect("failed to write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); run with GOLDEN_REGEN=1", path.display())
    });
    assert_eq!(
        fresh, &committed,
        "CLI output diverged from the committed fixture {name}; if the \
         format or model change is intentional, regenerate with GOLDEN_REGEN=1"
    );
}

#[test]
fn trace_csv_matches_committed_fixture_byte_for_byte() {
    let fresh = armbar(&[
        "trace",
        "--platform",
        "kunpeng920",
        "--algorithm",
        "SENSE,OPT",
        "--threads",
        "8",
        "--episodes",
        "3",
        "--jobs",
        "1",
        "--format",
        "csv",
    ]);
    check_golden("golden_trace_kunpeng_sense_opt.csv", &fresh);
}

#[test]
fn chaos_csv_matches_committed_fixture_byte_for_byte() {
    let fresh = armbar(&[
        "chaos",
        "--platforms",
        "kunpeng920",
        "--algos",
        "SENSE,DIS,OPT",
        "--scenarios",
        "baseline,straggler,crash",
        "--backend",
        "sim",
        "--threads",
        "4",
        "--episodes",
        "3",
        "--seed",
        "0xC4A05",
        "--jobs",
        "1",
        "--format",
        "csv",
    ]);
    check_golden("golden_chaos_kunpeng_sim.csv", &fresh);
}

#[test]
fn conform_csv_matches_committed_fixture_byte_for_byte() {
    let fresh = armbar(&["conform", "--algos", "SENSE,DIS,SHY-CTR", "--seeds", "8", "--jobs", "1"]);
    check_golden("golden_conform_sense_dis_shyctr.csv", &fresh);
}

#[test]
fn conform_phasers_csv_matches_committed_fixture_byte_for_byte() {
    let fresh = armbar(&[
        "conform",
        "--phasers",
        "--threads",
        "4",
        "--episodes",
        "3",
        "--seeds",
        "4",
        "--jobs",
        "1",
    ]);
    check_golden("golden_conform_phasers.csv", &fresh);
}

#[test]
fn conform_weak_json_matches_committed_fixture_byte_for_byte() {
    let fresh = armbar(&[
        "conform",
        "--weak",
        "--algos",
        "SENSE",
        "--threads",
        "4",
        "--seeds",
        "4",
        "--jobs",
        "1",
        "--format",
        "json",
    ]);
    check_golden("golden_conform_weak_sense.json", &fresh);
}

/// The fence report pins shrunk reproducers: every demotion level that
/// fails ships a `[replay: ...]` line minimized by the shared shrink.
#[test]
fn fence_report_matches_committed_fixture_byte_for_byte() {
    let report =
        std::env::temp_dir().join(format!("armbar_golden_fences_{}.md", std::process::id()));
    armbar(&[
        "conform",
        "--seeds",
        "1",
        "--algos",
        "SENSE,DIS",
        "--fence-seeds",
        "4",
        "--jobs",
        "1",
        "--fence-report",
        report.to_str().unwrap(),
    ]);
    let fresh = std::fs::read_to_string(&report).expect("the fence report was not written");
    let _ = std::fs::remove_file(&report);
    check_golden("golden_fences_sense_dis.md", &fresh);
}

/// The serve tenant table: every team's episodes, arrivals, proxy
/// arrivals, drops, evictions and final status under a seeded plan with
/// scripted connection drops.
#[test]
fn serve_csv_matches_committed_fixture_byte_for_byte() {
    let fresh = armbar(&[
        "serve",
        "--teams",
        "300",
        "--episodes",
        "30000",
        "--drop-frac",
        "0.1",
        "--seed",
        "0xD15C0",
    ]);
    check_golden("golden_serve_d15c0.csv", &fresh);
}
