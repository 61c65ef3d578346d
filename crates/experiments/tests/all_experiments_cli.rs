//! The `all_experiments` command line, run for real via
//! `CARGO_BIN_EXE_all_experiments`: bad input is refused before any
//! simulation starts, and `--only` writes exactly its suite's CSVs with
//! the bytes the suite table's pipeline renders.

use std::path::PathBuf;
use std::process::{Command, Output};

use armbar_experiments::{Scale, SUITES};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .output()
        .expect("all_experiments binary runs")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("armbar-all-exp-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_refused(args: &[&str], needle: &str) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2; stderr: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: stderr lacks {needle:?}: {stderr}");
    for (slug, _) in SUITES {
        assert!(stderr.contains(slug), "{args:?}: usage lacks suite {slug}: {stderr}");
    }
    assert!(out.stdout.is_empty(), "{args:?} ran suites before refusing");
}

#[test]
fn unknown_flags_and_slugs_exit_2_listing_the_suites() {
    assert_refused(&["--quik"], "unknown flag \"--quik\"");
    assert_refused(&["--quick", "--only", "model_report,fig99"], "unknown suite \"fig99\"");
    assert_refused(&["--only"], "--only needs a value");
    assert_refused(&["--jobs", "0"], "bad --jobs value");
}

#[test]
fn only_writes_exactly_the_selected_suites_csvs() {
    let dir = scratch_dir("model_report");
    let out =
        run(&["--quick", "--jobs", "1", "--only", "model_report", "--out", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let (_, suite) = SUITES.iter().find(|(slug, _)| *slug == "model_report").unwrap();
    let expected: Vec<(String, String)> = suite(&Scale::quick())
        .iter()
        .enumerate()
        .map(|(i, r)| (format!("model_report_{i}.csv"), r.to_csv()))
        .collect();
    let mut written: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect();
    written.sort();
    assert!(!expected.is_empty());
    assert_eq!(written, expected);
    std::fs::remove_dir_all(&dir).unwrap();
}
