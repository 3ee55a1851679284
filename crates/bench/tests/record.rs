//! `--record` end to end: the `repro` binary run in a scratch directory
//! on the record it finds there.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rt_bench::json::Json;

/// An empty directory of its own for `name`.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(dir: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args.split(' '))
        .current_dir(dir)
        .output()
        .expect("run repro")
}

/// An SMP record, then a single-core one: both blocks present, and the
/// SMP block keeps every byte it was written with.
#[test]
fn a_second_block_leaves_the_first_byte_identical() {
    let dir = scratch("record-smp-then-single-core");
    let path = dir.join("BENCH_sweep.json");
    let smp = repro(&dir, "explore --smp --depth 6 --por sleep --record");
    assert!(smp.status.success(), "{smp:?}");
    let first = std::fs::read_to_string(&path).expect("SMP record written");
    let single = repro(&dir, "explore --depth 6 --por sleep --record");
    assert!(single.status.success(), "{single:?}");
    let second = std::fs::read_to_string(&path).expect("record rewritten");
    Json::parse(&second).expect("record parses");
    let smp_block = first.strip_suffix("\n}\n").expect("an object");
    assert!(second.starts_with(&format!("{smp_block},\n  \"explore\": {{")));
}

/// The top-level keys of the record `args` writes in a fresh directory.
fn recorded_keys(name: &str, args: &str) -> Vec<String> {
    let dir = scratch(name);
    let out = repro(&dir, args);
    assert!(out.status.success(), "{args}: {out:?}");
    let text = std::fs::read_to_string(dir.join("BENCH_sweep.json")).expect("record written");
    match Json::parse(&text).expect("record parses") {
        Json::Obj(members) => members.into_iter().map(|(k, _)| k).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// An SMP scenario searched on its own is filed under `explore_smp`,
/// beside the default SMP set, not under the single-core key.
#[test]
fn an_smp_scenario_is_recorded_under_explore_smp() {
    let args = "explore --scenario smp-ipi-race --depth 4 --record";
    assert_eq!(recorded_keys("record-smp-scenario", args), ["explore_smp"]);
}

/// A single-core scenario is filed under `explore`, even when `--smp`
/// picked the default set the explicit `--scenario` replaced.
#[test]
fn a_single_core_scenario_is_recorded_under_explore() {
    let args = "explore --smp --scenario ep-delete --depth 4 --record";
    assert_eq!(
        recorded_keys("record-single-core-scenario", args),
        ["explore"]
    );
}

/// A record that cannot be read or parsed, or is not an object, exits 2
/// before any run, naming the file and, for a parse error, the byte.
#[test]
fn a_record_that_cannot_be_read_is_never_overwritten() {
    let dir = scratch("record-unreadable");
    let path = dir.join("BENCH_sweep.json");
    for (bad, why) in [
        ("{\"a\": 1,}", "expected a key at byte 8"),
        ("{\"a\": nan}", "expected a value at byte 6"),
        ("[1]", "not a JSON object"),
    ] {
        std::fs::write(&path, bad).expect("write bad record");
        let out = repro(&dir, "explore --depth 1 --scenario ep-delete --record");
        assert_eq!(out.status.code(), Some(2), "{bad}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("BENCH_sweep.json: {why}")), "{err}");
        assert_eq!(std::fs::read_to_string(&path).expect("still there"), bad);
    }
    std::fs::remove_file(&path).expect("remove bad record");
    std::fs::create_dir(&path).expect("a directory where the record goes");
    let out = repro(&dir, "bench --record");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(path.is_dir());
}
