//! `--record` end to end: the `repro` binary run in a scratch directory
//! on the record it finds there; and the git revision reader behind each
//! block's provenance, on fake `.git` directories.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rt_bench::json::Json;
use rt_bench::provenance::git_rev;

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

/// Member `key` of the object `v`.
fn member<'a>(v: &'a Json, key: &str) -> &'a Json {
    let Json::Obj(members) = v else {
        panic!("not an object: {v:?}")
    };
    let found = members.iter().find(|(k, _)| k == key);
    &found
        .unwrap_or_else(|| panic!("no member {key:?} in {v:?}"))
        .1
}

/// Each block `repro load` and `repro explore` write carries the command
/// line, host CPUs and build profile that wrote it, and a null git
/// revision: the scratch directory is no git checkout. An explore run's
/// wall is the median of its repeats, between its quartiles.
#[test]
fn every_recorded_block_carries_its_provenance() {
    let dir = scratch("record-provenance");
    let runs = [
        (
            "load",
            "load --events 2000 --shards 2 --tenants 4 --workers 1 --record",
        ),
        ("explore", "explore --scenario ep-delete --depth 2 --record"),
        (
            "explore_smp",
            "explore --scenario smp-ipi-race --depth 2 --record",
        ),
    ];
    for (_, args) in runs {
        let out = repro(&dir, args);
        assert!(out.status.success(), "{args}: {out:?}");
    }
    let text = std::fs::read_to_string(dir.join("BENCH_sweep.json")).expect("record written");
    let record = Json::parse(&text).expect("record parses");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    for (key, args) in runs {
        let p = member(member(&record, key), "provenance");
        let Json::Arr(argv) = member(p, "argv") else {
            panic!("{key}: argv is not an array")
        };
        let argv: Vec<&Json> = argv.iter().skip(1).collect();
        let want: Vec<Json> = args.split(' ').map(Json::from).collect();
        assert_eq!(argv, want.iter().collect::<Vec<_>>(), "{key}");
        assert_eq!(member(p, "git_rev"), &Json::Null, "{key}");
        assert_eq!(member(p, "host_cpus"), &Json::from(cpus), "{key}");
        assert_eq!(member(p, "profile"), &Json::from(profile), "{key}");
    }
    for key in ["explore", "explore_smp"] {
        let Json::Arr(runs) = member(member(&record, key), "runs") else {
            panic!("{key}: runs is not an array")
        };
        let ms = |k| match member(&runs[0], k) {
            Json::Num(n) => n.parse::<f64>().expect("a number"),
            v => panic!("{key}: {k} is {v:?}"),
        };
        let (q1, median, q3) = (ms("wall_ms_q1"), ms("wall_ms"), ms("wall_ms_q3"));
        assert!(q1 <= median && median <= q3, "{key}: {q1} {median} {q3}");
    }
}

const A: &str = "0123456789abcdef0123456789abcdef01234567";
const B: &str = "0ac50e1f00000000000000000000000000000000";

/// A fake git directory holding `files`.
fn fake_git(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let dir = scratch(&format!("fake-git-{name}"));
    for (path, body) in files {
        let p = dir.join(path);
        std::fs::create_dir_all(p.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(p, body).expect("write fake git file");
    }
    dir
}

#[test]
fn git_rev_reads_a_detached_head() {
    let g = fake_git("detached", &[("HEAD", &format!("{B}\n"))]);
    assert_eq!(git_rev(&g).as_deref(), Some(B));
}

#[test]
fn git_rev_reads_a_loose_branch_ref() {
    let g = fake_git(
        "loose",
        &[
            ("HEAD", "ref: refs/heads/main\n"),
            ("refs/heads/main", &format!("{A}\n")),
        ],
    );
    assert_eq!(git_rev(&g).as_deref(), Some(A));
}

#[test]
fn git_rev_reads_a_packed_branch_ref() {
    let packed = format!("# pack-refs with: peeled\n{B} refs/heads/other\n{A} refs/heads/main\n");
    let g = fake_git(
        "packed",
        &[("HEAD", "ref: refs/heads/main\n"), ("packed-refs", &packed)],
    );
    assert_eq!(git_rev(&g).as_deref(), Some(A));
}

#[test]
fn git_rev_is_none_when_missing_or_malformed() {
    let g = fake_git("dangling", &[("HEAD", "ref: refs/heads/gone\n")]);
    assert_eq!(git_rev(&g), None);
    let g = fake_git("garbage", &[("HEAD", "not a hash\n")]);
    assert_eq!(git_rev(&g), None);
    assert_eq!(git_rev(&scratch("fake-git-missing").join(".git")), None);
}
