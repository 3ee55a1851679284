//! `repro load` refuses a count it cannot run before any run starts:
//! each case below exits 2 naming the flag and its limit, and prints no
//! report. Only refused values run here, so no case simulates anything.

use std::process::Command;

#[test]
fn load_refuses_counts_it_cannot_run() {
    for (args, why) in [
        // Wraps to 1 shard when narrowed to the spec's u32.
        (
            "--shards 4294967297 --tenants 8 --events 200 --workers 1",
            "--shards must be at most 4294967295",
        ),
        // One tenant more than a shard's cspace holds.
        (
            "--tenants 1680 --shards 1 --events 200 --workers 1",
            "--tenants must be at most 1679",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("load")
            .args(args.split(' '))
            .output()
            .expect("run repro");
        assert_eq!(out.status.code(), Some(2), "{args}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(why), "{args}: {err}");
        assert!(out.stdout.is_empty(), "{args}: a run started");
    }
}
