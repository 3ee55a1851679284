//! The `System`-driven examples end to end: `quickstart` and
//! `mixed_criticality` print only simulated figures, so each binary's
//! stdout must equal its golden in `tests/goldens/` byte for byte.
//! `quickstart` pins the fastpath hits and `Stop`; `mixed_criticality`
//! pins the preemptions and the §2.1 restarts. Neither splits a
//! `Compute` at a programmed interrupt; the `load_small` golden pins
//! that, since rt-load steps threads through the same
//! `rt_kernel::system` step. `ci.sh` diffs the release builds against
//! the same files.

use std::process::Command;

fn check(bin: &str, exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("run the example");
    assert!(out.status.success(), "{bin}: {out:?}");
    let got = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    assert!(
        got == golden,
        "{bin} diverged from tests/goldens/{bin}.txt:\n\
         --- golden ---\n{golden}\n--- got ---\n{got}"
    );
}

#[test]
fn quickstart_matches_golden() {
    check(
        "quickstart",
        env!("CARGO_BIN_EXE_quickstart"),
        include_str!("../../tests/goldens/quickstart.txt"),
    );
}

#[test]
fn mixed_criticality_matches_golden() {
    check(
        "mixed_criticality",
        env!("CARGO_BIN_EXE_mixed_criticality"),
        include_str!("../../tests/goldens/mixed_criticality.txt"),
    );
}
