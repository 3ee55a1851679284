//! What produced a recorded block: the command line, the source revision,
//! the host's CPUs and the build profile. `repro bench`, `repro load` and
//! `repro explore` set [`provenance`] as the `provenance` member of each
//! block they write with `--record`.

use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::obj;

/// `{argv, git_rev, host_cpus, profile}` of this process. `git_rev` is
/// the commit `./.git` names ([`git_rev`]), or null outside a checkout.
pub fn provenance() -> Json {
    let argv = std::env::args().map(|a| Json::from(a.as_str())).collect();
    obj! {
        "argv": Json::Arr(argv),
        "git_rev": git_rev(Path::new(".git")).as_deref(),
        "host_cpus": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
    }
}

/// The commit `HEAD` names in the git directory `git_dir`, read without
/// running git: a detached hash, or a branch resolved through its loose
/// ref or `packed-refs`. `None` when any of these is missing or is not a
/// hash.
pub fn git_rev(git_dir: &Path) -> Option<String> {
    let head = fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref:").map(str::trim) else {
        return is_hash(head).then(|| head.to_string());
    };
    if let Ok(loose) = fs::read_to_string(git_dir.join(refname)) {
        let loose = loose.trim();
        return is_hash(loose).then(|| loose.to_string());
    }
    let packed = fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == refname && is_hash(hash)).then(|| hash.to_string())
    })
}

fn is_hash(s: &str) -> bool {
    s.len() >= 40 && s.bytes().all(|b| b.is_ascii_hexdigit())
}
