#!/usr/bin/env bash
# Tier-1 gate plus lints. Run from the repo root.
set -euo pipefail

cargo build --release
cargo test -q

# The solver's proptests and the warm/cold differential on the real IPET
# instances, and the machine model's block differentials (random blocks
# and every kernel block, untraced and traced, against one-instruction
# steps), run again in the release profile, the one repro, the fleet and
# perfbench use. Tier-1 runs them in debug only, where debug assertions
# and overflow checks hold the code; release code must agree without them.
cargo test --release -q -p rt-ilp -p rt-wcet -p rt-hw -p rt-kernel
# The solver's work golden (tests/goldens/ilp_work.txt: nodes, pivots,
# warm hits and worst-path digest per analysis) in the same profile, so
# a release-only change to the pivots cannot pass on the debug run alone.
cargo test --release -q -p rt-tests --test goldens ilp_work
# The batch differential (tests/tests/batch_differential.rs: fleet samples
# at random worker counts, batched reports held to fresh ones) in release
# too, the profile the fleet runs in; it takes about a second.
cargo test --release -q -p rt-tests --test batch_differential
# The implied-bound differential (crates/wcet/src/ipet.rs): all 448 IPET
# structures of the fleet, each solved plain and re-solved under two cost
# vectors, must give the bound, counts and branch-and-bound nodes of the
# formulation that declares every node and edge bound. Tier-1 runs a
# fixed sample of 41 in debug; this runs them all, in about 4 s.
cargo test --release -q -p rt-wcet --lib every_fleet_structure -- --ignored

# The explorer's deep state-set goldens (the searches perfbench times)
# take seconds in release and far longer in debug, so tier-1 skips them.
cargo test --release -q -p rt-tests --test goldens -- --ignored

# The release gates (tests/tests/gates.rs): ep-delete-wider must clear
# 10^6 states with forks at most half the rebuild wall, and
# `repro bench --workers 1,2,4 --fleet-jobs 200` must match serial,
# reuse ILP structures and scale by the CPU-aware fleet bounds. One test
# at a time, so no timing gate shares the CPUs.
cargo test --release -q -p rt-tests --test gates -- --ignored --test-threads=1

# The benchmark package is a workspace of its own, so the build above
# does not compile it; it calls the crates' library APIs directly and
# must keep building and passing its own tests against them.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Every scratch file below lives in one directory, removed on exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# `repro ARGS...` runs the release repro binary; `same A B WHAT` fails
# the gate unless files A and B are byte-identical.
repro() { cargo run --release -q -p rt-bench --bin repro -- "$@"; }
same() { diff -u "$1" "$2" || { echo "ci: $3" >&2; exit 1; }; }

# The benchmark's own checks, each workload for one second, untraced (a
# mode that writes no file). A run exits nonzero on a counterexample, on
# a pass that renders unlike the first, on a load soundness violation or
# on a fleet report that differs from the uncached one; its stdout says
# which.
for workload in explore-wide explore-smp load-mixed wcet-fleet; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 >"$tmp/perfbench" ||
        { cat "$tmp/perfbench"; echo "ci: perfbench $workload failed a check" >&2; exit 1; }
done

# Exercise the parallel analysis path (worker pool + shared cache) in the
# integration suite: the golden and differential tests must hold when the
# env caps the pool at 2 workers.
RT_JOBS=2 cargo test -q -p rt-tests --test goldens --test batch_differential

# Golden-output check: the repro binary's rendered tables must match the
# checked-in goldens byte for byte (any worker count; 4 covers stealing).
repro table1 --jobs 4 | diff -u tests/goldens/table1.txt -
repro table2 --jobs 4 | diff -u tests/goldens/table2.txt -
repro fig9 --reps 2 --jobs 4 | diff -u tests/goldens/fig9.txt -
repro l2lock --reps 2 --jobs 4 | diff -u tests/goldens/l2lock.txt -
repro micro | diff -u tests/goldens/micro.txt -
for target in overhead restart-overhead open-closed constraints latency-bound; do
    repro "$target" --jobs 4 2>/dev/null | diff -u "tests/goldens/${target//-/_}.txt" -
done
# The System-driven examples, as the README runs them (release): tier-1
# (examples/tests/goldens.rs) holds their debug builds to the same files.
for bin in quickstart mixed_criticality; do
    cargo run --release -q -p rt-examples --bin "$bin" | diff -u "tests/goldens/$bin.txt" -
done

# Explorer worker-count gate: the depth-8 sleep-set search must render
# byte-identical reports at 1 and 4 workers — two separate invocations,
# so the identity holds across processes, not just across pools in one
# address space (each invocation also self-checks identity across its
# own worker list). Tier-1 holds the rest of what the explorer must
# show: every scenario branches and stays clean at the smoke depth
# (`all_scenarios_complete_at_smoke_depth`), and at depth 8 the
# sleep-set search expands exactly the unreduced state set in no more
# runs, with no counterexample, on every single-core and SMP scenario
# (`sleep_sets_preserve_every_scenario_state_set_at_depth_8`).
repro explore --depth 8 --por sleep --workers 1 >"$tmp/explore_por_1" 2>/dev/null
repro explore --depth 8 --por sleep --workers 4 >"$tmp/explore_por_4" 2>/dev/null
same "$tmp/explore_por_1" "$tmp/explore_por_4" "reduced explore report differs between 1 and 4 workers"

# Fork-vs-rebuild identity gate: the snapshot engine is an execution
# shortcut, not a semantic one — the same depth-8 search with
# snapshotting disabled (every branch rebuilt from boot and replayed)
# must render byte-identical stdout to the forked runs above, with zero
# counterexamples (already asserted on the diffed output). A separate
# process again, so the identity holds across address spaces.
repro explore --depth 8 --por sleep --workers 4 --snapshot-every 0 >"$tmp/explore_rebuild" 2>/dev/null
same "$tmp/explore_por_4" "$tmp/explore_rebuild" "forked and rebuilt explore reports differ at depth 8"

# Load-engine smoke gate (docs/WORKLOADS.md): a fixed-seed 100k-event
# heavy-traffic run must (a) report zero soundness violations — no
# observed interrupt response above its static bound; `repro load` exits
# 1 otherwise — (b) render byte-identical stdout at 1 worker and at 4
# workers, and (c) match tests/goldens/load_100k.txt, so a simulator
# change that shifts every run alike is caught too. Each invocation
# also self-checks identity across its own worker list; running two
# invocations and diffing proves the property holds across *processes*,
# not just across pools in one address space.
repro load --events 100000 --shards 16 --tenants 32 --seed 42 --workers 1 >"$tmp/load_out_1"
repro load --events 100000 --shards 16 --tenants 32 --seed 42 --workers 4 >"$tmp/load_out_4"
same "$tmp/load_out_1" "$tmp/load_out_4" "load report differs between 1 and 4 workers"
same tests/goldens/load_100k.txt "$tmp/load_out_1" "load report differs from tests/goldens/load_100k.txt"

# SMP explorer gate (DESIGN.md §14): the which-core scenario set —
# cross-core wakes, IPI-vs-IRQ races, mid-revoke shootdowns, on 2 and 4
# cores — must render byte-identical stdout from two separate processes
# at 1 and 4 workers. At the same depth, tier-1 asserts that every
# scenario holds every invariant and branches
# (`smp_scenarios_explore_clean_and_deterministically`), and the
# explore_small golden pins `counterexamples=0` under the SMP-widened
# latency bounds.
repro explore --smp --depth 6 --por sleep --workers 1 >"$tmp/smp_out_1" 2>/dev/null
repro explore --smp --depth 6 --por sleep --workers 4 >"$tmp/smp_out_4" 2>/dev/null
same "$tmp/smp_out_1" "$tmp/smp_out_4" "SMP explore report differs between 1 and 4 workers"
# Fork-vs-rebuild on SMP, as for the single-core set above: every branch
# rebuilt from boot must render what the forks render, so restoring 2-
# and 4-core snapshots into recycled scratch kernels is invisible.
repro explore --smp --depth 6 --por sleep --workers 4 --snapshot-every 0 >"$tmp/smp_rebuild" 2>/dev/null
same "$tmp/smp_out_4" "$tmp/smp_rebuild" "forked and rebuilt SMP explore reports differ at depth 6"
# Fork-vs-rebuild on SMP again at depth 14, the depth perfbench's
# explore-smp searches to exhaustion: deeper restores of 2- and 4-core
# snapshots (and the copy-on-write CNodes inside them) must still render
# what a rebuild from boot renders. The pair takes well under a second.
repro explore --smp --depth 14 --por sleep --workers 4 >"$tmp/smp_deep_fork" 2>/dev/null
repro explore --smp --depth 14 --por sleep --workers 4 --snapshot-every 0 >"$tmp/smp_deep_rebuild" 2>/dev/null
same "$tmp/smp_deep_fork" "$tmp/smp_deep_rebuild" "forked and rebuilt SMP explore reports differ at depth 14"

cargo fmt --check
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
