#!/usr/bin/env bash
# Tier-1 gate plus lints. Run from the repo root.
set -euo pipefail

cargo build --release
cargo test -q

# The solver's proptests and the warm/cold differential on the real IPET
# instances run again in the release profile, the one repro, the fleet
# and perfbench use. Tier-1 runs them in debug only, where the solver's
# debug assertions hold it; release code must agree without them.
cargo test --release -q -p rt-ilp -p rt-wcet

# The explorer's deep state-set goldens (the searches perfbench times)
# take seconds in release and far longer in debug, so tier-1 skips them.
cargo test --release -q -p rt-tests --test goldens -- --ignored

# The benchmark package is a workspace of its own, so the build above
# does not compile it; it calls the crates' library APIs directly and
# must keep building and passing its own tests against them.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

# Every scratch file below lives in one directory, removed on exit.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Exercise the parallel analysis path (worker pool + shared cache) in the
# integration suite: the golden and differential tests must hold when the
# env caps the pool at 2 workers.
RT_JOBS=2 cargo test -q -p rt-tests --test goldens --test batch_differential

# Golden-output check: the repro binary's rendered tables must match the
# checked-in goldens byte for byte (any worker count; 4 covers stealing).
cargo run --release -q -p rt-bench --bin repro -- table1 --jobs 4 | diff -u tests/goldens/table1.txt -
cargo run --release -q -p rt-bench --bin repro -- table2 --jobs 4 | diff -u tests/goldens/table2.txt -
cargo run --release -q -p rt-bench --bin repro -- fig9 --reps 2 --jobs 4 | diff -u tests/goldens/fig9.txt -
cargo run --release -q -p rt-bench --bin repro -- l2lock --reps 2 --jobs 4 | diff -u tests/goldens/l2lock.txt -
cargo run --release -q -p rt-bench --bin repro -- micro | diff -u tests/goldens/micro.txt -

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
RT_BENCH_OUT="$tmp/explore_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --depth 8 --por sleep --workers 1 >"$tmp/explore_por_1" 2>/dev/null
RT_BENCH_OUT="$tmp/explore_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --depth 8 --por sleep --workers 4 >"$tmp/explore_por_4" 2>/dev/null
diff -u "$tmp/explore_por_1" "$tmp/explore_por_4" || {
    echo "ci: reduced explore report differs between 1 and 4 workers" >&2
    exit 1
}

# Fork-vs-rebuild identity gate: the snapshot engine is an execution
# shortcut, not a semantic one — the same depth-8 search with
# snapshotting disabled (every branch rebuilt from boot and replayed)
# must render byte-identical stdout to the forked runs above, with zero
# counterexamples (already asserted on the diffed output). A separate
# process again, so the identity holds across address spaces.
RT_BENCH_OUT="$tmp/explore_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --depth 8 --por sleep --workers 4 --snapshot-every 0 >"$tmp/explore_rebuild" 2>/dev/null
diff -u "$tmp/explore_por_4" "$tmp/explore_rebuild" || {
    echo "ci: forked and rebuilt explore reports differ at depth 8" >&2
    exit 1
}

# Scale gate: a widened small-scope scenario must push at least a
# million oracle-checked states through the reduced frontier search
# within the smoke budget, and the snapshot-fork engine must clear it in
# at most half the wall the rebuild-from-boot engine needs —
# `--baseline-rebuild` runs both in one process (also asserting
# byte-identical renders) and records both walls in the JSON. The gate
# runs ep-delete-wider (16 queued senders): with in-wave duplicate runs
# cut (DESIGN.md §12), ep-delete-wide (12 senders) has only ~0.59M state
# checks in its whole space; the recorded BENCH_sweep.json explore block
# carries its depth-36 run, which takes 586,256. The recorded fork
# margin there is ~3.7x, and ~3x here, so 2x still catches a fork path
# that has quietly degenerated into replay without flaking on noise.
RT_BENCH_OUT="$tmp/explore_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --depth 64 --scenario ep-delete-wider --por sleep --budget-states 1050000 --workers 4 \
    --baseline-rebuild 2>/dev/null | awk '
    /interleavings=/ {
        ok = 1; st = -1; cex = -1
        for (i = 1; i <= NF; i++) {
            if (split($i, kv, "=") == 2) {
                if (kv[1] == "states") st = kv[2] + 0
                else if (kv[1] == "counterexamples") cex = kv[2] + 0
            }
        }
        if (st < 1000000) { print "ci: widened scenario explored only " st " states (< 1e6)"; bad = 1 }
        if (cex != 0) { print "ci: counterexample in widened scenario: " $0; bad = 1 }
    }
    END {
        if (!ok) { print "ci: no scenario line from the widened run"; bad = 1 }
        exit bad
    }
'
fork_wall=$(sed -n 's/.*"workers": 4, "wall_ms": \([0-9]*\),.*/\1/p' "$tmp/explore_json" | head -1)
rebuild_wall=$(sed -n 's/.*"rebuild_wall_ms": \([0-9]*\),.*/\1/p' "$tmp/explore_json" | head -1)
[ -n "$fork_wall" ] && [ -n "$rebuild_wall" ] || {
    echo "ci: fork/rebuild walls missing from explore JSON" >&2
    exit 1
}
awk -v f="$fork_wall" -v r="$rebuild_wall" 'BEGIN {
    if (f * 2 > r) {
        printf "ci: fork wall %d ms > 0.5x rebuild wall %d ms — snapshot engine lost its edge\n", f, r > "/dev/stderr"
        exit 1
    }
}' || exit 1

# Bench smoke pass: the incremental ILP path must actually engage, and the
# fleet sweep must hold its guarantees at a reduced job count. The run
# writes its JSON to a scratch path (committed BENCH_sweep.json stays as
# recorded), then we assert the structure memo absorbed the cost-config
# axis (hit rate > 0.5) and that every batch/fleet report matched serial
# (`bit_identical_to_serial` is the AND of both sweeps' identity checks).
RT_BENCH_OUT="$tmp/bench_json" cargo run --release -q -p rt-bench --bin repro -- \
    bench --workers 1,2,4 --fleet-jobs 200 >/dev/null
grep -q '"bit_identical_to_serial": true' "$tmp/bench_json" || {
    echo "ci: bench sweep diverged from serial analyze" >&2
    exit 1
}
structure_rate=$(sed -n 's/.*"ilp_structure": .*"hit_rate": \([0-9.]*\).*/\1/p' "$tmp/bench_json" | head -1)
awk -v r="$structure_rate" 'BEGIN { exit !(r > 0.5) }' || {
    echo "ci: ilp_structure hit rate $structure_rate <= 0.5" >&2
    exit 1
}

# Fleet scaling gate. Wall-clock speedup from worker threads only exists
# when the host has CPUs to run them on, so the bounds are CPU-aware:
#   >= 4 CPUs: 4-worker wall must be <= 0.8x the 1-worker wall (scaling
#              must point the right way, with slack for CI noise);
#   <  4 CPUs: 4-worker wall must stay <= 1.35x the 1-worker wall (pure
#              oversubscription overhead; the pre-PR-6 contended pool
#              showed ~1.3x even at fleet=40, so this still catches a
#              reintroduced lock convoy without demanding impossible
#              parallel speedup from a 1-CPU box).
# The 2-worker wall gets its own bound on hosts with >= 2 CPUs: block
# boundaries now snap to structure-group starts, so two workers never
# open on the same presolved skeleton, and with real CPUs behind them
# two workers must not lose to one (<= 1.1x for noise). On a 1-CPU host
# a 2-thread wall measures the host scheduler, not this code — the
# recorded BENCH_sweep.json (host_cpus: 1) shows phantom slowdowns for
# exactly 2 threads that neither syscall, fault nor context-switch
# counters explain — so below 2 CPUs the 2-worker bound is skipped.
host_cpus=$(sed -n 's/.*"host_cpus": \([0-9]*\).*/\1/p' "$tmp/bench_json" | head -1)
fleet_wall_1=$(grep '"speedup_vs_1w"' "$tmp/bench_json" | sed -n 's/.*"workers": 1,.*"wall_ms": \([0-9.]*\).*/\1/p' | head -1)
fleet_wall_2=$(grep '"speedup_vs_1w"' "$tmp/bench_json" | sed -n 's/.*"workers": 2,.*"wall_ms": \([0-9.]*\).*/\1/p' | head -1)
fleet_wall_4=$(grep '"speedup_vs_1w"' "$tmp/bench_json" | sed -n 's/.*"workers": 4,.*"wall_ms": \([0-9.]*\).*/\1/p' | head -1)
[ -n "$host_cpus" ] && [ -n "$fleet_wall_1" ] && [ -n "$fleet_wall_2" ] && [ -n "$fleet_wall_4" ] || {
    echo "ci: fleet scaling fields missing from bench JSON" >&2
    exit 1
}
awk -v c="$host_cpus" -v w1="$fleet_wall_1" -v w2="$fleet_wall_2" -v w4="$fleet_wall_4" 'BEGIN {
    bound4 = (c >= 4) ? 0.8 : 1.35
    if (w4 > bound4 * w1) {
        printf "ci: fleet 4-worker wall %.1f ms > %.2fx 1-worker wall %.1f ms (host_cpus=%d)\n", w4, bound4, w1, c > "/dev/stderr"
        exit 1
    }
    if (c >= 2 && w2 > 1.1 * w1) {
        printf "ci: fleet 2-worker wall %.1f ms > 1.10x 1-worker wall %.1f ms (host_cpus=%d)\n", w2, w1, c > "/dev/stderr"
        exit 1
    }
}' || exit 1

# Load-engine smoke gate (docs/WORKLOADS.md): a fixed-seed 100k-event
# heavy-traffic run must (a) report zero soundness violations — no
# observed interrupt response above its static bound — (b) render
# byte-identical stdout at 1 worker and at 4 workers, and (c) match
# tests/goldens/load_100k.txt, so a simulator change that shifts every
# run alike is caught too. Each invocation
# also self-checks identity across its own worker list; running two
# invocations and diffing proves the property holds across *processes*,
# not just across pools in one address space. JSON goes to a scratch
# path so the committed BENCH_sweep.json stays as recorded.
RT_BENCH_OUT="$tmp/load_json" cargo run --release -q -p rt-bench --bin repro -- \
    load --events 100000 --shards 16 --tenants 32 --seed 42 --workers 1 >"$tmp/load_out_1"
RT_BENCH_OUT="$tmp/load_json" cargo run --release -q -p rt-bench --bin repro -- \
    load --events 100000 --shards 16 --tenants 32 --seed 42 --workers 4 >"$tmp/load_out_4"
diff -u "$tmp/load_out_1" "$tmp/load_out_4" || {
    echo "ci: load report differs between 1 and 4 workers" >&2
    exit 1
}
diff -u tests/goldens/load_100k.txt "$tmp/load_out_1" || {
    echo "ci: load report differs from tests/goldens/load_100k.txt" >&2
    exit 1
}
grep -q 'soundness oracle: PASS' "$tmp/load_out_1" || {
    echo "ci: load soundness oracle did not pass" >&2
    exit 1
}
grep -q '"violations": 0,' "$tmp/load_json" || {
    echo "ci: load JSON block reports violations" >&2
    exit 1
}

# SMP explorer gate (DESIGN.md §14): the which-core scenario set —
# cross-core wakes, IPI-vs-IRQ races, mid-revoke shootdowns, on 2 and 4
# cores — must render byte-identical stdout from two separate processes
# at 1 and 4 workers. At the same depth, tier-1 asserts that every
# scenario holds every invariant and branches
# (`smp_scenarios_explore_clean_and_deterministically`), and the
# explore_small golden pins `counterexamples=0` under the SMP-widened
# latency bounds. JSON goes to a scratch path: the committed
# explore_smp block of BENCH_sweep.json stays as recorded.
RT_BENCH_OUT="$tmp/smp_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --smp --depth 6 --por sleep --workers 1 >"$tmp/smp_out_1" 2>/dev/null
RT_BENCH_OUT="$tmp/smp_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --smp --depth 6 --por sleep --workers 4 >"$tmp/smp_out_4" 2>/dev/null
diff -u "$tmp/smp_out_1" "$tmp/smp_out_4" || {
    echo "ci: SMP explore report differs between 1 and 4 workers" >&2
    exit 1
}
# Fork-vs-rebuild on SMP, as for the single-core set above: every branch
# rebuilt from boot must render what the forks render, so restoring 2-
# and 4-core snapshots into reused scratch kernels is invisible.
RT_BENCH_OUT="$tmp/smp_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --smp --depth 6 --por sleep --workers 4 --snapshot-every 0 >"$tmp/smp_rebuild" 2>/dev/null
diff -u "$tmp/smp_out_4" "$tmp/smp_rebuild" || {
    echo "ci: forked and rebuilt SMP explore reports differ at depth 6" >&2
    exit 1
}
grep -q '"explore_smp": {' "$tmp/smp_json" || {
    echo "ci: explore --smp did not write the explore_smp JSON block" >&2
    exit 1
}
# Fork-vs-rebuild on SMP again at depth 14, the depth perfbench's
# explore-smp searches to exhaustion: deeper restores of 2- and 4-core
# snapshots (and the copy-on-write CNodes inside them) must still render
# what a rebuild from boot renders. The pair takes well under a second.
RT_BENCH_OUT="$tmp/smp_deep_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --smp --depth 14 --por sleep --workers 4 >"$tmp/smp_deep_fork" 2>/dev/null
RT_BENCH_OUT="$tmp/smp_deep_json" cargo run --release -q -p rt-bench --bin repro -- \
    explore --smp --depth 14 --por sleep --workers 4 --snapshot-every 0 >"$tmp/smp_deep_rebuild" 2>/dev/null
diff -u "$tmp/smp_deep_fork" "$tmp/smp_deep_rebuild" || {
    echo "ci: forked and rebuilt SMP explore reports differ at depth 14" >&2
    exit 1
}

cargo fmt --check
cargo clippy --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
