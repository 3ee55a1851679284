//! Micro-benchmarks of the design choices DESIGN.md calls out:
//!
//! * the three `chooseThread` designs (§3.1–3.2, Figs. 2/3): lazy pays for
//!   blocked threads, Benno scans priorities, the bitmap is constant;
//! * the IPC fastpath (§6.1);
//! * capability decode depth (Fig. 7): cycles grow linearly with depth;
//! * the 1 KiB clear/copy chunk (§3.5: ~20 µs at 532 MHz on the target —
//!   our model's figure is printed for comparison);
//! * the IPET ILP solver: warm-started branch and bound vs the cold
//!   (from-scratch per node) baseline on the real after-config system-call
//!   instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rt_bench::workloads::{badged_queue_kernel, DeepCspace};
use rt_hw::HwConfig;
use rt_kernel::cap::{Badge, CapType, Rights};
use rt_kernel::kernel::{EntryPoint, Kernel, KernelConfig, SchedKind};
use rt_kernel::syscall::Syscall;
use rt_kernel::tcb::ThreadState;
use rt_wcet::AnalysisConfig;

/// Simulated-cycle cost of one `chooseThread` under each design, with
/// `blocked` stale entries in the lazy queue.
fn choose_thread_cycles(sched: SchedKind, blocked: u32) -> u64 {
    let cfg = KernelConfig {
        sched,
        ..KernelConfig::after()
    };
    let (mut k, server, _) = badged_queue_kernel(cfg, HwConfig::default(), 0, 0);
    // Populate the run queue: one runnable thread, plus (lazy only)
    // blocked stragglers that lazy scheduling leaves queued.
    let runnable = k.boot_tcb("runnable", 5);
    k.objs.tcb_mut(runnable).state = ThreadState::Running;
    k.enqueue_on(0, runnable);
    if sched == SchedKind::Lazy {
        for i in 0..blocked {
            let t = k.boot_tcb(&format!("stale{i}"), 6);
            k.objs.tcb_mut(t).state = ThreadState::Running;
            k.enqueue_on(0, t);
            k.objs.tcb_mut(t).state = ThreadState::BlockedOnReply;
        }
    }
    // Block the server (current) and yield into the scheduler.
    let t0 = k.machine.now();
    let _ = k.handle_syscall(Syscall::Yield);
    let _ = server;
    k.machine.now() - t0
}

/// Simulated-cycle cost of decoding a cap at the given cspace depth.
fn decode_cycles(depth: u32) -> u64 {
    let mut k = Kernel::new(KernelConfig::after(), HwConfig::default());
    let ep = k.boot_endpoint();
    let cap = CapType::Endpoint {
        obj: ep,
        badge: Badge::NONE,
        rights: Rights::ALL,
    };
    let root = if depth == 1 {
        let cn = k.boot_cnode(8);
        rt_kernel::cap::insert_cap(&mut k.objs, rt_kernel::cap::SlotRef::new(cn, 1), cap, None);
        CapType::CNode {
            obj: cn,
            guard_bits: 24,
            guard: 0,
        }
    } else {
        assert_eq!(depth, 32);
        let mut cs = DeepCspace::new(&mut k);
        cs.insert(&mut k, 1, cap);
        cs.root_cap
    };
    let tcb = k.boot_tcb("t", 10);
    k.objs.tcb_mut(tcb).cspace_root = root;
    k.objs.tcb_mut(tcb).state = ThreadState::Running;
    k.force_current_for_test(tcb);
    k.machine.pollute(0x4000_0000);
    let t0 = k.machine.now();
    // A Signal on a non-notification just decodes and fails — pure decode
    // plus fixed overhead.
    let _ = k.handle_syscall(Syscall::Signal { cptr: 1 });
    k.machine.now() - t0
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("sched_compare");
    g.sample_size(10);
    for blocked in [0u32, 64, 256] {
        for sched in [SchedKind::Lazy, SchedKind::Benno, SchedKind::BennoBitmap] {
            g.bench_with_input(
                BenchmarkId::new(format!("{sched:?}"), blocked),
                &blocked,
                |b, &n| b.iter(|| choose_thread_cycles(sched, n)),
            );
        }
    }
    g.finish();

    let mut g = c.benchmark_group("cap_decode_depth");
    g.sample_size(10);
    for depth in [1u32, 32] {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &d| {
            b.iter(|| decode_cycles(d))
        });
    }
    g.finish();

    // The real IPET instance the headline bound comes from: system call,
    // after-kernel, L2 off, manual constraints on.
    let ilp = rt_wcet::ipet_ilp(EntryPoint::Syscall, &AnalysisConfig::after_l2_off());
    let mut g = c.benchmark_group("ilp_solver");
    g.sample_size(10);
    g.bench_function("syscall_after_cold", |b| {
        b.iter(|| ilp.model.solve_cold().expect("solvable").objective_i64())
    });
    g.bench_function("syscall_after_warm", |b| {
        b.iter(|| ilp.model.solve().expect("solvable").objective_i64())
    });
    g.finish();

    // Print the simulated-cycle summary (the quantities the paper is
    // about; the criterion timings above measure the simulator itself).
    println!("\nSimulated-cycle summary:");
    for (sched, blocked) in [
        (SchedKind::Lazy, 0),
        (SchedKind::Lazy, 256),
        (SchedKind::Benno, 0),
        (SchedKind::BennoBitmap, 0),
    ] {
        println!(
            "  chooseThread {sched:?} with {blocked} stale entries: {} cycles",
            choose_thread_cycles(sched, blocked)
        );
    }
    for depth in [1, 32] {
        println!(
            "  cap decode at depth {depth}: {} cycles (cold, polluted)",
            decode_cycles(depth)
        );
    }
    // Solver work counters (machine-independent, unlike the wall times
    // above): the warm-started solver must pivot far less than the cold
    // baseline on the same instance.
    let cold = ilp.model.solve_cold().expect("solvable").stats;
    let warm = ilp.model.solve().expect("solvable").stats;
    println!(
        "  ILP cold: {} nodes, {} pivots, {:.1} ms",
        cold.nodes,
        cold.pivots(),
        cold.wall.as_secs_f64() * 1e3
    );
    println!(
        "  ILP warm: {} nodes, {} pivots ({} primal + {} dual), \
         warm-start rate {:.0}%, {:.1} ms",
        warm.nodes,
        warm.pivots(),
        warm.primal_pivots,
        warm.dual_pivots,
        warm.warm_hit_rate() * 100.0,
        warm.wall.as_secs_f64() * 1e3
    );
    println!(
        "  pivot reduction: {:.1}x",
        cold.pivots() as f64 / warm.pivots() as f64
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
