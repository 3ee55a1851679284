//! # rt-bench — benchmark harnesses for every table and figure
//!
//! This crate turns the kernel (`rt-kernel`), the machine model (`rt-hw`)
//! and the static analysis (`rt-wcet`) into the paper's evaluation:
//!
//! * [`workloads`] builds the worst-case scenarios of §5.4 — adversarial
//!   capability spaces requiring one lookup per address bit (Fig. 7),
//!   full-length IPC with capability grants (§6.1), endpoints with long
//!   badge-carrying queues (§3.4), large retypes (§3.5) — plus the
//!   cache-polluting preamble ("our test programs pollute both the
//!   instruction and data caches with dirty cache lines");
//! * [`observe`] measures observed worst cases on the simulated machine,
//!   taking the maximum over repeated polluted runs as §6.2 does over
//!   100 000 executions;
//! * [`tables`] assembles Table 1, Table 2, Fig. 8, Fig. 9 and the
//!   Figs. 2/3 and 7 micro-measurements and formats them like the paper;
//! * [`sweep`] runs those generators as one fan-out: a [`sweep::SweepCtx`]
//!   (thread pool + shared [`rt_wcet::AnalysisCache`]) is threaded through
//!   every table so common analyses are computed once, and `repro bench`
//!   times the serial vs batched sweep;
//! * [`attribution`] explains *where* the worst-case cycles go: it reruns
//!   the workloads with the machine's trace sink enabled and prints
//!   observed vs computed per-bucket breakdowns (ifetch-miss / dmiss / L2
//!   / pipeline), phase counters and the hottest blocks — the §6-style
//!   anatomy of each bound (see `docs/TRACING.md`);
//! * [`json`] is the value every `--record` run parses, updates and prints
//!   back as `BENCH_sweep.json`, and [`provenance`] the member that says
//!   which command, revision, host and build wrote each block.
//!
//! The `repro` binary prints any of them: `cargo run -p rt-bench --bin
//! repro -- table2` (or `-- attribution`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod json;
pub mod observe;
pub mod provenance;
pub mod sweep;
pub mod tables;
pub mod workloads;
