//! # stackbench
//!
//! One wall-clock benchmark for the bff storage stack. A single load
//! generator process runs one of three workloads with a closed loop of
//! two client threads, verifies every byte it reads, and prints every
//! metric by name with its unit; the last line of its output is one
//! JSON object (`correct`, `attempted`, `failed`, `metrics`).
//!
//! ```text
//! cargo run --release --manifest-path stackbench/Cargo.toml -- \
//!     --workload boot-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` runs the three in turn. Run from the repository
//! root: durable data directories go under `.bench_data/` there and are
//! deleted when the run ends.
//!
//! ## Workloads
//!
//! | workload | stack | what does the work |
//! |---|---|---|
//! | `boot-cold` | two `serve` child processes over loopback TCP, in memory | transport, metadata descent, provider fetch, prefetch |
//! | `boot-hot` | in-process, direct transport, caches warmed in setup | deploy, mirror reads, node-cache hits and locks |
//! | `snapshot-churn` | two durable child processes, group commit | dedup probe, replica fan-out, fsynced puts, journal, GC, replay |
//!
//! A *boot* deploys an image on a node (`Cloud::add_instance`) and
//! issues the image's boot reads. A *churn cycle* boots the base image
//! or a recently published snapshot, writes a dirty set (one chunk
//! shared by both clients in a round, one private chunk), snapshots,
//! and then publishes the snapshot or, one cycle in four, terminates the
//! instance so its lineage is garbage-collected. Publishing retires the
//! oldest published snapshots; past a retained set their lineages are
//! deleted too. Clone chains stay short and the live set bounded, so a
//! cycle costs the same early and late in a run (snapshot GC walks the
//! live roots of the clone family). After the timed phase the churn run
//! SIGKILLs both servers, respawns them on their data directories, times
//! spawn→`READY`, and re-reads every live acknowledged snapshot in full
//! from a fresh client stack.
//! Input sizes against `chunk_cache_bytes` and `desc_cache_versions`
//! are printed with every run ([`workloads`]).
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! An *op* is a boot on the boot workloads and the snapshot step of a
//! cycle on `snapshot-churn`. Clients run for one second before the
//! timed phase starts; those operations are verified but not measured.
//!
//! | metric | meaning |
//! |---|---|
//! | `op_p50_ms` | median op latency, pooled over the quiet windows of the timed phase: of ten equal windows, those in which the hypervisor stole no more CPU time than in the median window |
//! | `cpu_ms_per_op` | CPU time of this process and the server children per op, minus the client threads' time outside ops |
//! | `net_bytes_per_op` | modelled fabric bytes per op (`TrafficStats`, the paper's Fig. 4 traffic) |
//! | `setup_s` | median of five setups (servers, upload, cache warm-up) |
//! | `peak_rss_mb` | peak resident set of this process plus the server children |
//!
//! The whole-run p50, the highest percentile with at least ten samples
//! beyond it, the p90 of the quiet windows, throughput, and (churn)
//! terminate latency, restart time and bytes on disk are printed as `#`
//! lines. Tails are not gated: on a shared two-vCPU VM, hypervisor steal
//! moves them by more than any usable bound (the snapshot p90 varied by
//! 0.58 of its median over ten runs).
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! A traced run alternates untraced and traced epochs of 250 ms. Spans
//! are taken around the benchmark's own calls into the stack ([`trace`]):
//! `Cloud`/`MirrorBackend` calls, a `Transport` decorator labelled by
//! route role, and a `Fabric` decorator that carries the caller's span
//! into `par_join`/`spawn_detached` tasks. Self time is a span's
//! duration minus the time its foreground children cover. Counters come
//! from `NodeContext`, `MirrorStats` (summed over instances) and the
//! decorators; nothing asks a remote store for server-side state.
//!
//! | layer metric | should move | on |
//! |---|---|---|
//! | `cloud.deploy_us_p50` | `op_p50_ms` | boot-hot |
//! | `cloud.snapshot_self_us_p50` | `op_p50_ms` | snapshot-churn |
//! | `cloud.terminate_self_us_p50`, `cloud.terminate_us_p50` | `cpu_ms_per_op` | snapshot-churn |
//! | `core.read_self_us_p50` | `op_p50_ms` | boot-hot |
//! | `core.remote_bytes_per_boot`, `core.remote_fetches_per_boot` | `net_bytes_per_op` | boot-cold |
//! | `core.deduped_frac`, `context.dedup_hits_per_snapshot` | `durable.segment_bytes_per_live_byte` | snapshot-churn |
//! | `context.desc_hit_rate` | `op_p50_ms` | boot-cold |
//! | `context.chunk_cache_hits_per_boot` | `op_p50_ms` / `net_bytes_per_op` | boot-hot / boot-cold |
//! | `context.prefetch_hit_rate`, `context.prefetch_wasted_per_boot` | `net_bytes_per_op` | boot-cold |
//! | `context.cache_contended_frac`, `board.contended_frac`, `cluster.contended_frac` | `op_p50_ms` and the printed tail | boot-hot |
//! | `transport.<role>.{calls_per_op,call_us_p50,busy_frac}` | `op_p50_ms` | boot-cold (meta, provider), snapshot-churn (provider, vm) |
//! | `transport.bytes_per_boot` | `op_p50_ms` | boot-cold |
//! | `transport.background_frac` | `op_p50_ms` and the printed tail | boot-cold |
//! | `transport.errors` | `failed` | all |
//! | `fabric.par_join_per_op`, `fabric.par_join_us_p50` | `op_p50_ms` | snapshot-churn, boot-cold |
//! | `fabric.spawn_detached_per_boot` | `op_p50_ms` and the printed tail | boot-cold |
//! | `fabric.rpcs_per_op`, `fabric.transfers_per_op` | `net_bytes_per_op` | all |
//! | `durable.segment_bytes_per_live_byte` | provider bytes on disk per live user byte | snapshot-churn |
//! | `durable.journal_bytes_per_op`, `durable.refs_bytes_per_op` | `durable.restart_s` | snapshot-churn |
//! | `bench.trace_overhead_frac` | 1 − traced / untraced ops per second | all |
//!
//! Metrics of a layer a workload does not cross read 0 (no transport on
//! `boot-hot`, no board/cluster lock counters on the remote workloads,
//! no durability on the in-memory ones).

pub mod cluster;
mod cpu;
pub mod gen;
pub mod report;
pub mod trace;
pub mod workloads;
