//! Turning a run's logs, counters and spans into named metrics, and
//! printing them.

use crate::trace::{role_span, Span};
use crate::workloads::{ClientLog, Counters, DiskUsage, MirrorTotals, Restart, Workload, CLIENTS};
use bff_net::transport::Role;
use std::collections::HashMap;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
pub struct Outcome {
    /// Every byte read matched, and (churn) every acknowledged snapshot
    /// read back intact after the restart.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable context: configuration, input sizes, percentile
    /// choices, sample counts.
    pub notes: Vec<String>,
}

/// The timed phase is cut into this many equal windows. Latency
/// percentiles are taken over the operations of the quiet ones — the
/// windows in which the hypervisor stole no more CPU time than in the
/// median window — so that a busy host moves them less than a slower
/// program does.
const WINDOWS: usize = 10;

/// Everything [`assemble`] needs.
pub struct LayerInputs {
    pub workload: Workload,
    pub trace: bool,
    pub logs: Vec<ClientLog>,
    pub wall_s: f64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// `(ns since the timed phase started, machine steal ticks)` samples.
    pub steal: Vec<(u64, u64)>,
    /// Seconds spent in untraced and traced epochs.
    pub epoch_s: [f64; 2],
    pub setup_s: f64,
    /// CPU seconds the stack used in the timed phase: this process and
    /// the server children, minus the client threads' time outside
    /// operations.
    pub stack_cpu_s: f64,
    pub peak_rss_bytes: u64,
    pub counters: Counters,
    pub mirror: MirrorTotals,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
    pub usage: DiskUsage,
    pub live_user_bytes: u64,
    pub reads_checked: u64,
    pub restart: Option<Restart>,
    pub notes: Vec<String>,
}

/// Nearest-rank percentile `p` of sorted samples, and how many samples
/// lie beyond it.
fn percentile(sorted: &[u64], p: f64) -> (f64, usize) {
    if sorted.is_empty() {
        return (0.0, 0);
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    (sorted[rank - 1] as f64, sorted.len() - rank)
}

/// The highest of a fixed set of percentiles that has at least ten
/// samples beyond it (the median when even that is too few).
fn tail(sorted: &[u64]) -> (f64, f64, usize) {
    for p in [99.9, 99.0, 95.0, 90.0] {
        let (v, beyond) = percentile(sorted, p);
        if beyond >= 10 {
            return (p, v, beyond);
        }
    }
    let (v, beyond) = percentile(sorted, 50.0);
    (50.0, v, beyond)
}

/// The operations that completed in one window of the timed phase.
struct Window {
    /// Sorted latencies.
    lat: Vec<u64>,
    /// Steal ticks the machine accrued during the window.
    steal: u64,
}

/// Operation latencies split by completion time into [`WINDOWS`] equal
/// windows of the timed phase, with each window's steal time.
fn windows(logs: &[ClientLog], seconds: f64, steal: &[(u64, u64)]) -> Vec<Window> {
    let width = (seconds * 1e9 / WINDOWS as f64).max(1.0);
    // Steal counter at time `t`: the last sample taken at or before it.
    let steal_at = |t: f64| {
        steal
            .iter()
            .take_while(|&&(at, _)| at as f64 <= t)
            .last()
            .map_or(0, |&(_, ticks)| ticks)
    };
    let mut per: Vec<Window> = (0..WINDOWS)
        .map(|w| Window {
            lat: Vec::new(),
            steal: steal_at((w + 1) as f64 * width).saturating_sub(steal_at(w as f64 * width)),
        })
        .collect();
    for l in logs {
        for (&lat, &end) in l.op_ns.iter().zip(&l.op_end_ns) {
            per[((end as f64 / width) as usize).min(WINDOWS - 1)]
                .lat
                .push(lat);
        }
    }
    for w in &mut per {
        w.lat.sort_unstable();
    }
    per
}

/// The latencies of the quiet windows — those with no more steal than
/// the median window — pooled and sorted, with the windows' indices.
fn quiet_pool(windows: &[Window]) -> (Vec<u64>, Vec<usize>) {
    let mut steals: Vec<u64> = windows.iter().map(|w| w.steal).collect();
    steals.sort_unstable();
    let limit = steals[(steals.len() - 1) / 2];
    let quiet: Vec<usize> = (0..windows.len())
        .filter(|&i| windows[i].steal <= limit)
        .collect();
    let mut pool: Vec<u64> = quiet
        .iter()
        .flat_map(|&i| windows[i].lat.iter().copied())
        .collect();
    pool.sort_unstable();
    (pool, quiet)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Span durations and self times by name.
struct SpanStats {
    dur_ns: HashMap<&'static str, Vec<u64>>,
    self_ns: HashMap<&'static str, Vec<u64>>,
    intervals: HashMap<&'static str, Vec<(u64, u64)>>,
}

impl SpanStats {
    /// A span's self time is its duration minus the part of it covered
    /// by its children. Background children (detached tasks) are left
    /// out: nothing waited for them.
    fn new(spans: &[Span]) -> Self {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| !s.background && s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = SpanStats {
            dur_ns: HashMap::new(),
            self_ns: HashMap::new(),
            intervals: HashMap::new(),
        };
        for s in spans {
            let covered = children.get(&s.id).map_or(0, |kids| {
                union_len(
                    kids.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect(),
                )
            });
            out.dur_ns.entry(s.name).or_default().push(s.dur_ns());
            out.self_ns
                .entry(s.name)
                .or_default()
                .push(s.dur_ns().saturating_sub(covered));
            out.intervals
                .entry(s.name)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        for v in out.dur_ns.values_mut().chain(out.self_ns.values_mut()) {
            v.sort_unstable();
        }
        out
    }

    /// Median in microseconds.
    fn p50_us(map: &HashMap<&'static str, Vec<u64>>, name: &str) -> f64 {
        map.get(name).map_or(0.0, |v| percentile(v, 50.0).0 / 1e3)
    }

    fn dur_p50(&self, name: &str) -> f64 {
        Self::p50_us(&self.dur_ns, name)
    }

    fn self_p50(&self, name: &str) -> f64 {
        Self::p50_us(&self.self_ns, name)
    }

    fn busy_ns(&self, name: &str) -> u64 {
        self.intervals
            .get(name)
            .map_or(0, |iv| union_len(iv.clone()))
    }
}

/// Compute the run's metrics: end-to-end ones for an untraced run,
/// per-layer ones for a traced run.
pub fn assemble(inp: LayerInputs) -> Outcome {
    let mut notes = inp.notes;
    let mut op_ns: Vec<u64> = inp
        .logs
        .iter()
        .flat_map(|l| l.op_ns.iter().copied())
        .collect();
    op_ns.sort_unstable();
    let mut term_ns: Vec<u64> = inp
        .logs
        .iter()
        .flat_map(|l| l.terminate_ns.iter().copied())
        .collect();
    term_ns.sort_unstable();
    let ops = op_ns.len() as f64;
    let attempted: u64 = inp.logs.iter().map(|l| l.attempted).sum();
    let failed_ops: u64 = inp.logs.iter().map(|l| l.failed).sum();
    let mismatches: u64 = inp.logs.iter().map(|l| l.mismatches).sum();
    let busy_s: f64 = inp.logs.iter().map(|l| l.busy.as_secs_f64()).sum();
    let verified: u64 = inp.logs.iter().map(|l| l.bytes_verified).sum();
    let snapshots: f64 = inp.logs.iter().map(|l| l.snapshots).sum::<u64>() as f64;
    let c = &inp.counters;
    let churn = inp.workload == Workload::SnapshotChurn;
    let op_name = if churn {
        "snapshot (in a churn cycle)"
    } else {
        "boot"
    };

    let (tail_p, tail_ns, beyond) = tail(&op_ns);
    let windows = windows(&inp.logs, inp.seconds, &inp.steal);
    let (quiet, quiet_windows) = quiet_pool(&windows);
    notes.push(format!(
        "{} op(s) in {:.2} s wall ({} attempted, {} failed); op = {op_name}; \
         {} read(s) / {} byte(s) verified, {} mismatch(es)",
        op_ns.len(),
        inp.wall_s,
        attempted,
        failed_ops,
        inp.reads_checked,
        verified,
        mismatches
    ));
    notes.push(format!(
        "over the whole run: p50 {:.4} ms, p{tail_p} {:.4} ms ({} samples, {beyond} beyond it), \
         {:.1} ops/s of client time in operations",
        percentile(&op_ns, 50.0).0 / 1e6,
        tail_ns / 1e6,
        op_ns.len(),
        ratio(ops, busy_s / CLIENTS as f64),
    ));
    notes.push(format!(
        "op_p50_ms pools the {} op(s) of windows {:?} of {WINDOWS} (p90 over them {:.4} ms; \
         steal ticks per window {:?}; p50 ms per window {:?})",
        quiet.len(),
        quiet_windows,
        percentile(&quiet, 90.0).0 / 1e6,
        windows.iter().map(|w| w.steal).collect::<Vec<_>>(),
        windows
            .iter()
            .map(|w| (percentile(&w.lat, 50.0).0 / 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
    ));
    let mut attempted = attempted;
    let mut failed = failed_ops;
    let mut correct = mismatches == 0;
    if let Some(r) = &inp.restart {
        notes.push(format!(
            "restart: both servers SIGKILLed and respawned on their data dirs in {:.3} s; \
             {} acked snapshot(s) re-read in full: {} mismatch(es), {} unreadable",
            r.restart_s, r.snapshots, r.mismatches, r.failed
        ));
        correct &= r.mismatches == 0 && r.failed == 0;
        attempted += r.snapshots;
        failed += r.failed;
    }
    if churn {
        let (tp, tv, tb) = tail(&term_ns);
        notes.push(format!(
            "terminate p50 {:.3} ms, p{tp} {:.3} ms ({} samples, {tb} beyond); \
             provider segments {} B + refs {} B, journal {} B for {} B of live user data",
            percentile(&term_ns, 50.0).0 / 1e6,
            tv / 1e6,
            term_ns.len(),
            inp.usage.segment_bytes,
            inp.usage.refs_bytes,
            inp.usage.journal_bytes,
            inp.live_user_bytes
        ));
    }

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        })
    };

    if !inp.trace {
        put("op_p50_ms", percentile(&quiet, 50.0).0 / 1e6, "ms");
        put("cpu_ms_per_op", ratio(inp.stack_cpu_s * 1e3, ops), "ms");
        put("net_bytes_per_op", ratio(c.net_bytes as f64, ops), "B");
        put("setup_s", inp.setup_s, "s");
        put(
            "peak_rss_mb",
            inp.peak_rss_bytes as f64 / (1 << 20) as f64,
            "MiB",
        );
    } else {
        let st = SpanStats::new(&inp.spans);
        if inp.dropped_spans > 0 {
            notes.push(format!(
                "{} span(s) dropped past the in-memory cap",
                inp.dropped_spans
            ));
        }
        notes.push(format!(
            "{} span(s) recorded; epochs {:.2} s untraced / {:.2} s traced",
            inp.spans.len(),
            inp.epoch_s[0],
            inp.epoch_s[1]
        ));
        let traced_ns = inp.epoch_s[1] * 1e9;
        put("cloud.deploy_us_p50", st.dur_p50("cloud.deploy"), "us");
        put(
            "cloud.snapshot_self_us_p50",
            st.self_p50("cloud.snapshot"),
            "us",
        );
        put(
            "cloud.terminate_self_us_p50",
            st.self_p50("cloud.terminate"),
            "us",
        );
        put(
            "cloud.terminate_us_p50",
            percentile(&term_ns, 50.0).0 / 1e3,
            "us",
        );
        put("core.read_self_us_p50", st.self_p50("core.read"), "us");
        put(
            "core.remote_bytes_per_boot",
            ratio(inp.mirror.remote_bytes as f64, ops),
            "B",
        );
        put(
            "core.remote_fetches_per_boot",
            ratio(inp.mirror.remote_fetches as f64, ops),
            "count",
        );
        put(
            "core.deduped_frac",
            ratio(
                inp.mirror.deduped_bytes as f64,
                inp.mirror.committed_bytes as f64,
            ),
            "ratio",
        );
        put(
            "context.desc_hit_rate",
            ratio(c.desc_hits as f64, (c.desc_hits + c.desc_misses) as f64),
            "ratio",
        );
        put(
            "context.chunk_cache_hits_per_boot",
            ratio(c.cache_hits as f64, ops),
            "count",
        );
        put(
            "context.prefetch_hit_rate",
            ratio(c.prefetch_hits as f64, c.prefetched_chunks as f64),
            "ratio",
        );
        put(
            "context.prefetch_wasted_per_boot",
            ratio(c.prefetch_wasted as f64, ops),
            "count",
        );
        put(
            "context.dedup_hits_per_snapshot",
            ratio(c.dedup_hits as f64, snapshots),
            "count",
        );
        let frac = |l: (u64, u64)| ratio(l.1 as f64, l.0 as f64);
        put("context.cache_contended_frac", frac(c.cache_lock), "ratio");
        put("board.contended_frac", frac(c.board_lock), "ratio");
        put("cluster.contended_frac", frac(c.cluster_lock), "ratio");
        for (i, role) in Role::ALL.into_iter().enumerate() {
            let span = role_span(role);
            put(
                &format!("{span}.calls_per_op"),
                ratio(c.role_calls[i] as f64, ops),
                "count",
            );
            put(&format!("{span}.call_us_p50"), st.dur_p50(span), "us");
            put(
                &format!("{span}.busy_frac"),
                ratio(st.busy_ns(span) as f64, traced_ns),
                "ratio",
            );
        }
        let calls: u64 = c.role_calls.iter().sum();
        put(
            "transport.bytes_per_boot",
            ratio(c.role_bytes.iter().sum::<u64>() as f64, ops),
            "B",
        );
        put(
            "transport.background_frac",
            ratio(c.role_background.iter().sum::<u64>() as f64, calls as f64),
            "ratio",
        );
        put(
            "transport.errors",
            c.role_errors.iter().sum::<u64>() as f64,
            "count",
        );
        put(
            "fabric.par_join_per_op",
            ratio(c.par_joins as f64, ops),
            "count",
        );
        put(
            "fabric.par_join_us_p50",
            st.dur_p50("fabric.par_join"),
            "us",
        );
        put(
            "fabric.spawn_detached_per_boot",
            ratio(c.detached as f64, ops),
            "count",
        );
        put("fabric.rpcs_per_op", ratio(c.rpcs as f64, ops), "count");
        put(
            "fabric.transfers_per_op",
            ratio(c.transfers as f64, ops),
            "count",
        );
        put(
            "durable.segment_bytes_per_live_byte",
            ratio(inp.usage.segment_bytes as f64, inp.live_user_bytes as f64),
            "ratio",
        );
        put(
            "durable.journal_bytes_per_op",
            ratio(inp.usage.journal_bytes as f64, ops),
            "B",
        );
        put(
            "durable.refs_bytes_per_op",
            ratio(inp.usage.refs_bytes as f64, ops),
            "B",
        );
        put(
            "durable.restart_s",
            inp.restart.as_ref().map_or(0.0, |r| r.restart_s),
            "s",
        );
        let traced_ops: u64 = inp.logs.iter().map(|l| l.traced_ops).sum();
        let untraced_ops: u64 = inp.logs.iter().map(|l| l.untraced_ops).sum();
        let traced_rate = ratio(traced_ops as f64, inp.epoch_s[1]);
        let untraced_rate = ratio(untraced_ops as f64, inp.epoch_s[0]);
        put(
            "bench.trace_overhead_frac",
            if untraced_rate > 0.0 {
                1.0 - traced_rate / untraced_rate
            } else {
                0.0
            },
            "ratio",
        );
    }
    Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        notes,
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        let (p, value, beyond) = tail(&v);
        assert_eq!((p, value, beyond), (99.0, 990.0, 10));
        let v: Vec<u64> = (1..=20_000).collect();
        assert_eq!(tail(&v).0, 99.9);
        assert_eq!(tail(&[5]).0, 50.0);
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_foreground_children_only() {
        let span = |name, id, parent, s, e, background| Span {
            name,
            op: 1,
            id,
            parent,
            start_ns: s,
            end_ns: e,
            background,
        };
        let spans = [
            span("core.read", 1, 0, 0, 10_000, false),
            span("transport.meta", 2, 1, 1_000, 4_000, false),
            span("fabric.par_join", 3, 1, 3_000, 6_000, false),
            span("fabric.detached", 4, 1, 0, 10_000, true),
        ];
        let st = SpanStats::new(&spans);
        assert_eq!(st.self_p50("core.read"), 5.0);
        assert_eq!(st.dur_p50("core.read"), 10.0);
    }

    #[test]
    fn json_line_has_exactly_the_four_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s".into(),
                value: 0.5,
                unit: "s",
            }],
            notes: vec![],
        };
        assert_eq!(
            json_line(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
