//! Metric assembly and the result line. Percentiles are exact
//! nearest-rank values over the samples the benchmark collected itself.

use crate::spans::{Spans, LAYERS};
use mits_sim::MetricsSnapshot;
use std::time::Instant;

/// What a number measures: host time the simulator spends, simulated
/// time of the modelled system, or neither (counts, ratios, memory).
#[derive(Clone, Copy)]
pub enum Clock {
    Host,
    Sim,
    None,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, clock: Clock) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        clock,
    }
}

/// Exact nearest-rank quantile `q` of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Resident-set high-water mark of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The host-time metrics keep the fastest quarter of the rounds and of
/// the set-ups. Neighbours on a shared host only ever slow the program,
/// by up to half in phases of seconds, so the fast part of a run is the
/// part another run can reproduce: the program with least interference.
const FAST_PART: usize = 4;
/// Ops the fast rounds hold at least (more rounds join while fewer), so
/// their pooled p99 has fifty samples beyond it.
const FAST_MIN_OPS: u64 = 5000;

/// The fastest `1 / FAST_PART` of `n` items, at least one.
fn fast_count(n: usize) -> usize {
    n.div_ceil(FAST_PART).max(1)
}

/// One timed round: a whole campus run, or three passes of every
/// lecture seat over the catalogue. Each holds at least 1,000 ops, so its
/// p99 has ten samples beyond it.
#[derive(Default)]
pub struct Round {
    pub ops: u64,
    /// Payload bytes (courseware plus clips) delivered by correct ops.
    pub payload: u64,
    pub wall_s: f64,
    /// Host seconds per op (session or fetch).
    pub op_wall_s: Vec<f64>,
}

/// Everything the untraced run measured.
#[derive(Default)]
pub struct Timed {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    /// Simulated seconds per op.
    pub op_virt_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Peak RSS after set-up and the first round.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// The fastest quarter of the rounds by throughput, grown to hold
    /// `FAST_MIN_OPS` ops where the run has them.
    fn fast_rounds(&self) -> Vec<&Round> {
        let rate = |r: &Round| r.ops as f64 / r.wall_s;
        let mut rounds: Vec<&Round> = self.rounds.iter().collect();
        rounds.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
        let (mut keep, mut ops) = (0, 0);
        while keep < rounds.len() && (keep < fast_count(rounds.len()) || ops < FAST_MIN_OPS) {
            ops += rounds[keep].ops;
            keep += 1;
        }
        rounds.truncate(keep);
        rounds
    }

    /// The median of the fastest quarter of the set-ups.
    fn fast_setup_s(&self) -> f64 {
        let mut setup = self.setup_s.clone();
        setup.sort_by(f64::total_cmp);
        median(&mut setup[..fast_count(self.setup_s.len())])
    }

    /// The end-to-end metrics. Host-time figures pool the fast rounds:
    /// rates are their ops and payload over their wall, and latency
    /// percentiles are exact over all their ops.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let fast = self.fast_rounds();
        let wall_s: f64 = fast.iter().map(|r| r.wall_s).sum();
        let ops: u64 = fast.iter().map(|r| r.ops).sum();
        let payload: u64 = fast.iter().map(|r| r.payload).sum();
        let mut op_wall_s: Vec<f64> = fast
            .iter()
            .flat_map(|r| r.op_wall_s.iter().copied())
            .collect();
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        vec![
            metric("setup_s", self.fast_setup_s(), "s", Clock::Host),
            metric("ops_per_s", ops as f64 / wall_s, "1/s", Clock::Host),
            metric(
                "goodput_mb_s",
                payload as f64 / wall_s / 1e6,
                "MB/s",
                Clock::Host,
            ),
            metric(
                "op_wall_ms_p50",
                quantile(&mut op_wall_s, 0.50) * 1e3,
                "ms",
                Clock::Host,
            ),
            metric(
                "op_wall_ms_p99",
                quantile(&mut op_wall_s, 0.99) * 1e3,
                "ms",
                Clock::Host,
            ),
            metric("peak_rss_mb", self.peak_rss_mb, "MB", Clock::None),
            metric("ok_fraction", ok, "ratio", Clock::None),
        ]
    }

    /// Simulated time per op, for the per-layer report.
    pub fn virt(&self) -> Vec<Metric> {
        let mut v = self.op_virt_s.clone();
        vec![
            metric(
                "virt_ms_p50",
                quantile(&mut v, 0.50) * 1e3,
                "sim_ms",
                Clock::Sim,
            ),
            metric(
                "virt_ms_p99",
                quantile(&mut v, 0.99) * 1e3,
                "sim_ms",
                Clock::Sim,
            ),
        ]
    }
}

/// Host time of one more set-up, dropped once built. The timed loops
/// take one between rounds, so the set-ups behind `setup_s` span the
/// whole run, not only the host's speed at its start.
pub fn extra_setup_s<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<f64, E> {
    let t0 = Instant::now();
    let built = f()?;
    let s = t0.elapsed().as_secs_f64();
    drop(built);
    Ok(s)
}

/// Run a set-up `repeats` times, keeping the last result and every
/// set-up's host time.
pub fn repeated_setup<T, E>(
    repeats: usize,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<(T, Vec<f64>), E> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), times))
}

/// What a traced run measured besides its spans.
pub struct Traced<'a> {
    pub spans: &'a Spans,
    /// Host seconds inside the traced ops.
    pub wall_s: f64,
    /// Traced wall over untraced wall per op, minus 1.
    pub overhead: f64,
    /// Campus wall outside its sessions (0 on `lecture`).
    pub merge_s: f64,
}

/// The per-layer report: span metrics, merge time, simulated time per op
/// and the program counts. Also writes the spans to `spans_out`.
pub fn per_layer(
    traced: Traced<'_>,
    timed: &Timed,
    counts: Vec<Metric>,
    spans_out: Option<&str>,
) -> std::io::Result<Vec<Metric>> {
    let mut metrics = layer_metrics(traced.spans, traced.wall_s, traced.overhead);
    metrics.push(metric(
        "core.campus.merge_s",
        traced.merge_s,
        "s",
        Clock::Host,
    ));
    metrics.extend(timed.virt());
    metrics.extend(counts);
    if let Some(path) = spans_out {
        traced.spans.write_jsonl(path)?;
    }
    Ok(metrics)
}

/// Per-layer host time from a traced run: span self times, calls and
/// share of the traced wall, the shares' sum (coverage), and the tracing
/// overhead. The traced run fills a fixed time, so a faster layer shows
/// as a smaller share more than as a smaller total.
fn layer_metrics(spans: &Spans, traced_wall_s: f64, overhead: f64) -> Vec<Metric> {
    let summary = spans.summary();
    let wall = traced_wall_s.max(1e-12);
    let mut out = Vec::new();
    let mut busy = 0.0;
    for layer in LAYERS {
        let (s, calls) = summary[layer];
        busy += s;
        out.push(metric(format!("{layer}.busy_s"), s, "s", Clock::Host));
        out.push(metric(
            format!("{layer}.calls"),
            calls as f64,
            "count",
            Clock::None,
        ));
        out.push(metric(
            format!("{layer}.share"),
            s / wall,
            "ratio",
            Clock::Host,
        ));
    }
    out.push(metric("trace.coverage", busy / wall, "ratio", Clock::Host));
    out.push(metric("trace.overhead", overhead, "ratio", Clock::Host));
    out
}

/// Program counts read from a public `MetricsSnapshot`. They are pure
/// functions of the inputs, so they repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cells_sent: u64,
    pub cells_dropped: u64,
    pub cells_batched: u64,
    pub per_cell_pdus: u64,
    pub parked: u64,
    /// Link traversals made inside cell trains and cell by cell.
    pub hops_trained: u64,
    pub hops_per_cell: u64,
    pub reassembly_failures: u64,
    pub bytes_journaled: u64,
    pub bytes_replayed: u64,
    pub requests_served: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub failovers: u64,
    pub scatter_queries: u64,
    pub traces_sampled: u64,
}

/// Sum of the counters named `<prefix><middle><suffix>` whose middle
/// part passes `middle_ok`.
fn sum_named(
    snap: &MetricsSnapshot,
    prefix: &str,
    suffix: &str,
    middle_ok: impl Fn(&str) -> bool,
) -> u64 {
    snap.names()
        .filter(|n| {
            n.strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(suffix))
                .is_some_and(&middle_ok)
        })
        .filter_map(|n| snap.counter(n))
        .sum()
}

/// Sum of the counters named `<prefix><index><suffix>`, e.g. every
/// `db.server<i>.requests_served`.
fn sum_indexed(snap: &MetricsSnapshot, prefix: &str, suffix: &str) -> u64 {
    sum_named(snap, prefix, suffix, |i| {
        !i.is_empty() && i.bytes().all(|b| b.is_ascii_digit())
    })
}

impl Counts {
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        Counts {
            cells_sent: c("atm.vc.cells_sent"),
            cells_dropped: c("atm.vc.cells_dropped"),
            cells_batched: c("net.train.cells_batched"),
            per_cell_pdus: c("net.train.per_cell_pdus"),
            parked: c("net.train.parked"),
            hops_trained: sum_named(snap, "atm.link.", ".cells_trained", |_| true),
            hops_per_cell: sum_named(snap, "atm.link.", ".cells_per_cell", |_| true),
            reassembly_failures: c("atm.vc.aal5_reassembly_failures"),
            bytes_journaled: sum_indexed(snap, "db.server", ".wal.bytes_journaled"),
            bytes_replayed: sum_indexed(snap, "db.server", ".wal.bytes_replayed"),
            requests_served: sum_indexed(snap, "db.server", ".requests_served"),
            retries: sum_indexed(snap, "client", ".retries"),
            timeouts: sum_indexed(snap, "client", ".timeouts"),
            cache_hits: sum_indexed(snap, "client", ".cache.hits"),
            cache_misses: sum_indexed(snap, "client", ".cache.misses"),
            failovers: c("system.failovers"),
            scatter_queries: c("system.scatter_queries"),
            traces_sampled: c("campus.traces_sampled"),
        }
    }

    /// The counts as per-layer metrics. `media_loaded` is the clip bytes
    /// handed to `load_doc`, the base of the WAL write amplification.
    pub fn metrics(&self, media_loaded: u64, forensic_bundles: u64) -> Vec<Metric> {
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let n = |name: &str, v: u64, unit| metric(name, v as f64, unit, Clock::None);
        vec![
            n("atm.cells_sent", self.cells_sent, "count"),
            n("atm.cells_dropped", self.cells_dropped, "count"),
            n("atm.train.cells_batched", self.cells_batched, "count"),
            n("atm.train.per_cell_pdus", self.per_cell_pdus, "count"),
            n("atm.train.parked", self.parked, "count"),
            metric(
                "atm.fast_path_share",
                ratio(self.hops_trained, self.hops_trained + self.hops_per_cell),
                "ratio",
                Clock::None,
            ),
            n(
                "aal5.reassembly_failures",
                self.reassembly_failures,
                "count",
            ),
            n("db.wal.bytes_journaled", self.bytes_journaled, "bytes"),
            n("db.wal.bytes_replayed", self.bytes_replayed, "bytes"),
            n("db.requests_served", self.requests_served, "count"),
            metric(
                "db.wal.write_amp",
                ratio(self.bytes_journaled, media_loaded),
                "ratio",
                Clock::None,
            ),
            n("db.client.retries", self.retries, "count"),
            n("db.client.timeouts", self.timeouts, "count"),
            metric(
                "db.client.cache_hit_ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
                "ratio",
                Clock::None,
            ),
            n("core.failovers", self.failovers, "count"),
            n("core.scatter_queries", self.scatter_queries, "count"),
            n("sim.traces_sampled", self.traces_sampled, "count"),
            n("sim.forensic_bundles", forensic_bundles, "count"),
        ]
    }
}

/// The outcome of one benchmark invocation.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Program counts repeated across rounds and every traced session
    /// matched the untraced run.
    pub consistent: bool,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Print one line per metric, then the result object as the last
    /// line of standard output.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            let clock = match m.clock {
                Clock::Host => "host",
                Clock::Sim => "simulated",
                Clock::None => "",
            };
            println!(
                "{workload:<8} {:<30} {:>16.6} {:<6} {clock}",
                m.name, m.value, m.unit
            );
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.consistent && self.failed == 0,
            self.attempted,
            self.failed
        );
    }
}
