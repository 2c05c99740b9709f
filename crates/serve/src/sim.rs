//! The discrete-event batching simulator.
//!
//! One simulated machine time-shares several model tenants. Requests enter
//! per-tenant FIFO queues at their arrival cycle; whenever the machine is
//! free it forms a batch from the tenant whose head request has waited
//! longest (FIFO across tenants), after shedding every queued request whose
//! deadline has already passed (deadline-aware admission: work that cannot
//! possibly finish in time never reaches the machine). The batch executes
//! for a cost given by the per-tenant calibration profile:
//!
//! ```text
//! batch_cycles(tenant, b) = first + (b - 1) · steady
//!   where first = cold   if the previous batch ran a different tenant
//!                 steady otherwise
//! ```
//!
//! `cold`/`steady` come from a two-frame `Experiment::run_observed` on the
//! real simulator, so a tenant switch pays the measured cold-cache penalty
//! and within-batch frames pay the measured warm cost — the serving tier
//! is a queueing model *calibrated by* the cycle-approximate machine, not
//! a new timing model.
//!
//! Everything is clocked in simulated cycles; the simulator never reads a
//! wall clock, so results are byte-reproducible. Observability is the
//! point: per-request lifecycle records (arrive → batch → execute →
//! complete, emitted through `lva-trace` when a sink is installed),
//! per-tenant latency histograms and deadline accounting, queue-depth
//! telemetry, and a Chrome-trace export with counter tracks.

use std::collections::VecDeque;

use lva_trace::{ChromeTrace, Json};

use crate::arrivals::Request;
use crate::hist::LatencyHistogram;

/// Calibrated execution profile of one tenant on the simulated machine.
#[derive(Debug, Clone, Copy)]
pub struct TenantProfile {
    /// Cycles for a frame on cold caches (first frame after a tenant
    /// switch).
    pub cold_cycles: u64,
    /// Cycles for a steady-state (warm) frame.
    pub steady_cycles: u64,
}

impl TenantProfile {
    /// Cost of a `b`-request batch, given whether the machine last ran a
    /// different tenant.
    pub fn batch_cycles(&self, b: usize, switched: bool) -> u64 {
        assert!(b >= 1);
        let first = if switched { self.cold_cycles } else { self.steady_cycles };
        first + (b as u64 - 1) * self.steady_cycles
    }
}

/// Batching-queue policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum requests per batch (dynamic batching takes whatever is
    /// queued for the chosen tenant, up to this).
    pub max_batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { max_batch: 8 }
    }
}

/// Lifecycle of one completed request (shed requests never execute and are
/// only counted).
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    pub tenant: usize,
    pub arrive: u64,
    /// Cycle the batch containing this request started executing.
    pub start: u64,
    pub complete: u64,
    pub deadline: u64,
}

impl RequestRecord {
    pub fn latency(&self) -> u64 {
        self.complete - self.arrive
    }

    pub fn missed_deadline(&self) -> bool {
        self.complete > self.deadline
    }
}

/// One executed batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    pub tenant: usize,
    pub size: usize,
    pub start: u64,
    pub end: u64,
    /// True if this batch paid the tenant-switch (cold) cost.
    pub switched: bool,
}

/// Per-tenant accounting over one simulation.
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Requests that arrived.
    pub offered: u64,
    /// Requests that executed and completed (on time or late).
    pub completed: u64,
    /// Requests shed at batch formation because their deadline had passed.
    pub shed: u64,
    /// Completed requests that finished on time (`goodput`).
    pub on_time: u64,
    /// Latency histogram over completed requests (cycles).
    pub latency: LatencyHistogram,
}

impl TenantStats {
    fn new() -> Self {
        TenantStats {
            offered: 0,
            completed: 0,
            shed: 0,
            on_time: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// Deadline misses: shed requests plus completed-but-late ones.
    pub fn deadline_misses(&self) -> u64 {
        self.shed + (self.completed - self.on_time)
    }
}

/// Queue/machine telemetry over one simulation.
#[derive(Debug, Clone)]
pub struct QueueStats {
    pub batches: u64,
    /// Batches that paid the tenant-switch penalty.
    pub switches: u64,
    /// Largest total queue depth observed (sampled at arrivals and batch
    /// formations).
    pub max_depth: u64,
    /// Time-weighted mean queue depth over the makespan.
    pub avg_depth: f64,
    pub max_batch: u64,
    pub avg_batch: f64,
    /// Cycles the machine spent executing batches.
    pub busy_cycles: u64,
    /// Cycle the last batch completed (0 if nothing ran).
    pub makespan: u64,
}

impl QueueStats {
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.makespan as f64
        }
    }
}

/// Everything one simulation measured.
#[derive(Debug, Clone)]
pub struct SimResult {
    pub tenants: Vec<TenantStats>,
    pub queue: QueueStats,
    pub batches: Vec<BatchRecord>,
    pub completed: Vec<RequestRecord>,
    /// `(cycle, tenant, arrive)` of every shed request, in shed order.
    pub shed: Vec<(u64, usize, u64)>,
}

/// Run the discrete-event simulation: `arrivals` must be globally sorted
/// (see [`crate::arrivals::merge_arrivals`]); `profiles[t]` calibrates
/// tenant `t`.
pub fn simulate(profiles: &[TenantProfile], arrivals: &[Request], cfg: &ServeConfig) -> SimResult {
    assert!(cfg.max_batch >= 1, "need at least single-request batches");
    assert!(arrivals.iter().all(|r| r.tenant < profiles.len()), "request names an unknown tenant");
    let _span = lva_trace::span("serve.simulate");
    let nt = profiles.len();
    let mut queues: Vec<VecDeque<Request>> = (0..nt).map(|_| VecDeque::new()).collect();
    let mut tenants: Vec<TenantStats> = (0..nt).map(|_| TenantStats::new()).collect();
    let mut batches: Vec<BatchRecord> = Vec::new();
    let mut completed: Vec<RequestRecord> = Vec::new();
    let mut shed: Vec<(u64, usize, u64)> = Vec::new();

    let mut next = 0usize; // next arrival to admit
    let mut now = 0u64; // machine-free cycle
    let mut last_tenant: Option<usize> = None;
    let mut busy = 0u64;

    loop {
        // Admit everything that has arrived by `now`.
        while next < arrivals.len() && arrivals[next].arrive <= now {
            let r = arrivals[next];
            tenants[r.tenant].offered += 1;
            queues[r.tenant].push_back(r);
            next += 1;
        }
        if queues.iter().all(VecDeque::is_empty) {
            if next >= arrivals.len() {
                break; // drained
            }
            // Idle until the next arrival.
            now = arrivals[next].arrive;
            continue;
        }

        // Deadline-aware admission: at batch formation, shed every queued
        // request that is already past its deadline — executing it could
        // only make every other request later.
        for (t, q) in queues.iter_mut().enumerate() {
            while let Some(head) = q.front() {
                if head.deadline > now {
                    break;
                }
                let r = *head;
                q.pop_front();
                tenants[t].shed += 1;
                shed.push((now, t, r.arrive));
                lva_trace::event(
                    "serve.shed",
                    Json::obj()
                        .field("tenant", t as u64)
                        .field("arrive", r.arrive)
                        .field("deadline", r.deadline)
                        .field("shed_at", now),
                );
            }
        }
        if queues.iter().all(VecDeque::is_empty) {
            continue; // everything queued was hopeless; re-admit/idle
        }

        // FIFO across tenants: serve the tenant whose head has waited
        // longest (ties break on the lower tenant index — total order).
        let pick = queues
            .iter()
            .enumerate()
            .filter_map(|(t, q)| q.front().map(|r| (r.arrive, t)))
            .min()
            .map(|(_, t)| t)
            .expect("some queue is non-empty");

        // Dynamic batching: take the whole queue, capped.
        let b = queues[pick].len().min(cfg.max_batch);
        let switched = last_tenant != Some(pick);
        let cost = profiles[pick].batch_cycles(b, switched);
        let start = now;
        let end = start + cost;
        for _ in 0..b {
            let r = queues[pick].pop_front().expect("batch within queue length");
            let rec = RequestRecord {
                tenant: pick,
                arrive: r.arrive,
                start,
                complete: end,
                deadline: r.deadline,
            };
            let st = &mut tenants[pick];
            st.completed += 1;
            if !rec.missed_deadline() {
                st.on_time += 1;
            }
            st.latency.record(rec.latency());
            completed.push(rec);
            lva_trace::event(
                "serve.request",
                Json::obj()
                    .field("tenant", pick as u64)
                    .field("arrive", rec.arrive)
                    .field("start", rec.start)
                    .field("complete", rec.complete)
                    .field("latency", rec.latency())
                    .field("missed", rec.missed_deadline()),
            );
        }
        batches.push(BatchRecord { tenant: pick, size: b, start, end, switched });
        busy += cost;
        last_tenant = Some(pick);
        now = end;
    }

    let queue = queue_stats(&batches, &completed, &shed, busy);
    SimResult { tenants, queue, batches, completed, shed }
}

/// Reconstruct the queue-depth timeline from the event log: +1 at each
/// arrival, −1 when a request leaves the queue (batch start or shed).
/// Returns the `(cycle, depth)` samples at every change point (one sample
/// per cycle, the end-of-cycle value — what a counter track renders) plus
/// the running peak depth, which can exceed every sample when arrivals and
/// a batch formation share a cycle.
fn depth_timeline(
    completed: &[RequestRecord],
    shed: &[(u64, usize, u64)],
) -> (Vec<(u64, u64)>, u64) {
    // A request that arrives and is batched at the same cycle must count
    // in, then out: encode arrivals with phase 0 and departures with
    // phase 1, and sort on (cycle, phase).
    let mut deltas: Vec<(u64, u8, i64)> = Vec::with_capacity(2 * (completed.len() + shed.len()));
    for r in completed {
        deltas.push((r.arrive, 0, 1));
        deltas.push((r.start, 1, -1));
    }
    for &(at, _, arrive) in shed {
        deltas.push((arrive, 0, 1));
        deltas.push((at, 1, -1));
    }
    deltas.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    let mut depth = 0i64;
    let mut peak = 0u64;
    for (cycle, _, d) in deltas {
        depth += d;
        debug_assert!(depth >= 0);
        peak = peak.max(depth as u64);
        match out.last_mut() {
            Some((c, v)) if *c == cycle => *v = depth as u64,
            _ => out.push((cycle, depth as u64)),
        }
    }
    (out, peak)
}

fn queue_stats(
    batches: &[BatchRecord],
    completed: &[RequestRecord],
    shed: &[(u64, usize, u64)],
    busy: u64,
) -> QueueStats {
    let (timeline, max_depth) = depth_timeline(completed, shed);
    let makespan = batches.last().map_or(0, |b| b.end);
    let mut area = 0u128;
    for w in timeline.windows(2) {
        area += (w[0].1 as u128) * (w[1].0 - w[0].0) as u128;
    }
    let avg_depth = if makespan == 0 { 0.0 } else { area as f64 / makespan as f64 };
    let sizes: Vec<u64> = batches.iter().map(|b| b.size as u64).collect();
    let nb = batches.len() as u64;
    QueueStats {
        batches: nb,
        switches: batches.iter().filter(|b| b.switched).count() as u64,
        max_depth,
        avg_depth,
        max_batch: sizes.iter().copied().max().unwrap_or(0),
        avg_batch: if nb == 0 { 0.0 } else { sizes.iter().sum::<u64>() as f64 / nb as f64 },
        busy_cycles: busy,
        makespan,
    }
}

/// Cap on per-request timeline events per tenant track, keeping full-sweep
/// exports Perfetto-sized (the counter tracks are never truncated).
const CHROME_MAX_REQS_PER_TENANT: usize = 2000;

/// Render the simulation as a Chrome trace: one `machine` track of batch
/// executions, one request track per tenant (arrive → complete spans,
/// truncated after [`CHROME_MAX_REQS_PER_TENANT`] per tenant), and
/// `queue_depth` / `batch_size` counter tracks.
pub fn chrome_trace(r: &SimResult, tenant_names: &[&str]) -> ChromeTrace {
    let mut t = ChromeTrace::new();
    t.note("source", "lva-serve discrete-event simulation");
    for b in &r.batches {
        let name = format!(
            "{}×{}{}",
            tenant_names.get(b.tenant).copied().unwrap_or("?"),
            b.size,
            if b.switched { " (switch)" } else { "" }
        );
        t.complete("machine", &name, b.start, b.end - b.start);
        t.counter("batch_size", "size", b.start, b.size as f64);
        t.counter("batch_size", "size", b.end, 0.0);
    }
    for (cycle, depth) in depth_timeline(&r.completed, &r.shed).0 {
        t.counter("queue_depth", "depth", cycle, depth as f64);
    }
    let mut per_tenant = vec![0usize; r.tenants.len()];
    let mut truncated = 0usize;
    for req in &r.completed {
        let n = &mut per_tenant[req.tenant];
        if *n >= CHROME_MAX_REQS_PER_TENANT {
            truncated += 1;
            continue;
        }
        *n += 1;
        let track = format!("req:{}", tenant_names.get(req.tenant).copied().unwrap_or("?"));
        let name = if req.missed_deadline() { "request (late)" } else { "request" };
        t.complete(&track, name, req.arrive, req.latency());
    }
    if truncated > 0 {
        t.note("truncated_request_spans", &truncated.to_string());
    }
    t
}

/// Serialize per-tenant stats with latencies converted to milliseconds at
/// `freq_ghz` (`ms = cycles / (freq_ghz · 1e6)`).
pub fn tenant_stats_json(s: &TenantStats, freq_ghz: f64) -> Json {
    let ms = |cycles: u64| cycles as f64 / (freq_ghz * 1e6);
    Json::obj()
        .field("offered", s.offered)
        .field("completed", s.completed)
        .field("shed", s.shed)
        .field("on_time", s.on_time)
        .field("deadline_misses", s.deadline_misses())
        .field("mean_ms", s.latency.mean() / (freq_ghz * 1e6))
        .field("p50_ms", ms(s.latency.percentile(0.50)))
        .field("p95_ms", ms(s.latency.percentile(0.95)))
        .field("p99_ms", ms(s.latency.percentile(0.99)))
        .field("p999_ms", ms(s.latency.percentile(0.999)))
        .field("max_ms", ms(s.latency.max()))
}

/// Serialize the queue telemetry.
pub fn queue_stats_json(q: &QueueStats) -> Json {
    Json::obj()
        .field("batches", q.batches)
        .field("switches", q.switches)
        .field("max_depth", q.max_depth)
        .field("avg_depth", q.avg_depth)
        .field("max_batch", q.max_batch)
        .field("avg_batch", q.avg_batch)
        .field("busy_cycles", q.busy_cycles)
        .field("makespan", q.makespan)
        .field("utilization", q.utilization())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{merge_arrivals, poisson_arrivals, trace_arrivals};

    fn profile(cold: u64, steady: u64) -> TenantProfile {
        TenantProfile { cold_cycles: cold, steady_cycles: steady }
    }

    #[test]
    fn single_tenant_back_to_back_batches() {
        // Two requests at cycle 0 and 1, machine takes 100 cold / 50 warm.
        let arr = trace_arrivals(0, &[0, 1], 10_000);
        let r = simulate(&[profile(100, 50)], &arr, &ServeConfig { max_batch: 8 });
        // Request 0 forms a size-1 batch at cycle 0 (cold): done at 100.
        // Request 1 (arrived at 1) batches next (warm): done at 150.
        assert_eq!(r.batches.len(), 2);
        assert_eq!(r.batches[0].end, 100);
        assert!(r.batches[0].switched);
        assert_eq!(r.batches[1].end, 150);
        assert!(!r.batches[1].switched);
        assert_eq!(r.tenants[0].completed, 2);
        assert_eq!(r.tenants[0].deadline_misses(), 0);
        assert_eq!(r.queue.busy_cycles, 150);
        assert_eq!(r.queue.makespan, 150);
        assert_eq!(r.queue.utilization(), 1.0);
    }

    #[test]
    fn queued_burst_batches_together() {
        // Ten requests at cycle 0; max_batch 4 → batches of 4, 4, 2.
        let arr = trace_arrivals(0, &[0; 10], 1_000_000);
        let r = simulate(&[profile(100, 50)], &arr, &ServeConfig { max_batch: 4 });
        let sizes: Vec<usize> = r.batches.iter().map(|b| b.size).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        // Cost: (100+3·50) + (50+3·50) + (50+50) = 250 + 200 + 100.
        assert_eq!(r.queue.makespan, 550);
        assert_eq!(r.queue.max_depth, 10);
        assert_eq!(r.tenants[0].completed, 10);
    }

    #[test]
    fn tenant_switch_pays_cold_cost_and_fifo_is_cross_tenant() {
        let a = trace_arrivals(0, &[0], 100_000);
        let b = trace_arrivals(1, &[5], 100_000);
        let arr = merge_arrivals(&[a, b]);
        let r = simulate(&[profile(100, 50), profile(300, 80)], &arr, &ServeConfig::default());
        assert_eq!(r.batches[0].tenant, 0, "earliest head goes first");
        assert_eq!(r.batches[0].end, 100);
        assert_eq!(r.batches[1].tenant, 1);
        assert!(r.batches[1].switched);
        assert_eq!(r.batches[1].end, 100 + 300);
        assert_eq!(r.queue.switches, 2);
    }

    #[test]
    fn hopeless_requests_are_shed_not_executed() {
        // Deadline 10 cycles; service takes 100. The first request occupies
        // the machine until 100, by which time the second (deadline 15) is
        // hopeless and must be shed, not executed.
        let arr = trace_arrivals(0, &[0, 5], 10);
        let r = simulate(&[profile(100, 100)], &arr, &ServeConfig { max_batch: 1 });
        assert_eq!(r.tenants[0].completed, 1);
        assert_eq!(r.tenants[0].shed, 1);
        // The executed one still missed its deadline (completed at 100 > 10).
        assert_eq!(r.tenants[0].on_time, 0);
        assert_eq!(r.tenants[0].deadline_misses(), 2);
        assert_eq!(r.shed.len(), 1);
        assert_eq!(r.shed[0], (100, 0, 5));
    }

    #[test]
    fn conservation_and_determinism_under_poisson_load() {
        let profiles = [profile(900, 400), profile(2500, 1200)];
        let arr = merge_arrivals(&[
            poisson_arrivals(11, 0, 700.0, 500, 20_000),
            poisson_arrivals(12, 1, 2000.0, 200, 60_000),
        ]);
        let run = || simulate(&profiles, &arr, &ServeConfig { max_batch: 6 });
        let r = run();
        for (t, st) in r.tenants.iter().enumerate() {
            assert_eq!(st.offered, st.completed + st.shed, "tenant {t} conserves requests");
            assert_eq!(st.latency.count(), st.completed);
        }
        let total: u64 = r.tenants.iter().map(|t| t.offered).sum();
        assert_eq!(total, 700);
        assert!(r.queue.utilization() > 0.5, "this load keeps the machine busy");
        // Bit-identical on re-run (no hidden host state).
        let r2 = run();
        assert_eq!(r.queue.makespan, r2.queue.makespan);
        assert_eq!(r.tenants[0].latency, r2.tenants[0].latency);
        assert_eq!(r.batches.len(), r2.batches.len());
    }

    #[test]
    fn chrome_export_is_well_formed_with_counter_tracks() {
        let arr = merge_arrivals(&[
            poisson_arrivals(3, 0, 500.0, 120, 30_000),
            poisson_arrivals(4, 1, 900.0, 60, 30_000),
        ]);
        let r =
            simulate(&[profile(800, 300), profile(1500, 700)], &arr, &ServeConfig { max_batch: 4 });
        let t = chrome_trace(&r, &["tiny", "vgg16"]);
        assert_eq!(t.validate(), Ok(()));
        let j = t.to_json();
        let evs = j.get("traceEvents").and_then(Json::as_arr).expect("events");
        let counters =
            evs.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("C")).count();
        assert!(counters > 0, "queue_depth/batch_size counter events present");
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str))
            .collect();
        for track in ["machine", "queue_depth", "batch_size", "req:tiny", "req:vgg16"] {
            assert!(names.contains(&track), "missing track {track}");
        }
    }

    #[test]
    fn lifecycle_events_flow_through_lva_trace() {
        lva_trace::enable_to_memory();
        let arr = trace_arrivals(0, &[0, 5], 10);
        let _ = simulate(&[profile(100, 100)], &arr, &ServeConfig { max_batch: 1 });
        let lines = lva_trace::take_memory();
        let text = lines.join("\n");
        assert!(text.contains("serve.request"), "completed-request event emitted");
        assert!(text.contains("serve.shed"), "shed event emitted");
        assert!(text.contains("serve.simulate"), "simulation span emitted");
    }
}
