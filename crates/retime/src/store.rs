//! The memoizing retime store: recordings, per-geometry tapes and plans,
//! run-level results, and per-config layer memos.
//!
//! Three tiers, cheapest hit first:
//!
//! 1. **Run memo** — `(StreamKey, frames, ConfigKey) → StreamSummary`
//!    (a run is one frame). A design point asked twice (sweep grids
//!    overlap; verification re-runs) is a clone.
//! 2. **Layer memo** — per [`ConfigKey`], the `lva_isa::LayerMemo` of
//!    layer-region timing effects. Shared across streams at the same
//!    config (the `MemoKey` folds all stream content the effect depends
//!    on), so a repeated layer shape pays its timing once per config.
//! 3. **Recordings** — per [`StreamKey`], the captured trace plus probe
//!    tapes keyed by the memory-geometry fingerprint they were recorded
//!    at, and refit plans keyed by [`RefitGeometry`].
//!
//! Recordings dominate the footprint, so the store enforces a byte budget
//! over them with least-recently-used eviction; run and layer memos are
//! orders of magnitude smaller and are never evicted (eviction-free
//! determinism: a sweep's results are independent of hit/miss history).

use crate::key::{ConfigKey, StreamKey};
use lva_core::experiment::{CapturedRun, CapturedStream};
use lva_core::StreamSummary;
use lva_isa::{LayerMemo, ProbeTape, RefitGeometry, RefitPlan};
use std::collections::HashMap;
use std::sync::Arc;

/// What [`RetimeStore::lookup`] hands back for a refit: the capture, the
/// stored tape matching the requested geometry fingerprint (if any), and
/// the refit plan for the geometry (built on first use).
pub type TraceLookup = (Arc<CapturedRun>, Option<Arc<ProbeTape>>, Arc<RefitPlan>);

/// Default recording budget: generous for full sweeps at the benchmark
/// scales while bounding a runaway grid on a small host.
pub const DEFAULT_CAPACITY_BYTES: usize = 6 << 30;

/// One captured semantic stream with its per-geometry derivatives.
#[derive(Debug)]
pub struct TraceEntry {
    pub cap: Arc<CapturedRun>,
    /// Probe tapes by `MemSystemConfig::state_fingerprint()` — the
    /// capture's own tape plus any recorded by live replays at other
    /// geometries.
    pub tapes: HashMap<String, Arc<ProbeTape>>,
    /// Refit plans by probe-count geometry (line size × hw-prefetch).
    pub plans: HashMap<RefitGeometry, Arc<RefitPlan>>,
    last_use: u64,
}

impl TraceEntry {
    /// The capture's own tape is one of `tapes`, so `cap` contributes only
    /// its trace.
    fn approx_bytes(&self) -> usize {
        self.cap.trace.approx_bytes() + self.tapes.values().map(|t| t.approx_bytes()).sum::<usize>()
    }
}

/// A captured multi-frame stream (`lva-serve`'s unit of work). Streams
/// keep only their capture-geometry tape: serving ladders re-time across
/// timing axes, and a geometry change falls back to live replay.
#[derive(Debug)]
pub struct StreamEntry {
    pub cap: Arc<CapturedStream>,
    /// Fingerprint of the geometry the capture tape is valid at.
    pub tape_fp: String,
    pub plans: HashMap<RefitGeometry, Arc<RefitPlan>>,
    last_use: u64,
}

impl StreamEntry {
    fn approx_bytes(&self) -> usize {
        self.cap.approx_bytes()
    }
}

/// The engine's state. See the module docs for the tier structure.
#[derive(Debug)]
pub struct RetimeStore {
    traces: HashMap<StreamKey, TraceEntry>,
    /// Streaming captures, keyed by stream identity × frame count.
    streams: HashMap<(StreamKey, usize), StreamEntry>,
    /// Results by stream × measured frame count × config.
    run_memo: HashMap<(StreamKey, usize, ConfigKey), StreamSummary>,
    layer_memos: HashMap<ConfigKey, LayerMemo>,
    capacity_bytes: usize,
    tick: u64,
    /// Recordings dropped to stay under the byte budget.
    pub evictions: u64,
    /// Run-memo counters (layer-memo counters live on each [`LayerMemo`]).
    pub run_hits: u64,
    pub run_misses: u64,
}

impl RetimeStore {
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY_BYTES)
    }

    /// A store with an explicit recording byte budget.
    pub fn with_capacity(capacity_bytes: usize) -> Self {
        RetimeStore {
            traces: HashMap::new(),
            streams: HashMap::new(),
            run_memo: HashMap::new(),
            layer_memos: HashMap::new(),
            capacity_bytes,
            tick: 0,
            evictions: 0,
            run_hits: 0,
            run_misses: 0,
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Approximate bytes held by recordings (the evictable tier).
    pub fn approx_bytes(&self) -> usize {
        self.traces.values().map(TraceEntry::approx_bytes).sum::<usize>()
            + self.streams.values().map(StreamEntry::approx_bytes).sum::<usize>()
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    pub fn trace_count(&self) -> usize {
        self.traces.len() + self.streams.len()
    }

    // ---- run memo ----------------------------------------------------

    /// The memoized result of `frames` measured frames at this point (a
    /// run is one frame).
    pub fn cached(
        &mut self,
        sk: &StreamKey,
        frames: usize,
        ck: &ConfigKey,
    ) -> Option<StreamSummary> {
        let hit = self.run_memo.get(&(sk.clone(), frames, ck.clone())).cloned();
        if hit.is_some() {
            self.run_hits += 1;
        } else {
            self.run_misses += 1;
        }
        hit
    }

    pub fn remember(&mut self, sk: StreamKey, frames: usize, ck: ConfigKey, s: StreamSummary) {
        self.run_memo.insert((sk, frames, ck), s);
    }

    // ---- layer memos -------------------------------------------------

    pub fn layer_memo_mut(&mut self, ck: ConfigKey) -> &mut LayerMemo {
        self.layer_memos.entry(ck).or_default()
    }

    /// Aggregate (configs, entries, hits, misses, bytes) over all layer
    /// memos.
    pub fn layer_memo_totals(&self) -> (usize, usize, u64, u64, usize) {
        let mut entries = 0;
        let mut hits = 0;
        let mut misses = 0;
        let mut bytes = 0;
        for m in self.layer_memos.values() {
            entries += m.len();
            hits += m.hits;
            misses += m.misses;
            bytes += m.approx_bytes();
        }
        (self.layer_memos.len(), entries, hits, misses, bytes)
    }

    // ---- recordings --------------------------------------------------

    /// Insert a fresh capture; its own tape is indexed under `tape_fp`.
    pub fn insert_trace(&mut self, sk: StreamKey, cap: CapturedRun, tape_fp: String) {
        let tick = self.next_tick();
        let mut tapes = HashMap::new();
        tapes.insert(tape_fp, Arc::clone(&cap.tape));
        self.traces.insert(
            sk,
            TraceEntry { cap: Arc::new(cap), tapes, plans: HashMap::new(), last_use: tick },
        );
        self.enforce_budget();
    }

    pub fn insert_stream(
        &mut self,
        sk: StreamKey,
        frames: usize,
        cap: CapturedStream,
        tape_fp: String,
    ) {
        let tick = self.next_tick();
        self.streams.insert(
            (sk, frames),
            StreamEntry { cap: Arc::new(cap), tape_fp, plans: HashMap::new(), last_use: tick },
        );
        self.enforce_budget();
    }

    /// Look up a recording for a refit at geometry fingerprint `fp`:
    /// returns the capture, the matching tape (if one is stored), and the
    /// refit plan for `geom` (built on first use). Touches the LRU clock.
    pub fn lookup(&mut self, sk: &StreamKey, fp: &str, geom: RefitGeometry) -> Option<TraceLookup> {
        let tick = self.next_tick();
        let e = self.traces.get_mut(sk)?;
        e.last_use = tick;
        let plan = Arc::clone(
            e.plans.entry(geom).or_insert_with(|| Arc::new(RefitPlan::build(&e.cap.trace, geom))),
        );
        Some((Arc::clone(&e.cap), e.tapes.get(fp).cloned(), plan))
    }

    pub fn lookup_stream(
        &mut self,
        sk: &StreamKey,
        frames: usize,
        geom: RefitGeometry,
    ) -> Option<(Arc<CapturedStream>, String, Arc<RefitPlan>)> {
        let tick = self.next_tick();
        let e = self.streams.get_mut(&(sk.clone(), frames))?;
        e.last_use = tick;
        let plan = Arc::clone(
            e.plans.entry(geom).or_insert_with(|| Arc::new(RefitPlan::build(&e.cap.trace, geom))),
        );
        Some((Arc::clone(&e.cap), e.tape_fp.clone(), plan))
    }

    /// Index a tape recorded by a live replay at geometry `fp`.
    pub fn add_tape(&mut self, sk: &StreamKey, fp: String, tape: Arc<ProbeTape>) {
        if let Some(e) = self.traces.get_mut(sk) {
            e.tapes.insert(fp, tape);
        }
        self.enforce_budget();
    }

    /// Drop least-recently-used recordings until under budget, always
    /// keeping the most recent one (the caller is about to use it).
    fn enforce_budget(&mut self) {
        while self.trace_count() > 1 && self.approx_bytes() > self.capacity_bytes {
            let oldest_trace = self
                .traces
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, e)| (k.clone(), e.last_use));
            let oldest_stream = self
                .streams
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, e)| (k.clone(), e.last_use));
            match (oldest_trace, oldest_stream) {
                (Some((tk, tu)), Some((sk, su))) => {
                    if tu <= su {
                        self.traces.remove(&tk);
                    } else {
                        self.streams.remove(&sk);
                    }
                }
                (Some((tk, _)), None) => {
                    self.traces.remove(&tk);
                }
                (None, Some((sk, _))) => {
                    self.streams.remove(&sk);
                }
                (None, None) => return,
            }
            self.evictions += 1;
        }
    }
}

impl Default for RetimeStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lva_core::{scaled_input, Experiment, HwTarget, Workload};
    use lva_kernels::GemmVariant;
    use lva_nn::{ConvPolicy, ModelId};

    #[test]
    fn a_capture_tape_is_counted_once() {
        let e = Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload {
                model: ModelId::Yolov3Tiny,
                input_hw: scaled_input(ModelId::Yolov3Tiny, 13),
                layer_limit: Some(2),
            },
        );
        let cap = e.run_traced();
        let bytes = cap.approx_bytes();
        let mut store = RetimeStore::new();
        store.insert_trace(StreamKey::of(&e), cap, "fp".into());
        assert_eq!(store.approx_bytes(), bytes);
    }
}
