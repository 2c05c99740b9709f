//! The memoizing retime store: recordings and run-level results.
//!
//! Two tiers, cheapest hit first:
//!
//! 1. **Run memo** — `(StreamKey, frames, ConfigKey) → StreamSummary`
//!    (a run is one frame). A design point asked twice (sweep grids
//!    overlap; verification re-runs) is a clone.
//! 2. **Recordings** — per `(StreamKey, frames)`, the captured trace plus
//!    the probe tapes keyed by the memory-geometry fingerprint they were
//!    recorded at (the capture's own, and any a live replay left behind).
//!
//! Recordings dominate the footprint, so the store enforces a byte budget
//! over them with least-recently-used eviction; the run memo is orders of
//! magnitude smaller and is never evicted (eviction-free determinism: a
//! sweep's results are independent of hit/miss history).

use crate::key::{ConfigKey, StreamKey};
use lva_core::{CapturedStream, StreamSummary};
use lva_isa::ProbeTape;
use std::collections::HashMap;
use std::sync::Arc;

/// What [`RetimeStore::lookup`] hands back: the capture and the stored
/// tape matching the requested geometry fingerprint, if any.
pub type Lookup = (Arc<CapturedStream>, Option<Arc<ProbeTape>>);

/// Default recording budget: generous for full sweeps at the benchmark
/// scales while bounding a runaway grid on a small host.
pub const DEFAULT_CAPACITY_BYTES: usize = 6 << 30;

/// One captured semantic stream with its per-geometry tapes.
#[derive(Debug)]
struct Recording {
    cap: Arc<CapturedStream>,
    /// Probe tapes by `MemSystemConfig::state_fingerprint()`.
    tapes: HashMap<String, Arc<ProbeTape>>,
    last_use: u64,
}

impl Recording {
    /// The capture's own tape is one of `tapes`, so `cap` contributes only
    /// its trace.
    fn approx_bytes(&self) -> usize {
        self.cap.trace.approx_bytes() + self.tapes.values().map(|t| t.approx_bytes()).sum::<usize>()
    }
}

/// The engine's state. See the module docs for the tier structure.
#[derive(Debug)]
pub struct RetimeStore {
    /// Captures, keyed by stream identity × measured frame count.
    recordings: HashMap<(StreamKey, usize), Recording>,
    /// Results by stream × measured frame count × config.
    run_memo: HashMap<(StreamKey, usize, ConfigKey), StreamSummary>,
    capacity_bytes: usize,
    tick: u64,
    /// Recordings dropped to stay under the byte budget.
    pub evictions: u64,
    /// Run-memo counters.
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
            recordings: HashMap::new(),
            run_memo: HashMap::new(),
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
        self.recordings.values().map(Recording::approx_bytes).sum()
    }

    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    pub fn trace_count(&self) -> usize {
        self.recordings.len()
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

    /// Always `(0, 0, 0, 0, 0)`: (configs, entries, hits, misses, bytes)
    /// of a per-layer timing memo the store no longer has. The memo never
    /// hit on a committed sweep and was removed; this accessor stays only
    /// because the `perfbench/` workspace still reads it for its
    /// `retime.layer_memo_*` metrics, and goes with those metrics.
    pub fn layer_memo_totals(&self) -> (usize, usize, u64, u64, usize) {
        (0, 0, 0, 0, 0)
    }

    // ---- recordings --------------------------------------------------

    /// Insert a fresh capture of `frames` measured frames; its own tape is
    /// indexed under `tape_fp`.
    pub fn insert(&mut self, sk: StreamKey, frames: usize, cap: CapturedStream, tape_fp: String) {
        let last_use = self.next_tick();
        let tapes = HashMap::from([(tape_fp, Arc::clone(&cap.tape))]);
        self.recordings.insert((sk, frames), Recording { cap: Arc::new(cap), tapes, last_use });
        self.enforce_budget();
    }

    /// Look up the recording of `frames` measured frames for a re-time at
    /// geometry fingerprint `fp`: the capture plus the matching tape, if
    /// one is stored. Touches the LRU clock.
    pub fn lookup(&mut self, sk: &StreamKey, frames: usize, fp: &str) -> Option<Lookup> {
        let tick = self.next_tick();
        let r = self.recordings.get_mut(&(sk.clone(), frames))?;
        r.last_use = tick;
        Some((Arc::clone(&r.cap), r.tapes.get(fp).cloned()))
    }

    /// Index a tape recorded by a live replay at geometry `fp`.
    pub fn add_tape(&mut self, sk: &StreamKey, frames: usize, fp: String, tape: Arc<ProbeTape>) {
        if let Some(r) = self.recordings.get_mut(&(sk.clone(), frames)) {
            r.tapes.insert(fp, tape);
        }
        self.enforce_budget();
    }

    /// Drop least-recently-used recordings until under budget, always
    /// keeping the most recent one (the caller is about to use it).
    fn enforce_budget(&mut self) {
        while self.recordings.len() > 1 && self.approx_bytes() > self.capacity_bytes {
            let oldest = self
                .recordings
                .iter()
                .min_by_key(|(_, r)| r.last_use)
                .map(|(k, _)| k.clone())
                .expect("more than one recording");
            self.recordings.remove(&oldest);
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
    use lva_core::{observe, scaled_input, Captured, Experiment, HwTarget, Workload};
    use lva_kernels::GemmVariant;
    use lva_nn::{ConvPolicy, ModelId};

    fn exp() -> Experiment {
        Experiment::new(
            HwTarget::RvvGem5 { vlen_bits: 2048, lanes: 8, l2_bytes: 1 << 20 },
            ConvPolicy::gemm_only(GemmVariant::opt3()),
            Workload {
                model: ModelId::Yolov3Tiny,
                input_hw: scaled_input(ModelId::Yolov3Tiny, 13),
                layer_limit: Some(2),
            },
        )
    }

    fn capture(e: &Experiment, frames: usize) -> CapturedStream {
        let (summary, (trace, tape)) = e.run_observed(observe::Capture, frames);
        Captured { trace, tape, summary }
    }

    #[test]
    fn a_capture_tape_is_counted_once() {
        let e = exp();
        let cap = capture(&e, 1);
        let bytes = cap.approx_bytes();
        let mut store = RetimeStore::new();
        store.insert(StreamKey::of(&e), 1, cap, "fp".into());
        assert_eq!(store.approx_bytes(), bytes);
    }

    /// Runs and streams share one LRU: under a budget that holds one
    /// recording, inserting a stream capture after a run capture evicts
    /// the run and keeps the stream.
    #[test]
    fn the_newest_recording_survives_a_small_budget() {
        let e = exp();
        let sk = StreamKey::of(&e);
        let (run, stream) = (capture(&e, 1), capture(&e, 2));
        let budget = run.approx_bytes().max(stream.approx_bytes());
        let mut store = RetimeStore::with_capacity(budget);
        store.insert(sk.clone(), 1, run, "fp".into());
        assert_eq!((store.trace_count(), store.evictions), (1, 0), "one recording fits");
        store.insert(sk.clone(), 2, stream, "fp".into());
        assert_eq!((store.trace_count(), store.evictions), (1, 1));
        assert!(store.lookup(&sk, 1, "fp").is_none(), "the older run capture was evicted");
        let (cap, tape) = store.lookup(&sk, 2, "fp").expect("the newest capture is kept");
        assert_eq!(cap.summary.per_frame_cycles.len(), 2);
        assert!(tape.is_some(), "its own tape is indexed under its fingerprint");
        assert!(store.approx_bytes() <= budget);
    }
}
