//! Semantic replay log: the trace-once / retime-many substrate.
//!
//! Every public [`crate::Machine`] operation can append one compact
//! [`ReplayOp`] carrying exactly the semantic arguments its *timing* depends
//! on (addresses, vector lengths, strides, index vectors, scalar-op counts —
//! never data values, which the timing model is independent of by
//! construction). Re-executing the ops through the very same private timing
//! functions the live machine uses — against a fresh [`lva_sim::MemSystem`]
//! at any design point — reproduces cycles, stall attribution, VPU
//! statistics, and cache counters **bit-identically** to a full simulation
//! of the same stream, while skipping all functional work (register-file
//! traffic, arena reads/writes, bounds checks, kernel host loops).
//!
//! Two replay modes exist:
//!
//! * **Live replay** — the recorded ops drive a real memory hierarchy built
//!   for the target config. Valid for *any* design point whose functional
//!   stream is the recorded one (certified by `lva-depgraph`), including
//!   different line sizes, cache geometries and prefetchers, because line
//!   addresses are recomputed from the semantic arguments at replay time.
//! * **Tape refit** — a [`ProbeTape`] recorded during a capture or live
//!   replay stores the serving [`MemLevel`] of every cache probe (2 bits of
//!   information, stored as one byte). Replaying against the tape skips the
//!   cache arrays entirely: each probe's latency is
//!   [`lva_sim::MemSystem::served_latency`]`(level)` — a pure function of
//!   the per-level latency constants and the [`lva_sim::IdealSpec`] — and
//!   cache statistics come from per-segment snapshots stored in the tape.
//!   Valid only when the target's *state geometry*
//!   ([`lva_sim::MemSystemConfig::state_fingerprint`]) equals the tape's;
//!   latency constants, idealization knobs, lane counts and core CPIs may
//!   all differ.

use crate::stats::{KernelPhase, PhaseTimer, StallBreakdown, VpuStats};
use lva_sim::{MemSystemStats, PrefetchTarget};

/// Vector arithmetic micro-op, the consolidated form of the machine's
/// per-instruction arithmetic API. One enum value plus (vd, a, b, vl)
/// reconstructs the recorded event, the issue-stage source list, the
/// occupancy/latency cost and the FLOP count of the original call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VArithOp {
    /// `vbroadcast` — splat a scalar (functionally fills `vl.max(1)` lanes).
    Broadcast,
    /// `vmv` — register move.
    Mv,
    /// `vfmacc.vf` — `vd += a * vs`.
    MaccVf,
    /// `vfmacc.vv` — `vd += va * vb`.
    MaccVv,
    /// `vfnmsac.vv` — `vd -= va * vb`.
    NmsacVv,
    /// `vfmul.vf`.
    MulVf,
    /// `vfmul.vv`.
    MulVv,
    /// `vfadd.vf`.
    AddVf,
    /// `vfadd.vv`.
    AddVv,
    /// `vfsub.vv`.
    SubVv,
    /// `vfmax.vf`.
    MaxVf,
    /// `vfmax.vv`.
    MaxVv,
    /// `vfdiv.vv` — unpipelined-ish, 8× chime.
    DivVv,
    /// `vfsqrt` — unpipelined-ish, 8× chime.
    Sqrt,
}

/// Operand shape of a [`VArithOp`]: which registers appear as recorded-event
/// sources and as issue-stage dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithShape {
    /// No register sources (broadcast).
    Nullary,
    /// One source `a`.
    Unary,
    /// One source `a` plus the destination as accumulator (`.vf` FMA).
    UnaryAcc,
    /// Two sources `a`, `b`.
    Binary,
    /// Two sources plus the destination as accumulator (`.vv` FMA).
    BinaryAcc,
}

impl VArithOp {
    /// The instruction mnemonic used in recorded [`crate::record::VecEvent`]s.
    pub fn name(self) -> &'static str {
        match self {
            VArithOp::Broadcast => "vbroadcast",
            VArithOp::Mv => "vmv",
            VArithOp::MaccVf => "vfmacc.vf",
            VArithOp::MaccVv => "vfmacc.vv",
            VArithOp::NmsacVv => "vfnmsac.vv",
            VArithOp::MulVf => "vfmul.vf",
            VArithOp::MulVv => "vfmul.vv",
            VArithOp::AddVf => "vfadd.vf",
            VArithOp::AddVv => "vfadd.vv",
            VArithOp::SubVv => "vfsub.vv",
            VArithOp::MaxVf => "vfmax.vf",
            VArithOp::MaxVv => "vfmax.vv",
            VArithOp::DivVv => "vfdiv.vv",
            VArithOp::Sqrt => "vfsqrt",
        }
    }

    /// Operand shape (see [`ArithShape`]).
    pub fn shape(self) -> ArithShape {
        match self {
            VArithOp::Broadcast => ArithShape::Nullary,
            VArithOp::Mv | VArithOp::MulVf | VArithOp::AddVf | VArithOp::MaxVf | VArithOp::Sqrt => {
                ArithShape::Unary
            }
            VArithOp::MaccVf => ArithShape::UnaryAcc,
            VArithOp::MulVv
            | VArithOp::AddVv
            | VArithOp::SubVv
            | VArithOp::MaxVv
            | VArithOp::DivVv => ArithShape::Binary,
            VArithOp::MaccVv | VArithOp::NmsacVv => ArithShape::BinaryAcc,
        }
    }

    /// FLOPs charged per active lane.
    pub fn flops_per_elem(self) -> u64 {
        match self {
            VArithOp::Broadcast | VArithOp::Mv => 0,
            VArithOp::MaccVf | VArithOp::MaccVv | VArithOp::NmsacVv => 2,
            _ => 1,
        }
    }

    /// Whether the op takes the unpipelined 8× chime (div / sqrt).
    pub fn is_slow(self) -> bool {
        matches!(self, VArithOp::DivVv | VArithOp::Sqrt)
    }
}

/// Reduction micro-op (front end waits for the scalar result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `vfredsum`.
    Sum,
    /// `vfredmax`.
    Max,
}

impl ReduceOp {
    /// The instruction mnemonic used in recorded events.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "vfredsum",
            ReduceOp::Max => "vfredmax",
        }
    }
}

/// Indexed-access micro-op family (gather/scatter, element or group-of-4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexedOp {
    /// `vgather` — per-element indexed load.
    Gather,
    /// `vscatter` — per-element indexed store.
    Scatter,
    /// `vgather4` — structured group-of-4 load (SVE tuples + permutes).
    Gather4,
    /// `vscatter4` — structured group-of-4 store.
    Scatter4,
}

/// One recorded semantic operation, exactly 8 bytes: a one-byte tag plus at
/// most 7 bytes of operands, laid out by rustc as `tag + u8 + u16 + u32`.
///
/// **Inline operands.** Register numbers are `u8` and vector lengths `u16`.
/// These casts are lossless because `MachineConfig` validation caps VLEN at
/// 16384 bits (512 single-precision lanes) and the register file has 32
/// registers. Addresses, counts and pool offsets are `u32`; the simulated
/// arena is far below 4 GiB and recording checks every conversion,
/// panicking rather than truncating. Layer indices are `u16`, also checked.
///
/// **Pooled operands.** An op whose operands need more than 7 bytes keeps
/// only a `u32` offset `at` into [`ReplayTrace::pool`], where the wide
/// operands sit as consecutive `u32` words. Only [`ReplayTrace`]'s
/// `push_*` recorders write them and its accessors
/// ([`ReplayTrace::whilelt`], [`ReplayTrace::strided`],
/// [`ReplayTrace::indexed`], [`ReplayTrace::stream`]) read them, so no
/// consumer does offset arithmetic.
///
/// **Fused pair.** The GEMM micro-kernels' inner loop is a `scalar_read` of
/// an A element immediately followed by a `vfmacc.vf` that consumes it.
/// [`ReplayTrace`] records that adjacent pair as one
/// [`ReplayOp::ScalarMacc`], whose `vs` and `vl` share a `u16` (see
/// [`VsVl`]). Replay runs the two timing functions in the recorded order, so
/// the fused op is timing-identical to the pair it replaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayOp {
    /// `setvl(rvl)`.
    Setvl { rvl: u32 },
    /// `whilelt(i, n)`; `i`, `n` pooled.
    Whilelt { at: u32 },
    /// `vle(vd, addr, vl)`.
    VLoad { vd: u8, vl: u16, addr: u32 },
    /// `vse(vs, addr, vl)`.
    VStore { vs: u8, vl: u16, addr: u32 },
    /// `vlse(vd, addr, stride, vl)`; `addr`, `stride` pooled.
    VLoadStrided { vd: u8, vl: u16, at: u32 },
    /// `vsse(vs, addr, stride, vl)`; `addr`, `stride` pooled.
    VStoreStrided { vs: u8, vl: u16, at: u32 },
    /// `vgather`/`vscatter`/`vgather4`/`vscatter4`; the base address, the
    /// lane count and the lane indices are pooled.
    VIndexed { op: IndexedOp, reg: u8, at: u32 },
    /// Any vector arithmetic op (see [`VArithOp`]).
    VArith { op: VArithOp, vd: u8, a: u8, b: u8, vl: u16 },
    /// `vfredsum`/`vfredmax`.
    Reduce { op: ReduceOp, vs: u8, vl: u16 },
    /// `prefetch(addr, target)`.
    Prefetch { addr: u32, target: PrefetchTarget },
    /// One `charge_scalar_ops(n)` call (one fractional-cycle addition).
    ScalarOps { n: u32 },
    /// One `charge_scalar_flops(n)` call.
    ScalarFlops { n: u32 },
    /// `scalar_read(addr)`.
    ScalarRead { addr: u32 },
    /// `scalar_write(addr, _)`.
    ScalarWrite { addr: u32 },
    /// `scalar_read(addr)` immediately followed by `vfmacc.vf(vd, _, vs, vl)`.
    ScalarMacc { vd: u8, vs_vl: VsVl, addr: u32 },
    /// `scalar_stream(addr, words, kind)`; `addr`, `words` pooled.
    ScalarStream { write: bool, at: u32 },
    /// `phase(p, ..)` opened.
    PhaseBegin { phase: KernelPhase },
    /// `phase(p, ..)` closed.
    PhaseEnd { phase: KernelPhase },
    /// A network layer opened (`desc` indexes [`ReplayTrace::descs`]).
    LayerBegin { index: u16, desc: u32 },
    /// The innermost open layer closed.
    LayerEnd,
    /// `note_spill()`.
    Spill,
    /// `reset_timing()` — segment boundary (setup/measure, frame/frame).
    ResetTiming,
}

const _: () = assert!(std::mem::size_of::<ReplayOp>() == 8);

/// The `vs` and `vl` operands of [`ReplayOp::ScalarMacc`] packed into one
/// `u16`: `vl` in the low 10 bits, `vs` in the next 5. Lossless under the
/// same invariants as the inline operands (at most 512 lanes, 32 registers);
/// recording checks both bounds, panicking rather than truncating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct VsVl(u16);

impl VsVl {
    const VL_BITS: u32 = 10;

    fn new(vs: usize, vl: usize) -> Self {
        assert!(vs < 32 && vl < 1 << Self::VL_BITS, "replay log: vs {vs} / vl {vl} out of range");
        VsVl((vs as u16) << Self::VL_BITS | vl as u16)
    }

    /// The source register.
    #[inline]
    pub fn vs(self) -> u8 {
        (self.0 >> Self::VL_BITS) as u8
    }

    /// The vector length.
    #[inline]
    pub fn vl(self) -> u16 {
        self.0 & ((1 << Self::VL_BITS) - 1)
    }
}

/// A captured semantic trace: the op stream plus the side pools ops
/// reference. One trace plus the capture-time functional run's static
/// metadata is sufficient to re-time the run at any certified design point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayTrace {
    /// The semantic op stream, in program order.
    pub ops: Vec<ReplayOp>,
    /// Wide operands of pooled ops (see [`ReplayOp`]), in recording order.
    pub pool: Vec<u32>,
    /// Layer description strings referenced by [`ReplayOp::LayerBegin`].
    pub descs: Vec<String>,
}

impl ReplayTrace {
    /// Approximate heap footprint in bytes (capacity-based), for memory
    /// accounting in trace stores.
    pub fn approx_bytes(&self) -> usize {
        self.ops.capacity() * std::mem::size_of::<ReplayOp>()
            + self.pool.capacity() * 4
            + self.descs.iter().map(|d| d.len() + 24).sum::<usize>()
    }

    /// Release the spare capacity the buffers grew into while recording.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.pool.shrink_to_fit();
        self.descs.shrink_to_fit();
    }

    /// Append `words` to the pool and return their offset. Panics if the
    /// pool would exceed `u32` addressing (≈ 16 GiB — unreachable).
    fn pool_push(&mut self, words: &[u32]) -> u32 {
        let at = u32::try_from(self.pool.len()).expect("replay pool exceeds u32 range");
        self.pool.extend_from_slice(words);
        at
    }

    /// The two pooled words at `at`.
    #[inline]
    fn pair(&self, at: u32) -> (u32, u32) {
        let at = at as usize;
        (self.pool[at], self.pool[at + 1])
    }

    /// Record `whilelt(i, n)`.
    pub(crate) fn push_whilelt(&mut self, i: u64, n: u64) {
        let at = self.pool_push(&[r32(i, "whilelt i"), r32(n, "whilelt n")]);
        self.ops.push(ReplayOp::Whilelt { at });
    }

    /// Record a strided load (`store == false`) or store of register `reg`.
    pub(crate) fn push_strided(
        &mut self,
        store: bool,
        reg: usize,
        vl: usize,
        addr: u64,
        stride: u64,
    ) {
        let at = self.pool_push(&[r32(addr, "strided addr"), r32(stride, "strided stride")]);
        let (reg, vl) = (reg as u8, vl as u16);
        self.ops.push(if store {
            ReplayOp::VStoreStrided { vs: reg, vl, at }
        } else {
            ReplayOp::VLoadStrided { vd: reg, vl, at }
        });
    }

    /// Record an indexed access with its lane indices copied verbatim —
    /// including `u32::MAX` inactive-lane sentinels, in lane order.
    pub(crate) fn push_indexed(&mut self, op: IndexedOp, reg: usize, base: u64, idx: &[u32]) {
        let at = self.pool_push(&[r32(base, "indexed base"), r32(idx.len() as u64, "indexed vl")]);
        self.pool.extend_from_slice(idx);
        self.ops.push(ReplayOp::VIndexed { op, reg: reg as u8, at });
    }

    /// Record `scalar_stream(addr, words, kind)`.
    pub(crate) fn push_stream(&mut self, addr: u64, words: u64, write: bool) {
        let at =
            self.pool_push(&[r32(addr, "scalar_stream addr"), r32(words, "scalar_stream words")]);
        self.ops.push(ReplayOp::ScalarStream { write, at });
    }

    /// Record `vfmacc.vf(vd, _, vs, vl)`. Directly after a `scalar_read` the
    /// pair becomes one [`ReplayOp::ScalarMacc`] (the read's op is rewritten
    /// in place); anywhere else it is a plain [`ReplayOp::VArith`].
    pub(crate) fn push_macc_vf(&mut self, vd: usize, vs: usize, vl: usize) {
        if let Some(last) = self.ops.last_mut() {
            if let ReplayOp::ScalarRead { addr } = *last {
                *last = ReplayOp::ScalarMacc { vd: vd as u8, vs_vl: VsVl::new(vs, vl), addr };
                return;
            }
        }
        let (vd, a, vl) = (vd as u8, vs as u8, vl as u16);
        self.ops.push(ReplayOp::VArith { op: VArithOp::MaccVf, vd, a, b: 0, vl });
    }

    /// Record a layer opening, interning its description string.
    pub(crate) fn push_layer(&mut self, index: usize, desc: &str) {
        let index = u16::try_from(index)
            .unwrap_or_else(|_| panic!("replay log: layer index {index} exceeds u16"));
        self.descs.push(desc.to_string());
        let desc = r32((self.descs.len() - 1) as u64, "layer desc index");
        self.ops.push(ReplayOp::LayerBegin { index, desc });
    }

    /// `(i, n)` of a [`ReplayOp::Whilelt`].
    #[inline]
    pub fn whilelt(&self, at: u32) -> (u32, u32) {
        self.pair(at)
    }

    /// `(addr, stride)` of a [`ReplayOp::VLoadStrided`] or
    /// [`ReplayOp::VStoreStrided`].
    #[inline]
    pub fn strided(&self, at: u32) -> (u32, u32) {
        self.pair(at)
    }

    /// `(base, lane indices)` of a [`ReplayOp::VIndexed`].
    #[inline]
    pub fn indexed(&self, at: u32) -> (u32, &[u32]) {
        let (base, vl) = self.pair(at);
        let lanes = at as usize + 2;
        (base, &self.pool[lanes..lanes + vl as usize])
    }

    /// `(addr, words)` of a [`ReplayOp::ScalarStream`].
    #[inline]
    pub fn stream(&self, at: u32) -> (u32, u32) {
        self.pair(at)
    }
}

/// Stats snapshot and probe-cursor position at the end of one
/// `reset_timing()`-delimited segment of a capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapeSegment {
    /// Exclusive end of this segment in [`ProbeTape::levels`].
    pub probe_end: usize,
    /// `MemSystem::stats()` at the segment's end, exactly as the full
    /// simulator reported them (cache statistics are design-point-invariant
    /// for a fixed state geometry — idealization and latency knobs never
    /// touch them).
    pub stats: MemSystemStats,
}

/// The serving level of every cache probe of a run, in probe order, plus
/// per-segment statistics snapshots. Recorded during a capture or a live
/// replay; valid for refits at any config whose
/// [`lva_sim::MemSystemConfig::state_fingerprint`] equals [`Self::geometry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProbeTape {
    /// State-geometry fingerprint of the memory system that produced the
    /// tape (the refit validity condition).
    pub geometry: String,
    /// One [`lva_sim::MemLevel`] (as `u8`) per demand probe.
    pub levels: Vec<u8>,
    /// One entry per segment, in order; the last covers the run's tail.
    pub segments: Vec<TapeSegment>,
}

impl ProbeTape {
    /// Approximate heap footprint in bytes (capacity-based).
    pub fn approx_bytes(&self) -> usize {
        self.levels.capacity() + self.segments.capacity() * std::mem::size_of::<TapeSegment>()
    }

    /// Release the spare capacity the buffers grew into while recording.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.levels.shrink_to_fit();
        self.segments.shrink_to_fit();
    }
}

/// Per-layer dynamic results of one replayed segment; combined with the
/// capture run's static layer metadata (desc, flops, mnk, algo, shape) this
/// reconstructs a full `LayerReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReplay {
    /// Layer index as recorded by `lva-nn`.
    pub index: usize,
    /// Layer description (from the trace's desc pool).
    pub desc: String,
    /// Cycles spent in the layer.
    pub cycles: u64,
    /// Stall attribution delta over the layer.
    pub stalls: StallBreakdown,
    /// Vector instructions issued in the layer.
    pub d_instrs: u64,
    /// Active vector elements processed in the layer.
    pub d_elems: u64,
}

/// Complete timing results of one `reset_timing()`-delimited segment of a
/// replay — everything the full simulator would have reported for it.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentReplay {
    /// Final cycle count of the segment.
    pub cycles: u64,
    /// Stall-cycle attribution.
    pub stalls: StallBreakdown,
    /// Kernel-phase timer.
    pub phases: PhaseTimer,
    /// VPU statistics.
    pub vpu: VpuStats,
    /// Memory-system statistics (live counters, or the tape snapshot when
    /// refitting).
    pub mem: MemSystemStats,
    /// Per-layer dynamic deltas, in traversal order.
    pub layers: Vec<LayerReplay>,
}

/// Tape recorder state (installed on a capturing or live-replaying machine).
#[derive(Debug, Default)]
pub(crate) struct TapeRecorder {
    pub(crate) tape: ProbeTape,
}

impl TapeRecorder {
    pub(crate) fn end_segment(&mut self, stats: MemSystemStats) {
        self.tape.segments.push(TapeSegment { probe_end: self.tape.levels.len(), stats });
    }
}

/// Tape playback cursor (installed on a refitting machine).
#[derive(Debug)]
pub(crate) struct TapePlayer {
    pub(crate) tape: std::sync::Arc<ProbeTape>,
    pub(crate) cursor: usize,
    pub(crate) seg: usize,
}

impl TapePlayer {
    /// Next probe's serving level. Running off the tape's end means the
    /// replayed op stream diverged from the capture — a bug, not a
    /// recoverable condition.
    #[inline]
    pub(crate) fn next_level(&mut self) -> lva_sim::MemLevel {
        let lvl = self.tape.levels.get(self.cursor).copied().unwrap_or_else(|| {
            panic!("probe tape exhausted at probe {} — trace/tape mismatch", self.cursor)
        });
        self.cursor += 1;
        lva_sim::MemLevel::from_u8(lvl)
    }

    /// Advance to the next segment at a `ResetTiming` boundary, asserting
    /// probe-count alignment with the capture.
    pub(crate) fn next_segment(&mut self) {
        let seg = &self.tape.segments[self.seg];
        assert_eq!(
            self.cursor, seg.probe_end,
            "probe tape segment {} ended at probe {}, replay consumed {}",
            self.seg, seg.probe_end, self.cursor
        );
        self.seg += 1;
    }

    /// Stats snapshot for the segment currently being replayed.
    pub(crate) fn segment_stats(&self) -> MemSystemStats {
        self.tape.segments[self.seg].stats
    }
}

/// Convert a recorded `u64` quantity (address, stride, count) to the `u32`
/// the op encoding stores. The simulated arena and per-call scalar
/// batches are orders of magnitude below 4 Gi; a capture that violates this
/// fails loudly rather than truncating.
#[inline]
pub(crate) fn r32(v: u64, what: &'static str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("replay log: {what} {v} exceeds u32"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macc(vd: u8, a: u8, vl: u16) -> ReplayOp {
        ReplayOp::VArith { op: VArithOp::MaccVf, vd, a, b: 0, vl }
    }

    #[test]
    fn macc_fuses_only_directly_after_a_scalar_read() {
        let mut t = ReplayTrace::default();
        t.ops.push(ReplayOp::ScalarRead { addr: 64 });
        t.push_macc_vf(3, 0, 16);
        assert_eq!(t.ops, [ReplayOp::ScalarMacc { vd: 3, vs_vl: VsVl::new(0, 16), addr: 64 }]);

        for prev in [
            ReplayOp::ScalarWrite { addr: 64 },
            ReplayOp::ScalarFlops { n: 1 },
            ReplayOp::PhaseBegin { phase: KernelPhase::Gemm },
            ReplayOp::LayerBegin { index: 0, desc: 0 },
            // A fused op is not a bare read: the next FMA stands alone.
            ReplayOp::ScalarMacc { vd: 1, vs_vl: VsVl::new(0, 16), addr: 64 },
        ] {
            let mut t = ReplayTrace::default();
            t.ops.push(prev);
            t.push_macc_vf(3, 0, 16);
            assert_eq!(t.ops, [prev, macc(3, 0, 16)], "after {prev:?}");
        }

        let mut t = ReplayTrace::default();
        t.push_macc_vf(3, 0, 16);
        assert_eq!(t.ops, [macc(3, 0, 16)], "empty trace");
    }

    #[test]
    fn fused_operands_round_trip_at_their_extremes() {
        for (vd, vs, vl) in [(31, 31, 512), (0, 0, 0)] {
            let mut t = ReplayTrace::default();
            t.ops.push(ReplayOp::ScalarRead { addr: u32::MAX });
            t.push_macc_vf(vd, vs, vl);
            let [ReplayOp::ScalarMacc { vd: d, vs_vl, addr }] = t.ops[..] else {
                panic!("pair did not fuse: {:?}", t.ops)
            };
            assert_eq!(
                (d as usize, vs_vl.vs() as usize, vs_vl.vl() as usize, addr),
                (vd, vs, vl, u32::MAX)
            );
        }
    }
}
