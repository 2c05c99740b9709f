//! Observers: what watches a run besides the timing model.
//!
//! A design point is one simulation plus whatever is attached to it. Each
//! observer here attaches to the simulated machine at one stage of
//! [`Experiment::run_observed`] (or a live replay in
//! [`Experiment::retime`]), detaches after the observed frame, and hands
//! back its observation next to the summary. Observation is pure: cycle
//! counts are bit-identical with any observer on or off.
//!
//! | observer | output | attaches |
//! |---|---|---|
//! | `()` | nothing | — |
//! | [`Profile`] | [`lva_prof::MemProfile`] (and 3C classes in the report) | [`Attach::Frame`] |
//! | [`Energy`] | [`lva_energy::EnergyAttribution`] | [`Attach::Frame`] |
//! | [`Timeline`] | [`lva_trace::ChromeTrace`] | [`Attach::Frame`] |
//! | [`Capture`] | the semantic trace and probe tape | [`Attach::Functional`] |
//! | [`RecordTape`] | a probe tape at this geometry | [`Attach::Setup`] |

use crate::experiment::Experiment;
use lva_isa::{Machine, ProbeTape, ReplayTrace};
use lva_nn::NetReport;
use std::sync::Arc;

/// When an observer attaches, which decides what it can watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// Before network setup, recording functional execution. Live runs
    /// only: a re-time never executes kernels.
    Functional,
    /// Before network setup, watching timing only. Any run or re-time.
    Setup,
    /// After the clock reset of the last frame, tapping its events and
    /// memory hierarchy. Live runs, and live replays of one-frame
    /// recordings (a tape refit never drives the hierarchy).
    Frame,
}

/// Something attached to a run. See the module docs.
pub trait Observer {
    /// What the observer hands back beside the summary.
    type Output;
    /// State held between attach and finish.
    type Attached;
    const ATTACH: Attach;
    fn attach(&self, m: &mut Machine) -> Self::Attached;
    /// Detach after the observed frame. `report` is that frame's report;
    /// an observer may refresh it (the profiler adds 3C miss classes).
    fn finish(
        self,
        attached: Self::Attached,
        m: &mut Machine,
        report: &mut NetReport,
        e: &Experiment,
    ) -> Self::Output;
}

/// No observer: the plain timing run.
impl Observer for () {
    type Output = ();
    type Attached = ();
    const ATTACH: Attach = Attach::Setup;
    fn attach(&self, _: &mut Machine) {}
    fn finish(self, _: (), _: &mut Machine, _: &mut NetReport, _: &Experiment) {}
}

/// The `lva-prof` memory profiler tapped into the hierarchy: per-level
/// reuse-distance histograms, predicted hit-rate-vs-capacity curves,
/// per-layer/per-phase attribution, and the 3C miss classification
/// written into the report's cache stats.
pub struct Profile;

impl Observer for Profile {
    type Output = lva_prof::MemProfile;
    type Attached = lva_prof::ProfilerHandle;
    const ATTACH: Attach = Attach::Frame;
    fn attach(&self, m: &mut Machine) -> Self::Attached {
        lva_prof::attach(&mut m.sys)
    }
    fn finish(
        self,
        handle: Self::Attached,
        m: &mut Machine,
        report: &mut NetReport,
        _: &Experiment,
    ) -> Self::Output {
        let profile = handle.detach(&mut m.sys);
        // Refresh the snapshot so the report carries the 3C classification.
        report.mem = m.sys.stats();
        profile
    }
}

/// The `lva-energy` streaming probe: every vector op, scalar charge, cache
/// access, DRAM transfer and prefetch fill is charged to the layer that
/// caused it. The attribution's streamed total reconciles with
/// `model.estimate(...)` on the same run.
pub struct Energy<'a>(pub &'a lva_energy::EnergyModel);

impl Observer for Energy<'_> {
    type Output = lva_energy::EnergyAttribution;
    type Attached = lva_energy::EnergyProbe;
    const ATTACH: Attach = Attach::Frame;
    fn attach(&self, m: &mut Machine) -> Self::Attached {
        lva_energy::attach(m)
    }
    fn finish(
        self,
        probe: Self::Attached,
        m: &mut Machine,
        report: &mut NetReport,
        e: &Experiment,
    ) -> Self::Output {
        probe.finish(m, report, self.0, e.hw.l2_bytes())
    }
}

/// Pipeline events as a Chrome trace-event timeline: layers, kernel
/// phases and attributed stall intervals as parallel tracks over
/// simulated cycles.
pub struct Timeline;

impl Observer for Timeline {
    type Output = lva_trace::ChromeTrace;
    type Attached = ();
    const ATTACH: Attach = Attach::Frame;
    fn attach(&self, m: &mut Machine) {
        m.record_pipe_events();
    }
    fn finish(
        self,
        _: (),
        m: &mut Machine,
        report: &mut NetReport,
        _: &Experiment,
    ) -> Self::Output {
        let dropped = m.pipe_events_dropped();
        if dropped > 0 {
            eprintln!("timeline: recorder cap hit, {dropped} pipeline events dropped (timeline truncated)");
        }
        let events = m.take_pipe_events();
        // Layers run back-to-back from cycle 0 (the clock was just reset),
        // so per-layer spans are the cumulative sums of layer cycles.
        let mut layers: Vec<lva_prof::LayerSpan> = Vec::with_capacity(report.layers.len());
        let mut t = 0u64;
        for l in &report.layers {
            layers.push((format!("L{} {}", l.index, l.desc), t, t + l.cycles));
            t += l.cycles;
        }
        // Absorb stall gaps below ~1/100k of the run: invisible at any
        // usable zoom, and it keeps full-network exports Perfetto-sized.
        let resolution = m.cycles() / 100_000;
        lva_prof::timeline_coarse(&events, &layers, resolution)
    }
}

/// The semantic recorder: the op stream every timing decision depends on
/// plus the probe tape at this geometry, from the very first op so a
/// replay reproduces the cache state the measured frames start from.
/// One capture feeds any number of [`Experiment::retime`] calls.
pub struct Capture;

impl Observer for Capture {
    type Output = (Arc<ReplayTrace>, Arc<ProbeTape>);
    type Attached = ();
    const ATTACH: Attach = Attach::Functional;
    fn attach(&self, m: &mut Machine) {
        m.start_capture();
    }
    fn finish(self, _: (), m: &mut Machine, _: &mut NetReport, _: &Experiment) -> Self::Output {
        let (trace, tape) = m.finish_capture().expect("capture started at attach");
        (Arc::new(trace), Arc::new(tape))
    }
}

/// The probe-tape recorder alone: on a live replay it records the tape at
/// this design point's geometry, so later timing-only variations refit
/// from it instead of replaying live.
pub struct RecordTape;

impl Observer for RecordTape {
    type Output = ProbeTape;
    type Attached = ();
    const ATTACH: Attach = Attach::Setup;
    fn attach(&self, m: &mut Machine) {
        m.record_probe_tape();
    }
    fn finish(self, _: (), m: &mut Machine, _: &mut NetReport, _: &Experiment) -> Self::Output {
        m.take_probe_tape().expect("tape recording started at attach")
    }
}
