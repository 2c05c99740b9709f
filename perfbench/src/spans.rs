//! Tracing for the benchmark: its own spans around each public call it
//! makes, and an aggregator for the spans the simulator emits.
//!
//! Both are kept in memory while the benchmark runs and written out at the
//! end ([`Recorder::write_jsonl`]). A span's *self time* is its length
//! minus the time its child spans cover.

use lva_trace::Json;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One span recorded by the benchmark around a call into the simulator.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub fields: Vec<(&'static str, String)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory recorder of the benchmark's own spans.
#[derive(Debug, Clone)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span nested in the innermost open one; returns its id.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            fields: Vec::new(),
        });
        self.open.push(id);
        id
    }

    /// Close span `id`; returns its length in seconds.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span (a bug in this crate).
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].secs()
    }

    /// Time `f` as span `name`; returns its result and length in seconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let r = f();
        (r, self.end(id))
    }

    pub fn field(&mut self, id: usize, key: &'static str, value: impl ToString) {
        self.spans[id].fields.push((key, value.to_string()));
    }

    /// Lengths in seconds of every span named `name`, in order.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// Write every span as one JSON line (`id`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `self_ns`, `fields`), then `extra` lines.
    pub fn write_jsonl(&self, path: &Path, extra: &[String]) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let fields = Json::Obj(
                s.fields.iter().map(|(k, v)| ((*k).to_string(), Json::from(v.as_str()))).collect(),
            );
            let j = Json::obj()
                .field("id", id as u64)
                .field("parent", s.parent.map_or(Json::Null, |p| Json::from(p as u64)))
                .field("name", s.name)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("self_ns", (s.end_ns - s.start_ns).saturating_sub(child_ns[id]))
                .field("fields", fields);
            writeln!(w, "{}", j.to_string_compact())?;
        }
        for line in extra {
            writeln!(w, "{line}")?;
        }
        w.flush()
    }
}

/// One `layer` span of the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerSpan {
    pub index: usize,
    pub us: u64,
    /// Time not covered by the layer's kernel-phase spans.
    pub self_us: u64,
}

/// The simulator's spans of one `network` span (one `Network::run`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkSpans {
    pub us: u64,
    pub layers: Vec<LayerSpan>,
    /// Self time in microseconds per kernel-phase span name.
    pub phase_self_us: BTreeMap<String, u64>,
}

impl NetworkSpans {
    /// Self seconds of the named phases.
    pub fn phase_secs(&self, names: &[&str]) -> f64 {
        names.iter().map(|n| self.phase_self_us.get(*n).copied().unwrap_or(0)).sum::<u64>() as f64
            * 1e-6
    }

    /// Summed span seconds of the layers `pick` selects.
    pub fn layer_secs(&self, pick: impl Fn(usize) -> bool) -> f64 {
        self.layers.iter().filter(|l| pick(l.index)).map(|l| l.us).sum::<u64>() as f64 * 1e-6
    }

    /// Summed self seconds of the layers `pick` selects.
    pub fn layer_self_secs(&self, pick: impl Fn(usize) -> bool) -> f64 {
        self.layers.iter().filter(|l| pick(l.index)).map(|l| l.self_us).sum::<u64>() as f64 * 1e-6
    }

    /// One JSON line summarising this network run.
    pub fn to_json_line(&self) -> String {
        let layers = Json::Arr(
            self.layers
                .iter()
                .map(|l| {
                    Json::obj()
                        .field("index", l.index as u64)
                        .field("us", l.us)
                        .field("self_us", l.self_us)
                })
                .collect(),
        );
        let phases = Json::Obj(
            self.phase_self_us.iter().map(|(k, v)| (k.clone(), Json::from(*v))).collect(),
        );
        Json::obj()
            .field("name", "network")
            .field("us", self.us)
            .field("layers", layers)
            .field("phase_self_us", phases)
            .to_string_compact()
    }
}

/// A trace line the aggregator cannot use is reported, not counted.
fn skip(line: &str) {
    eprintln!("perfbench: skipping malformed trace line {line}");
}

/// Folds the JSON lines of `lva_trace` into per-network summaries as they
/// arrive. Spans are emitted when they close, so a span's children have
/// always been seen before the span itself.
#[derive(Debug, Default)]
pub struct ProgramSpans {
    child_us: HashMap<u64, u64>,
    current: NetworkSpans,
    pub networks: Vec<NetworkSpans>,
}

impl ProgramSpans {
    /// Drain the in-memory trace sink into the aggregator.
    pub fn drain(&mut self) {
        for line in lva_trace::take_memory() {
            self.ingest(&line);
        }
    }

    pub fn ingest(&mut self, line: &str) {
        let Ok(j) = Json::parse(line) else {
            return skip(line);
        };
        if j.get("ev").and_then(Json::as_str) != Some("span") {
            return;
        }
        let (Some(id), Some(parent), Some(name), Some(us)) = (
            j.get("id").and_then(Json::as_u64),
            j.get("parent").and_then(Json::as_u64),
            j.get("name").and_then(Json::as_str),
            j.get("us").and_then(Json::as_u64),
        ) else {
            return skip(line);
        };
        let self_us = us.saturating_sub(self.child_us.remove(&id).unwrap_or(0));
        if parent != 0 {
            *self.child_us.entry(parent).or_default() += us;
        }
        match name {
            "network" => {
                let mut net = std::mem::take(&mut self.current);
                net.us = us;
                self.networks.push(net);
            }
            "layer" => {
                let index = j
                    .get("fields")
                    .and_then(|f| f.get("index"))
                    .and_then(Json::as_u64)
                    .and_then(|i| usize::try_from(i).ok());
                match index {
                    Some(index) => self.current.layers.push(LayerSpan { index, us, self_us }),
                    None => skip(line),
                }
            }
            phase => {
                *self.current.phase_self_us.entry(phase.to_string()).or_default() += self_us;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut p = ProgramSpans::default();
        for line in [
            r#"{"ev":"span","id":4,"parent":3,"name":"pack","us":10}"#,
            r#"{"ev":"span","id":3,"parent":2,"name":"gemm","us":50}"#,
            r#"{"ev":"span","id":5,"parent":2,"name":"activate","us":5}"#,
            r#"{"ev":"span","id":2,"parent":1,"name":"layer","us":70,"fields":{"index":0}}"#,
            r#"{"ev":"counter","name":"x","value":1,"span":1}"#,
            r#"{"ev":"span","id":1,"parent":0,"name":"network","us":75}"#,
        ] {
            p.ingest(line);
        }
        let net = &p.networks[0];
        assert_eq!(net.us, 75);
        assert_eq!(net.layers, vec![LayerSpan { index: 0, us: 70, self_us: 15 }]);
        assert_eq!(net.phase_self_us["gemm"], 40);
        assert_eq!(net.phase_self_us["pack"], 10);
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut r = Recorder::default();
        let outer = r.begin("outer");
        let ((), inner) =
            r.time("inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        let total = r.end(outer);
        assert!(inner >= 0.002 && total >= inner);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.secs_of("inner").len(), 1);
    }
}
