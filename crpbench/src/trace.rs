//! In-memory spans around the benchmark's calls into each layer.
//!
//! The program itself is not instrumented: every span wraps a call the
//! benchmark makes into a public function of one crate. Spans are kept
//! in memory and written out when the run ends. A disabled tracer reads
//! no clock and stores nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layer a span measures, named after the crate function it wraps.
/// Ledger arrays are indexed by declaration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `crp::Scenario::build`.
    ScenarioBuild,
    /// `crp::CdnProbe::observe` (DNS → CDN answer → netsim, both names).
    Probe,
    /// One tick's write batch: every `record` plus the hourly prune.
    Ingest,
    /// A batch of `crp_core::CrpService::record` calls (one host's
    /// history, or one tick's observations).
    Record,
    /// `crp_core::CrpService::prune_stale`.
    Prune,
    /// One closest-candidate query, issued as its public parts.
    Query,
    /// `crp_core::CrpService::ratio_map`: one span for the client's map
    /// and one for the batch of every candidate's map.
    RatioMap,
    /// `crp_core::Ranking::rank`.
    Rank,
    /// Scoring a pick against the instantaneous RTT order.
    Score,
    /// A batch of `crp_netsim::Network::rtt` calls (ground truth).
    Rtt,
}

impl Layer {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::ScenarioBuild => "scenario.build",
            Layer::Probe => "probe",
            Layer::Ingest => "ingest",
            Layer::Record => "core.record",
            Layer::Prune => "core.prune",
            Layer::Query => "core.query",
            Layer::RatioMap => "core.ratio_map",
            Layer::Rank => "core.rank",
            Layer::Score => "eval.score",
            Layer::Rtt => "netsim.rtt",
        }
    }
}

/// Number of [`Layer`]s.
const LAYERS: usize = Layer::Rtt as usize + 1;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    parent: u32,
    query: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct SpanId(u32);

/// Records spans when enabled; costs one branch per call when not.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    next_query: u32,
    query: u32,
    phase: (u64, u64),
}

impl Tracer {
    /// A tracer that records spans (`true`) or does nothing (`false`).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_query: 0,
            query: 0,
            phase: (0, 0),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of `layer` under the innermost open span.
    #[inline]
    pub fn begin(&mut self, layer: Layer) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        if layer == Layer::Query {
            self.next_query += 1;
            self.query = self.next_query;
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            query: self.query,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        if span.layer == Layer::Query {
            self.query = 0;
        }
    }

    /// Marks the start of the timed phase.
    pub fn phase_begin(&mut self) {
        if self.enabled {
            self.phase.0 = self.now_ns();
        }
    }

    /// Marks the end of the timed phase.
    pub fn phase_end(&mut self) {
        if self.enabled {
            self.phase.1 = self.now_ns();
        }
    }

    /// Per-layer calls and self time over the whole run, plus how much
    /// of the timed phase top-level spans cover.
    pub fn ledger(&self) -> Ledger {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let (from, to) = self.phase;
        let mut ledger = Ledger {
            phase_ns: to.saturating_sub(from),
            ..Ledger::default()
        };
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let i = s.layer as usize;
            ledger.calls[i] += 1;
            ledger.self_ns[i] += dur.saturating_sub(child);
            if s.parent == NO_PARENT && s.start_ns >= from && s.end_ns <= to {
                ledger.top_level_ns += dur;
            }
        }
        ledger
    }

    /// Writes every span as CSV: `id,parent,query,name,start_ns,end_ns`.
    /// The parent and query columns are empty where there is none.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,query,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let query = if s.query == 0 {
                String::new()
            } else {
                s.query.to_string()
            };
            writeln!(
                out,
                "{id},{parent},{query},{},{},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Calls and self time per layer over a traced run.
#[derive(Debug, Default)]
pub struct Ledger {
    calls: [u64; LAYERS],
    self_ns: [u64; LAYERS],
    /// Wall time of the timed phase.
    pub phase_ns: u64,
    /// Time covered by top-level spans inside the timed phase.
    pub top_level_ns: u64,
}

impl Ledger {
    /// Number of spans of `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self time of `layer` (span time minus its child spans) in ms.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize] as f64 / 1e6
    }

    /// Share of the timed phase no top-level span covers.
    pub fn unattributed_frac(&self) -> f64 {
        if self.phase_ns == 0 {
            return 0.0;
        }
        self.phase_ns.saturating_sub(self.top_level_ns) as f64 / self.phase_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_queries_are_numbered() {
        let mut tr = Tracer::new(true);
        tr.phase_begin();
        let q = tr.begin(Layer::Query);
        let m = tr.begin(Layer::RatioMap);
        tr.end(m);
        let r = tr.begin(Layer::Rank);
        tr.end(r);
        tr.end(q);
        let q2 = tr.begin(Layer::Query);
        tr.end(q2);
        tr.phase_end();
        let ledger = tr.ledger();
        assert_eq!(ledger.calls(Layer::Query), 2);
        assert_eq!(ledger.calls(Layer::RatioMap), 1);
        assert_eq!(tr.spans[1].query, 1);
        assert_eq!(tr.spans[1].parent, 0);
        assert_eq!(tr.spans[3].query, 2);
        let total: u64 = tr
            .spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(ledger.top_level_ns, total);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin(Layer::Probe);
        tr.end(s);
        assert!(tr.spans.is_empty());
        assert_eq!(tr.ledger().calls(Layer::Probe), 0);
    }
}
