//! Host-time spans recorded from outside the library.
//!
//! The benchmark wraps each public call it makes into a layer in a span
//! named `<layer>.<call>`. Spans stay in memory and are written out when
//! the run ends; a layer's self time is the duration of its spans minus
//! the time their direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use pdr_sim_core::json::Json;

/// One recorded span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `pdr.system.reconfigure`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (the lap's first op for lap-level spans).
    pub op: u64,
}

impl Span {
    /// The layer: the name up to its last dot.
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. While disabled, `enter`/`exit` record
/// nothing.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span (`None` while recording is off).
#[must_use = "pass the handle to Recorder::exit"]
pub struct Open(Option<usize>);

impl Recorder {
    /// A disabled recorder.
    pub fn new() -> Self {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off (takes effect at the next `enter`).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags subsequent spans with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span named `name` inside the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes the span `handle` opened. Spans close innermost first.
    pub fn exit(&mut self, handle: Open) {
        if let Some(idx) = handle.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self time per layer, ns.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0) += own;
    }
    out
}

/// The spans as JSON: one object per span with its index as `id`.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::U64(id as u64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::U64(s.start_ns)),
                    ("end_ns".into(), Json::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("op".into(), Json::U64(s.op)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            span("bench.lap", 0, 100, None),
            span("pdr.campaign.checkpoint", 10, 40, Some(0)),
            span("sim_core.json.render", 20, 30, Some(1)),
            span("pdr.campaign.step", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 60);
        assert_eq!(layers["pdr.campaign"], 30);
        assert_eq!(layers["sim_core.json"], 10);
        // Self times partition the root span exactly.
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_spans_and_records_nothing_while_disabled() {
        let mut rec = Recorder::new();
        let skipped = rec.enter("pdr.system.new");
        rec.exit(skipped);
        assert!(rec.spans().is_empty());

        rec.set_enabled(true);
        rec.set_op(7);
        let lap = rec.enter("bench.lap");
        let v = rec.span("pdr.system.reconfigure", || 42);
        rec.exit(lap);
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].parent, s[1].parent), (None, Some(0)));
        assert_eq!((s[0].op, s[1].op), (7, 7));
        assert_eq!(s[1].layer(), "pdr.system");
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times(s);
        assert_eq!(own[0] + own[1], s[0].end_ns - s[0].start_ns);
    }
}
