//! In-memory spans around the calls this benchmark makes into each
//! layer. Spans are recorded from the benchmark's own files only (spans
//! inside the program are a later change), kept in memory, and written
//! out once at exit in Chrome trace-event format.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// Which part of a run a span belongs to. Layer shares are computed over
/// [`Phase::Timed`] only, so references and replays do not dilute them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before the timed region.
    Setup,
    /// The workload proper — the same calls the untraced pass times.
    Timed,
    /// Traced-run extras: staged drives, the ILP micro-set, replays.
    Extra,
    /// Output checking against the independent references.
    Check,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Timed => "timed",
            Phase::Extra => "extra",
            Phase::Check => "check",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The public function called.
    pub name: &'static str,
    /// The repository module it belongs to.
    pub layer: &'static str,
    pub phase: Phase,
    /// Operation id: the compile or job index the call served.
    pub op: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only forwards the call,
/// so traced and untraced passes share one code path.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    phase: Cell<Phase>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            phase: Cell::new(Phase::Setup),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_phase(&self, phase: Phase) {
        self.phase.set(phase);
    }

    /// Runs `f` inside a span `layer::name` serving operation `op`.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                layer,
                phase: self.phase.get(),
                op,
                parent: self.open.borrow().last().copied(),
                start_ns: self.t0.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Each span's self time: its duration minus the part its direct child
/// spans cover (children never overlap — calls are sequential).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time per layer over one phase, in seconds.
pub fn layer_self_secs(spans: &[Span], phase: Phase) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        if s.phase == phase {
            *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
        }
    }
    out
}

/// Total seconds inside the spans of `phase` called `name`.
pub fn secs_in(spans: &[Span], phase: Phase, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.phase == phase && s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-9)
        .sum()
}

/// The `streamir.*` host metrics of the reference runs in the check
/// phase, the same on every workload.
pub fn reference_host_metrics(spans: &[Span], layers: &mut BTreeMap<String, f64>) {
    for (metric, call) in [
        ("sdf_solve_host_s", "sdf::solve"),
        ("cpu_ref_host_s", "cpu::run"),
    ] {
        let secs = secs_in(spans, Phase::Check, call);
        layers.insert(format!("streamir.{metric}"), secs);
    }
}

/// The trace in Chrome trace-event format (complete events, microsecond
/// timestamps), with the per-layer self-time table alongside.
pub fn chrome_json(workload: &str, spans: &[Span]) -> Value {
    let own = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(i, (s, &own_ns))| {
            Value::Object(vec![
                (
                    "name".into(),
                    Value::Str(format!("{}::{}", s.layer, s.name)),
                ),
                ("cat".into(), Value::Str(s.layer.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Value::Num(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), Value::Num(1.0)),
                ("tid".into(), Value::Num(1.0)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("span".into(), Value::Num(i as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("op".into(), Value::Num(s.op as f64)),
                        ("phase".into(), Value::Str(s.phase.name().into())),
                        ("self_us".into(), Value::Num(own_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    let mut tables = Vec::new();
    for phase in [Phase::Setup, Phase::Timed, Phase::Extra, Phase::Check] {
        let table = layer_self_secs(spans, phase)
            .into_iter()
            .map(|(layer, secs)| (layer.to_string(), Value::Num(secs)))
            .collect();
        tables.push((phase.name().to_string(), Value::Object(table)));
    }
    Value::Object(vec![
        ("workload".into(), Value::Str(workload.into())),
        ("displayTimeUnit".into(), Value::Str("ms".into())),
        ("layerSelfSeconds".into(), Value::Object(tables)),
        ("traceEvents".into(), Value::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64, layer: &'static str) -> Span {
        Span {
            name: "f",
            layer,
            phase: Phase::Timed,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(None, 0, 100, "a"),
            span(Some(0), 10, 30, "b"),
            span(Some(0), 40, 70, "b"),
            span(Some(2), 45, 55, "c"),
        ];
        // Root: 100 − (20 + 30); second child: 30 − 10; the grandchild is
        // not subtracted from the root a second time.
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
        let layers = layer_self_secs(&spans, Phase::Timed);
        assert!((layers["a"] - 50e-9).abs() < 1e-15);
        assert!((layers["b"] - 40e-9).abs() < 1e-15);
        assert!((layers["c"] - 10e-9).abs() < 1e-15);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        assert!(layer_self_secs(&spans, Phase::Check).is_empty());
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let tr = Tracer::new(true);
        tr.set_phase(Phase::Timed);
        let v = tr.span("outer", "f", 7, || tr.span("inner", "g", 7, || 42));
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(secs_in(&spans, Phase::Timed, "f") >= secs_in(&spans, Phase::Timed, "g"));
        assert_eq!(secs_in(&spans, Phase::Check, "f"), 0.0);

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", "f", 0, || 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_json_carries_one_complete_event_per_span() {
        let spans = [span(None, 0, 2_000, "a"), span(Some(0), 500, 1_500, "b")];
        let v = chrome_json("w", &spans);
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Value::as_f64), Some(1.0));
        let parent = events[1].get("args").and_then(|a| a.get("parent"));
        assert_eq!(parent.and_then(Value::as_f64), Some(0.0));
        // Round-trips through the JSON renderer.
        assert!(serde_json::from_str(&serde_json::to_string(&v)).is_ok());
    }
}
