//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public entry points — nothing inside the program is
//! instrumented. A span holds its name, start, end, parent, the unit and
//! pass it belongs to, the leg it ran in, and an optional count taken at
//! the same boundary (warps built, instructions simulated, trace bytes
//! exported, ...). Everything stays in memory until [`Tracer::chrome_trace`]
//! renders it at the end of the run.

use std::collections::BTreeMap;
use std::time::Instant;

use gps_types::Json;

/// Which execution of a unit a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Leg {
    /// Set-up only: build, policy, probe, engine construction (and the
    /// store load on `fig8`), never simulated.
    Setup,
    /// `run_units` on one unit into the pass's store (the `fig8` user path).
    User,
    /// `measure_full` (`fig8`'s traced passes, beside `run_units`).
    MeasureFull,
    /// The classic sequential engine (`parallel_workers = 0`).
    Classic,
    /// The lane engine on one worker.
    W1,
    /// The lane engine on two workers.
    W2,
    /// Classic engine with a recording probe.
    ProbedClassic,
    /// Lane engine, one worker, recording probe.
    ProbedW1,
    /// Lane engine, two workers, recording probe.
    ProbedW2,
    /// Workload-level steps (resume, figure regeneration).
    Workload,
}

impl Leg {
    pub fn label(self) -> &'static str {
        match self {
            Leg::Setup => "setup",
            Leg::User => "user",
            Leg::MeasureFull => "measure_full",
            Leg::Classic => "classic",
            Leg::W1 => "w1",
            Leg::W2 => "w2",
            Leg::ProbedClassic => "probed_classic",
            Leg::ProbedW1 => "probed_w1",
            Leg::ProbedW2 => "probed_w2",
            Leg::Workload => "workload",
        }
    }

    /// Lane-engine workers the leg runs with (0 = classic engine).
    pub fn workers(self) -> usize {
        match self {
            Leg::W1 | Leg::ProbedW1 => 1,
            Leg::W2 | Leg::ProbedW2 => 2,
            _ => 0,
        }
    }

    pub fn probed(self) -> bool {
        matches!(self, Leg::ProbedClassic | Leg::ProbedW1 | Leg::ProbedW2)
    }
}

/// Every span name the benchmark records; `self.<name>_s` per-layer
/// metrics are derived from exactly this list.
pub const SPAN_NAMES: [&str; 13] = [
    "bench.unit",
    "bench.leg",
    "harness.run_units",
    "harness.measure_full",
    "harness.store_load",
    "bench.figures_fig8",
    "workloads.build",
    "paradigms.make_policy",
    "sim.engine_new",
    "sim.run",
    "obs.recording",
    "obs.finish",
    "obs.export",
];

/// Pass id of the set-up rounds' spans (the timed passes count from 0).
pub const SETUP_PASS: u32 = 1000;
/// Pass id of workload-level spans recorded once per run.
pub const ONCE_PASS: u32 = 2000;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub unit: u32,
    pub pass: u32,
    pub leg: Leg,
    pub count: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Disabled, [`Tracer::span`] only runs its body.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    unit: u32,
    pass: u32,
    leg: Leg,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            unit: 0,
            pass: 0,
            leg: Leg::Workload,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Sets the unit, pass and leg that subsequent spans belong to.
    pub fn at(&mut self, unit: usize, pass: u32, leg: Leg) {
        self.unit = unit as u32;
        self.pass = pass;
        self.leg = leg;
    }

    pub fn set_leg(&mut self, leg: Leg) {
        self.leg = leg;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span named `name` around `f`; the count returned by
    /// `count` on `f`'s value is stored with it.
    pub fn span_counted<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            unit: self.unit,
            pass: self.pass,
            leg: self.leg,
            count: 0,
        });
        self.stack.push(id);
        let value = f(self);
        self.stack.pop();
        let end = self.now_ns();
        let c = count(&value);
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = c;
        value
    }

    /// [`Tracer::span_counted`] without a count.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_counted(name, f, |_| 0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children run sequentially on the caller's thread).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| (s.secs() - c).max(0.0))
            .collect()
    }

    /// Chrome trace-event JSON of every span, for `chrome://tracing` or
    /// Perfetto.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.secs() * 1e6)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(i as f64)),
                            (
                                "parent".into(),
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("unit".into(), Json::Num(f64::from(s.unit))),
                            ("pass".into(), Json::Num(f64::from(s.pass))),
                            ("leg".into(), Json::Str(s.leg.label().into())),
                            ("count".into(), Json::Num(s.count as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
    }
}

/// Σ over units of the fastest pass: for every unit, the spans matching
/// `pred` are summed per pass (`value` picks duration or self time), the
/// smallest per-pass sum is kept, and those minima are added up. Units
/// with no matching span contribute nothing.
pub fn sum_of_unit_minima(spans: &[Span], values: &[f64], pred: impl Fn(&Span) -> bool) -> f64 {
    let mut per: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    for (s, v) in spans.iter().zip(values) {
        if pred(s) {
            *per.entry((s.unit, s.pass)).or_default() += v;
        }
    }
    let mut best: BTreeMap<u32, f64> = BTreeMap::new();
    for ((unit, _), v) in per {
        let b = best.entry(unit).or_insert(f64::INFINITY);
        *b = b.min(v);
    }
    // Folded from +0.0: an empty sum of f64 is -0.0.
    best.values().fold(0.0, |a, b| a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        unit: u32,
        pass: u32,
    ) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            unit,
            pass,
            leg: Leg::Classic,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            span("bench.leg", 0, 100, None, 0, 0),
            span("workloads.build", 10, 30, Some(0), 0, 0),
            span("sim.run", 30, 90, Some(0), 0, 0),
            span("sim.engine_new", 40, 50, Some(2), 0, 0),
        ];
        let own: Vec<f64> = t.self_secs().iter().map(|s| s * 1e9).collect();
        let want = [20.0, 20.0, 50.0, 10.0];
        for (o, w) in own.iter().zip(want) {
            assert!((o - w).abs() < 1e-6, "{own:?}");
        }
    }

    #[test]
    fn unit_minima_take_each_units_fastest_pass() {
        let spans = vec![
            span("sim.run", 0, 0, None, 0, 0),
            span("sim.run", 0, 0, None, 0, 1),
            span("sim.run", 0, 0, None, 1, 0),
            span("sim.run", 0, 0, None, 1, 0),
            span("sim.run", 0, 0, None, 1, 1),
        ];
        let values = [5.0, 3.0, 1.0, 1.0, 4.0];
        // unit 0: min(5, 3) = 3; unit 1: min(1 + 1, 4) = 2.
        assert_eq!(sum_of_unit_minima(&spans, &values, |_| true), 5.0);
        assert_eq!(sum_of_unit_minima(&spans, &values, |s| s.unit == 1), 2.0);
    }

    #[test]
    fn nested_spans_record_parents_and_counts() {
        let mut t = Tracer::new(true);
        t.at(3, 1, Leg::W2);
        let v = t.span("bench.leg", |t| {
            t.span_counted("sim.run", |_| 42_u64, |v| *v)
        });
        assert_eq!(v, 42);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            (s[1].unit, s[1].pass, s[1].leg, s[1].count),
            (3, 1, Leg::W2, 42)
        );
        let mut off = Tracer::new(false);
        assert_eq!(off.span("sim.run", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
