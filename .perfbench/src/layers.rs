//! Assembly of the per-layer metrics of a traced run from its spans and
//! the run's deterministic reports. A metric a workload does not exercise
//! (no span or report feeds it) reads 0.

use std::collections::BTreeSet;

use gps_paradigms::Paradigm;
use gps_sim::{LaneMode, SimReport};

use crate::grid::Unit;
use crate::host::median;
use crate::metrics::{drift_summary, self_metric, PER_LAYER};
use crate::run::RunResult;
use crate::spans::{sum_of_unit_minima, Leg, Span, Tracer, SPAN_NAMES};

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn pct_over(num: f64, den: f64) -> f64 {
    if den > 0.0 && num > 0.0 {
        (num / den - 1.0) * 100.0
    } else {
        0.0
    }
}

fn metric_sum(reports: &[SimReport], name: &str) -> f64 {
    reports.iter().filter_map(|r| r.metric(name)).sum()
}

fn metric_mean(reports: &[SimReport], name: &str) -> f64 {
    let v: Vec<f64> = reports.iter().filter_map(|r| r.metric(name)).collect();
    ratio(v.iter().sum(), v.len() as f64)
}

struct View<'a> {
    spans: &'a [Span],
    durs: Vec<f64>,
    units: &'a [Unit],
}

impl View<'_> {
    fn unit(&self, s: &Span) -> Option<&Unit> {
        self.units.get(s.unit as usize)
    }

    /// Σ over units of the fastest pass of spans `name` on `leg` whose
    /// unit satisfies `keep`.
    fn time(&self, name: &str, legs: &[Leg], keep: impl Fn(&Unit) -> bool) -> f64 {
        sum_of_unit_minima(self.spans, &self.durs, |s| {
            s.name == name && legs.contains(&s.leg) && self.unit(s).is_some_and(&keep)
        })
    }

    /// Units with a `sim.run` span on every one of `legs`.
    fn units_on_all(&self, legs: &[Leg]) -> BTreeSet<u32> {
        let on = |leg: Leg| -> BTreeSet<u32> {
            self.spans
                .iter()
                .filter(|s| s.name == "sim.run" && s.leg == leg)
                .map(|s| s.unit)
                .collect()
        };
        legs.iter()
            .map(|&l| on(l))
            .reduce(|a, b| a.intersection(&b).copied().collect())
            .unwrap_or_default()
    }

    /// `sim.run` time on `leg` over the units in `set`.
    fn run_on(&self, leg: Leg, set: &BTreeSet<u32>) -> f64 {
        sum_of_unit_minima(self.spans, &self.durs, |s| {
            s.name == "sim.run" && s.leg == leg && set.contains(&s.unit)
        })
    }

    /// Instructions counted at the `sim.run` boundary of `leg`, once per
    /// unit.
    fn instructions(&self, leg: Leg) -> u64 {
        let mut seen = BTreeSet::new();
        self.spans
            .iter()
            .filter(|s| s.name == "sim.run" && s.leg == leg && seen.insert(s.unit))
            .map(|s| s.count)
            .sum()
    }
}

/// Every per-layer metric of a traced run, in catalogue order.
pub fn per_layer(res: &RunResult, tr: &Tracer) -> Vec<(String, f64)> {
    let spans = tr.spans();
    let v = View {
        spans,
        durs: spans.iter().map(Span::secs).collect(),
        units: &res.units,
    };
    let any = |_: &Unit| true;
    let run = |leg: Leg, keep: &dyn Fn(&Unit) -> bool| v.time("sim.run", &[leg], keep);

    let classic_s = run(Leg::Classic, &any);
    let tier_w2 = |tier: LaneMode| run(Leg::W2, &|u: &Unit| !u.baseline && u.tier() == tier);
    let gpus_w2 = |gpus: usize| run(Leg::W2, &|u: &Unit| !u.baseline && u.gpus == gpus);
    let paradigm_s = |p: Paradigm| run(Leg::Classic, &|u: &Unit| !u.baseline && u.paradigm == p);
    let pool = v.units_on_all(&[Leg::W1, Leg::W2]);
    let vs = v.units_on_all(&[Leg::Classic, Leg::W1]);
    let obs_classic = v.units_on_all(&[Leg::Classic, Leg::ProbedClassic]);
    let obs_lanes = v.units_on_all(&[Leg::W2, Leg::ProbedW2]);
    let probed = [Leg::ProbedClassic, Leg::ProbedW2];
    let drift = drift_summary(&res.drift);
    let user = v.time("harness.run_units", &[Leg::User], any);
    let full = v.time("harness.measure_full", &[Leg::MeasureFull], any);
    let traced = res.timings.min_sum(&res.timed_legs, true).wall;
    let untraced = res.timings.min_sum(&res.timed_legs, false).wall;

    // In catalogue order: the array has the catalogue's length, and the
    // printed names are the catalogue's own.
    let values: [f64; PER_LAYER.len()] = [
        // workloads.build_s, workloads.warps, sim.engine_new_s
        v.time("workloads.build", &[Leg::Setup], any),
        res.warps as f64,
        v.time("sim.engine_new", &[Leg::Setup], any),
        // sim.classic.run_s, sim.classic.ns_per_instr
        classic_s,
        ratio(classic_s * 1e9, v.instructions(Leg::Classic) as f64),
        // sim.lanes.w1_s, .w2_s, .pool_speedup, .vs_classic
        run(Leg::W1, &any),
        run(Leg::W2, &any),
        ratio(v.run_on(Leg::W1, &pool), v.run_on(Leg::W2, &pool)),
        ratio(v.run_on(Leg::Classic, &vs), v.run_on(Leg::W1, &vs)),
        // sim.lanes.gps_epochs_s, .writer_epochs_s, .pure_local_s
        tier_w2(LaneMode::GpsEpochs),
        tier_w2(LaneMode::WriterEpochs),
        tier_w2(LaneMode::PureLocal),
        // sim.lanes.g4_s, .g16_s
        gpus_w2(4),
        gpus_w2(16),
        // sim.lanes.drift_gps_epochs_pct, .drift_writer_epochs_pct
        drift.gps_epochs,
        drift.writer_epochs,
        // paradigms.{um,um_hints,rdl,memcpy,gps,infinite_bw}_s
        paradigm_s(Paradigm::Um),
        paradigm_s(Paradigm::UmHints),
        paradigm_s(Paradigm::Rdl),
        paradigm_s(Paradigm::Memcpy),
        paradigm_s(Paradigm::Gps),
        paradigm_s(Paradigm::InfiniteBw),
        // paradigms.um_faults, .rdl_remote_loads, .memcpy_broadcast_bytes
        metric_sum(&res.classic, "um_faults"),
        metric_sum(&res.classic, "rdl_remote_loads"),
        metric_sum(&res.classic, "memcpy_broadcast_bytes"),
        // core.rwq_hit_rate, core.gps_tlb_hit_rate
        metric_mean(&res.gps_classic, "rwq_hit_rate"),
        metric_mean(&res.gps_classic, "gps_tlb_hit_rate"),
        // interconnect.bytes, interconnect.transfers
        res.classic
            .iter()
            .map(|r| r.interconnect_bytes as f64)
            .sum(),
        res.classic
            .iter()
            .map(|r| r.interconnect_transfers as f64)
            .sum(),
        // obs.probed_classic_s, obs.probed_lanes_s
        run(Leg::ProbedClassic, &any),
        run(Leg::ProbedW2, &any),
        // obs.overhead_classic_pct, obs.overhead_lanes_pct
        pct_over(
            v.run_on(Leg::ProbedClassic, &obs_classic),
            v.run_on(Leg::Classic, &obs_classic),
        ),
        pct_over(
            v.run_on(Leg::ProbedW2, &obs_lanes),
            v.run_on(Leg::W2, &obs_lanes),
        ),
        // obs.finish_s, obs.export_s, obs.trace_bytes, obs.dropped_spans
        v.time("obs.finish", &probed, any),
        v.time("obs.export", &probed, any),
        res.trace_bytes as f64,
        res.dropped_spans as f64,
        // harness.overhead_s: run_units minus measure_full of the same
        // units in the same traced passes
        if user > 0.0 && full > 0.0 {
            user - full
        } else {
            0.0
        },
        // harness.resume_s, harness.cache_hit_frac
        res.resume.map_or(0.0, |r| r.0),
        res.resume.map_or(0.0, |r| r.1),
        // host.calib_s, trace.overhead_pct
        median(&res.calib),
        pct_over(traced, untraced),
    ];

    let mut out: Vec<(String, f64)> = PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, _, _), v)| ((*name).to_owned(), v))
        .collect();

    // Self time of each span name over the whole traced run.
    let selfs = tr.self_secs();
    for name in SPAN_NAMES {
        let total: f64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum();
        out.push((self_metric(name), total));
    }
    out
}

/// A human-readable span table: calls, total and self seconds per name.
pub fn span_table(tr: &Tracer) -> String {
    let selfs = tr.self_secs();
    let mut table = format!(
        "{:<24} {:>7} {:>11} {:>11}\n",
        "span", "calls", "total_s", "self_s"
    );
    for name in SPAN_NAMES {
        let (mut calls, mut total, mut own) = (0, 0.0, 0.0);
        for (s, t) in tr.spans().iter().zip(&selfs) {
            if s.name == name {
                calls += 1;
                total += s.secs();
                own += t;
            }
        }
        table.push_str(&format!(
            "{name:<24} {calls:>7} {total:>11.6} {own:>11.6}\n"
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Ledger, Timings};

    /// The names a traced run prints are the catalogue's, in its order.
    #[test]
    fn printed_names_are_the_catalogue() {
        let res = RunResult {
            units: Vec::new(),
            ledger: Ledger::new(Vec::new()),
            timed_legs: Vec::new(),
            timings: Timings::default(),
            setup_rounds: Vec::new(),
            instructions: 0,
            drift: Vec::new(),
            paper_err: 0.0,
            calib: Vec::new(),
            classic: Vec::new(),
            gps_classic: Vec::new(),
            warps: 0,
            trace_bytes: 0,
            dropped_spans: 0,
            resume: None,
        };
        let printed: Vec<String> = per_layer(&res, &Tracer::new(true))
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let catalogue: Vec<String> = crate::metrics::per_layer()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(printed, catalogue);
    }
}
