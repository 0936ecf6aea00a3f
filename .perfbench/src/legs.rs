//! One execution of one unit ("a leg"), timed from outside through each
//! layer's public entry points: `AppEntry::build` (workloads),
//! `make_policy` (paradigms), `ProbeHandle::recording` / `finish` and the
//! exporters (obs), `Engine::new` / `Engine::run` (sim), and `run_units` /
//! `measure_full` (harness).

use std::path::Path;

use gps_harness::{
    measure_full, run_units, steady_cycles_per_iteration, SweepOptions, SweepOutcome,
};
use gps_interconnect::LinkGen;
use gps_obs::{
    chrome_trace, phase_breakdown, ProbeHandle, DEFAULT_BUCKET_CYCLES, DEFAULT_SPAN_CAPACITY,
};
use gps_paradigms::{make_policy, Paradigm};
use gps_sim::{Engine, SimReport, Workload};
use gps_workloads::suite::{self, AppEntry};

use crate::grid::{Unit, SCALE};
use crate::host::{measured, Cost};
use crate::spans::{Leg, Tracer};

/// Length and FNV-1a hash of an exported text: enough to compare exports
/// byte for byte without keeping megabytes of trace alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub fnv: u64,
}

pub fn digest(text: &str) -> Digest {
    let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    Digest {
        len: text.len(),
        fnv,
    }
}

/// What a probed leg exported.
#[derive(Debug, Clone)]
pub struct Exported {
    /// `chrome_trace(..).emit()`.
    pub trace: Digest,
    /// `phase_breakdown(..)`.
    pub phases: Digest,
    pub dropped: u64,
}

/// The result of one simulated leg.
#[derive(Debug, Clone)]
pub struct LegOut {
    pub report: SimReport,
    pub steady: f64,
    pub cost: Cost,
    pub export: Option<Exported>,
}

fn app(unit: &Unit) -> Result<AppEntry, String> {
    suite::by_name(unit.app).ok_or_else(|| format!("unknown application {}", unit.app))
}

/// The fabric a paradigm runs on (infinite-bw ignores the configured link,
/// exactly as `run_paradigm_configured` does).
fn link_of(unit: &Unit) -> LinkGen {
    if unit.paradigm == Paradigm::InfiniteBw {
        LinkGen::Infinite
    } else {
        unit.link
    }
}

fn recording_probe(tr: &mut Tracer) -> ProbeHandle {
    tr.span("obs.recording", |_| {
        ProbeHandle::recording(DEFAULT_BUCKET_CYCLES, DEFAULT_SPAN_CAPACITY)
    })
}

/// Sets `unit` up for `leg` — `AppEntry::build`, `make_policy`, (probe,)
/// `Engine::new`, each under its span — and hands the engine, the workload
/// it borrows and the probe to `then`. [`sim_leg`] runs the engine and
/// [`setup_leg`] drops it, so set-up times exactly the composition that is
/// simulated: the one `run_paradigm_configured` performs, split so each
/// call gets its own span.
fn compose<T>(
    tr: &mut Tracer,
    unit: &Unit,
    leg: Leg,
    then: impl FnOnce(&mut Tracer, Engine<'_>, &Workload, ProbeHandle) -> Result<T, String>,
) -> Result<T, String> {
    let app = app(unit)?;
    let workload = tr.span_counted(
        "workloads.build",
        |_| (app.build)(unit.gpus, SCALE),
        |w| w.total_warps(),
    );
    let mut policy = tr.span("paradigms.make_policy", |_| make_policy(unit.paradigm));
    let mut config = unit.spec(leg.workers()).machine();
    config.page_size = workload.page_size;
    let probe = if leg.probed() {
        recording_probe(tr)
    } else {
        ProbeHandle::disabled()
    };
    let engine = tr
        .span("sim.engine_new", |_| {
            Engine::new(config, link_of(unit), &workload, policy.as_mut())
                .map(|e| e.with_probe(probe.clone()))
        })
        .map_err(|e| format!("{}: {e}", unit.label()))?;
    then(tr, engine, &workload, probe)
}

/// Simulates `unit` on `leg`'s engine and worker count: the set-up of
/// [`compose`], `Engine::run`, then (probed legs) finish and export.
pub fn sim_leg(tr: &mut Tracer, unit: &Unit, leg: Leg) -> Result<LegOut, String> {
    tr.set_leg(leg);
    let (out, cost) = measured(|| {
        tr.span("bench.leg", |tr| {
            compose(tr, unit, leg, |tr, engine, workload, probe| {
                let report = tr.span_counted("sim.run", |_| engine.run(), SimReport::instructions);
                let steady = steady_cycles_per_iteration(&report, workload.phases_per_iteration);
                let export = if leg.probed() {
                    let telemetry = tr.span("obs.finish", |_| probe.finish()).ok_or_else(|| {
                        format!("{}: recording probe returned nothing", unit.label())
                    })?;
                    let (trace, phases) = tr.span_counted(
                        "obs.export",
                        |_| (chrome_trace(&telemetry).emit(), phase_breakdown(&telemetry)),
                        |(t, p)| (t.len() + p.len()) as u64,
                    );
                    Some((trace, phases, telemetry.dropped_spans))
                } else {
                    None
                };
                Ok((report, steady, export))
            })
        })
    });
    let (report, steady, export) = out?;
    // Hashed outside the timed region: the digest is the benchmark's work.
    Ok(LegOut {
        report,
        steady,
        cost,
        export: export.map(|(trace, phases, dropped)| Exported {
            trace: digest(&trace),
            phases: digest(&phases),
            dropped,
        }),
    })
}

/// Set-up of one unit on `leg` without simulating it. Returns the seconds
/// it took.
pub fn setup_leg(tr: &mut Tracer, unit: &Unit, leg: Leg) -> Result<f64, String> {
    let (built, cost) = measured(|| {
        tr.span("bench.leg", |tr| {
            compose(tr, unit, leg, |_, _, _, _| Ok(()))
        })
    });
    built?;
    Ok(cost.wall)
}

/// The sweep options of every `run_units` call: one worker, no logging,
/// so the executor adds no threads of its own.
pub fn sweep_options() -> SweepOptions {
    SweepOptions {
        workers: 1,
        ..SweepOptions::default()
    }
}

/// `run_units` on `units` against the store at `store` (the `fig8` user
/// path).
pub fn run_units_leg(
    tr: &mut Tracer,
    units: &[Unit],
    store: &Path,
) -> Result<(SweepOutcome, Cost), String> {
    let run_units_list = units.iter().map(Unit::run_unit).collect();
    let (outcome, cost) = measured(|| {
        tr.span("bench.leg", |tr| {
            tr.span_counted(
                "harness.run_units",
                |_| run_units(run_units_list, store, &sweep_options()),
                |o| o.as_ref().map_or(0, |o| o.executed as u64),
            )
        })
    });
    let outcome = outcome.map_err(|e| format!("run_units on {}: {e}", store.display()))?;
    Ok((outcome, cost))
}

/// `measure_full` on the classic engine (the in-memory reference of
/// `fig8`).
pub fn measure_full_leg(tr: &mut Tracer, unit: &Unit) -> Result<LegOut, String> {
    let app = app(unit)?;
    tr.set_leg(Leg::MeasureFull);
    let (m, cost) = measured(|| {
        tr.span("bench.leg", |tr| {
            tr.span_counted(
                "harness.measure_full",
                |_| measure_full(&app, unit.spec(0), 0, ProbeHandle::disabled()),
                |m| m.as_ref().map_or(0, |m| m.report.instructions()),
            )
        })
    });
    let m = m.map_err(|e| format!("{}: {e}", unit.label()))?;
    Ok(LegOut {
        report: m.report,
        steady: m.steady_cycles,
        cost,
        export: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_paradigms::run_paradigm_configured;
    use gps_workloads::ScaleProfile;

    /// The split composition must be exactly what the paradigms crate's
    /// own entry point runs, or the legs would time something else.
    #[test]
    fn split_composition_matches_run_paradigm_configured() {
        let unit = Unit {
            app: "jacobi",
            paradigm: Paradigm::InfiniteBw,
            gpus: 2,
            link: LinkGen::Pcie3,
            baseline: false,
        };
        let app = app(&unit).expect("suite app");
        let workload = (app.build)(unit.gpus, SCALE);
        let want = run_paradigm_configured(
            unit.paradigm,
            &workload,
            unit.spec(0).machine(),
            unit.link,
            ProbeHandle::disabled(),
        )
        .expect("runs");
        let mut tr = Tracer::new(true);
        let got = sim_leg(&mut tr, &unit, Leg::Classic).expect("runs");
        assert_eq!(got.report, want);
        assert!(tr
            .spans()
            .iter()
            .any(|s| s.name == "sim.run" && s.count > 0));
        assert!(setup_leg(&mut tr, &unit, Leg::ProbedW2).expect("sets up") > 0.0);
        assert_eq!(SCALE, ScaleProfile::Small);
    }
}
