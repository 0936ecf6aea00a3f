//! The unit lists of the three workloads: which application runs under
//! which paradigm on which machine. All run at `small` scale on the
//! paper's GV100 system with the `switch` topology.

use gps_harness::{run_key_default_machine, RunSpec, RunUnit};
use gps_interconnect::{LinkGen, Topology};
use gps_paradigms::{make_policy, Paradigm};
use gps_sim::{LaneMode, MemoryPressure};
use gps_workloads::{suite, ScaleProfile};

/// The scale every workload runs at.
pub const SCALE: ScaleProfile = ScaleProfile::Small;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig8,
    LaneTiers,
    Telemetry,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Fig8, Workload::LaneTiers, Workload::Telemetry];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig8 => "fig8",
            Workload::LaneTiers => "lane_tiers",
            Workload::Telemetry => "telemetry",
        }
    }

    /// Nominal seconds of one timed pass on a 2-vCPU host. `--seconds`
    /// divided by this (rounded up, at least 2) is the pass count, so the
    /// estimator does not depend on how fast the host happens to be.
    /// `fig8` and `telemetry` have no classic-plus-one-worker reference
    /// phase over every unit, so their passes are set shorter than a pass
    /// takes, buying more passes in a run of about the same length.
    pub fn nominal_pass_secs(self) -> f64 {
        match self {
            Workload::Fig8 => 7.0,
            Workload::LaneTiers => 10.0,
            Workload::Telemetry => 5.0,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One simulation of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    pub app: &'static str,
    pub paradigm: Paradigm,
    pub gpus: usize,
    pub link: LinkGen,
    /// A one-GPU baseline every speedup is normalised to.
    pub baseline: bool,
}

impl Unit {
    fn grid(app: &'static str, paradigm: Paradigm, gpus: usize, link: LinkGen) -> Unit {
        Unit {
            app,
            paradigm,
            gpus,
            link,
            baseline: false,
        }
    }

    /// The single-GPU run the figures normalise to (the same spec as
    /// `gps_harness::baseline`).
    fn one_gpu(app: &'static str) -> Unit {
        Unit {
            app,
            paradigm: Paradigm::InfiniteBw,
            gpus: 1,
            link: LinkGen::Pcie3,
            baseline: true,
        }
    }

    /// The harness spec of this unit on `workers` lane workers (0 =
    /// classic engine).
    pub fn spec(&self, workers: usize) -> RunSpec {
        RunSpec {
            paradigm: self.paradigm,
            gpus: self.gpus,
            link: self.link,
            scale: SCALE,
            pressure: MemoryPressure::NONE,
            topology: Topology::Switch,
            parallel: workers,
        }
    }

    /// The unit as the sweep executor sees it (classic engine).
    pub fn run_unit(&self) -> RunUnit {
        let spec = self.spec(0);
        RunUnit {
            key: run_key_default_machine(self.app, spec),
            app: self.app.to_owned(),
            spec,
        }
    }

    /// The lane-engine tier the unit's policy declares.
    pub fn tier(&self) -> LaneMode {
        make_policy(self.paradigm).lane_mode()
    }

    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}gpu/{}",
            self.app,
            self.paradigm.label(),
            self.gpus,
            self.link.label()
        )
    }
}

fn app_names() -> Vec<&'static str> {
    suite::all().iter().map(|a| a.name).collect()
}

/// Figure 8: the 8 one-GPU baselines, then 8 apps × the 6 `FIGURE8`
/// paradigms at 4 GPUs on PCIe 3.0.
pub fn fig8_units() -> Vec<Unit> {
    let apps = app_names();
    let mut units: Vec<Unit> = apps.iter().map(|a| Unit::one_gpu(a)).collect();
    for app in &apps {
        for p in Paradigm::FIGURE8 {
            units.push(Unit::grid(app, p, 4, LinkGen::Pcie3));
        }
    }
    units
}

/// The paradigms that run on the three lane tiers: gps (GpsEpochs), rdl
/// (WriterEpochs) and infinite-bw (PureLocal).
pub const LANE_PARADIGMS: [Paradigm; 3] = [Paradigm::Gps, Paradigm::Rdl, Paradigm::InfiniteBw];

/// The machines of the paper's two speedup figures: Figure 8 (4 GPUs,
/// PCIe 3.0) and Figure 12 (16 GPUs, PCIe 6.0).
pub const MACHINES: [(usize, LinkGen); 2] = [(4, LinkGen::Pcie3), (16, LinkGen::Pcie6)];

/// The 8 one-GPU baselines, then the three lane-tier paradigms × 8 apps on
/// both figure machines.
pub fn lane_tier_units() -> Vec<Unit> {
    let apps = app_names();
    let mut units: Vec<Unit> = apps.iter().map(|a| Unit::one_gpu(a)).collect();
    for (gpus, link) in MACHINES {
        for app in &apps {
            for p in LANE_PARADIGMS {
                units.push(Unit::grid(app, p, gpus, link));
            }
        }
    }
    units
}

/// One application per communication pattern: peer-to-peer, many-to-many
/// and all-to-all.
pub const TELEMETRY_APPS: [&str; 3] = ["jacobi", "sssp", "als"];

/// gps and rdl × the three pattern apps at 4 GPUs on PCIe 3.0.
pub fn telemetry_units() -> Vec<Unit> {
    let mut units = Vec::new();
    for app in TELEMETRY_APPS {
        for p in [Paradigm::Gps, Paradigm::Rdl] {
            units.push(Unit::grid(app, p, 4, LinkGen::Pcie3));
        }
    }
    units
}

/// The one-GPU baselines of the telemetry apps (reference only: they feed
/// `paper_err_pct`).
pub fn telemetry_baselines() -> Vec<Unit> {
    TELEMETRY_APPS.iter().map(|a| Unit::one_gpu(a)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn distinct(units: &[Unit]) -> usize {
        units.iter().map(Unit::label).collect::<BTreeSet<_>>().len()
    }

    #[test]
    fn fig8_covers_the_figure_grid() {
        let units = fig8_units();
        assert_eq!(units.len(), 8 * 6 + 8);
        assert_eq!(distinct(&units), units.len());
        assert_eq!(units.iter().filter(|u| u.baseline).count(), 8);
        for app in app_names() {
            for p in Paradigm::FIGURE8 {
                assert!(units.iter().any(|u| u.app == app
                    && u.paradigm == p
                    && u.gpus == 4
                    && u.link == LinkGen::Pcie3));
            }
        }
    }

    #[test]
    fn lane_tiers_cover_every_tier_on_both_machines() {
        let units = lane_tier_units();
        assert_eq!(units.len(), 3 * 8 * 2 + 8);
        assert_eq!(distinct(&units), units.len());
        for tier in [
            LaneMode::GpsEpochs,
            LaneMode::WriterEpochs,
            LaneMode::PureLocal,
        ] {
            for (gpus, link) in MACHINES {
                let n = units
                    .iter()
                    .filter(|u| !u.baseline && u.tier() == tier && u.gpus == gpus && u.link == link)
                    .count();
                assert_eq!(n, 8, "{tier:?} at {gpus} GPUs");
            }
        }
        assert!(units.iter().all(|u| u.tier() != LaneMode::Fallback));
    }

    #[test]
    fn telemetry_covers_each_pattern_under_both_epoch_tiers() {
        let units = telemetry_units();
        assert_eq!(units.len(), 6);
        let patterns: BTreeSet<String> = units
            .iter()
            .map(|u| format!("{}", suite::by_name(u.app).expect("suite app").pattern))
            .collect();
        assert_eq!(patterns.len(), 3);
        let tiers: BTreeSet<String> = units.iter().map(|u| format!("{:?}", u.tier())).collect();
        assert_eq!(tiers.len(), 2);
    }

    #[test]
    fn units_map_to_the_sweep_executors_keys() {
        let u = fig8_units()[8];
        assert_eq!(u.run_unit().key, run_key_default_machine(u.app, u.spec(0)));
        assert_eq!(Workload::parse("lane_tiers"), Some(Workload::LaneTiers));
        assert_eq!(Workload::parse("nope"), None);
    }
}
