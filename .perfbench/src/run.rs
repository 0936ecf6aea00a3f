//! The three workloads' runs: an untimed warm-up, interleaved timed passes
//! in a seed-permuted unit order with an untimed reference phase after the
//! first, the workload's output checks, and set-up rounds.
//!
//! With `--trace 1` the passes alternate between recording off (even) and
//! on (odd); the reference phase and workload-level steps record too, and
//! `fig8`'s traced passes add `measure_full` and the benchmark's own
//! classic composition of each unit, which split `run_units` into its
//! layers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use gps_bench::figures::{self, FigureCtx};
use gps_harness::{geomean, ResultStore, RunRecord};
use gps_paradigms::Paradigm;
use gps_sim::{LaneMode, SimReport};
use gps_workloads::suite;

use crate::checks::{self, Check};
use crate::grid::{self, Unit, Workload, SCALE};
use crate::host::{await_lone_thread, calib_loop, measured, permutation, Cost};
use crate::legs::{measure_full_leg, run_units_leg, setup_leg, sim_leg, LegOut};
use crate::metrics::{drift_pct, paper_err_pct, paper_speedup, FIG8_PAPER};
use crate::spans::{Leg, Tracer, ONCE_PASS, SETUP_PASS};

/// Pass id of the reference phase's spans.
pub const REF_PASS: u32 = 3000;
/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: u32 = 15;
/// A calibration sample is taken before every this many units.
const CALIB_EVERY: usize = 8;

/// What a run was asked to do.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub passes: u32,
    pub trace: bool,
    pub out_dir: PathBuf,
}

impl Config {
    /// Odd passes of a traced run record spans.
    pub fn traced(&self, pass: u32) -> bool {
        self.trace && pass % 2 == 1
    }
}

/// Timed samples per `(unit, leg, traced pass)`, plus each pass's total.
#[derive(Default)]
pub struct Timings {
    samples: BTreeMap<(usize, Leg, bool), Vec<Cost>>,
    /// Σ wall seconds of the timed legs, per pass.
    pub per_pass: BTreeMap<u32, f64>,
}

impl Timings {
    /// Records a timed-leg sample of pass `pass`.
    fn add_timed(&mut self, unit: usize, leg: Leg, pass: u32, traced: bool, cost: Cost) {
        self.samples
            .entry((unit, leg, traced))
            .or_default()
            .push(cost);
        *self.per_pass.entry(pass).or_default() += cost.wall;
    }

    /// Σ over units and `legs` of each one's fastest sample; wall and CPU
    /// minima are taken separately.
    pub fn min_sum(&self, legs: &[Leg], traced: bool) -> Cost {
        let mut total = Cost::default();
        for ((_, leg, t), samples) in &self.samples {
            if *t == traced && legs.contains(leg) {
                total.wall += samples.iter().map(|c| c.wall).fold(f64::INFINITY, f64::min);
                total.cpu += samples.iter().map(|c| c.cpu).fold(f64::INFINITY, f64::min);
            }
        }
        total
    }
}

/// Per-item pass/fail record behind `ok_frac`.
pub struct Ledger {
    items: Vec<(String, Option<String>)>,
}

impl Ledger {
    pub fn new(labels: impl IntoIterator<Item = String>) -> Self {
        Ledger {
            items: labels.into_iter().map(|l| (l, None)).collect(),
        }
    }

    /// Keeps the first failure of item `i`.
    fn check(&mut self, i: usize, result: Check) {
        if let (Err(e), Some(item)) = (result, self.items.get_mut(i)) {
            if item.1.is_none() {
                item.1 = Some(e);
            }
        }
    }

    pub fn attempted(&self) -> usize {
        self.items.len()
    }

    pub fn failures(&self) -> impl Iterator<Item = (&str, &str)> {
        self.items
            .iter()
            .filter_map(|(l, e)| e.as_deref().map(|e| (l.as_str(), e)))
    }

    pub fn failed(&self) -> usize {
        self.failures().count()
    }
}

/// Everything a run measured, for the metric assembly.
pub struct RunResult {
    pub units: Vec<Unit>,
    pub ledger: Ledger,
    /// The legs whose host time is the workload's `wall_s` and `cpu_s`.
    pub timed_legs: Vec<Leg>,
    pub timings: Timings,
    pub setup_rounds: Vec<f64>,
    /// Simulated warp instructions of one execution of the timed legs.
    pub instructions: u64,
    /// `(tier, signed drift %)` per lane-tier unit.
    pub drift: Vec<(LaneMode, f64)>,
    pub paper_err: f64,
    pub calib: Vec<f64>,
    /// Classic-engine reports of the grid units (deterministic counts).
    pub classic: Vec<SimReport>,
    /// Classic-engine reports of the gps units.
    pub gps_classic: Vec<SimReport>,
    pub warps: u64,
    pub trace_bytes: u64,
    pub dropped_spans: u64,
    /// `(seconds, cache-hit fraction)` of the resume and figure step.
    pub resume: Option<(f64, f64)>,
}

/// What one set-up round builds: every unit on each of `legs`, plus (on
/// `fig8`) loading and opening the warm-up's result store.
struct SetupPlan {
    units: Vec<Unit>,
    legs: Vec<Leg>,
    store: Option<PathBuf>,
    rounds: Vec<f64>,
    /// The unit slot before which each round runs.
    schedule: Vec<usize>,
}

/// The slots, out of `total`, before which the set-up rounds run: spread
/// evenly from the first slot, so the last round falls in the final pass.
pub fn setup_schedule(total: usize) -> Vec<usize> {
    let rounds = SETUP_ROUNDS as usize;
    (0..rounds).map(|k| k * total / rounds).collect()
}

struct Runner<'a> {
    cfg: &'a Config,
    tr: Tracer,
    timings: Timings,
    calib: Vec<f64>,
    ledger: Ledger,
    setup: SetupPlan,
    /// Units run so far by the passes and the reference phase.
    slots: usize,
    /// Units the passes and the reference phase run in all.
    total: usize,
}

impl<'a> Runner<'a> {
    /// `reference` is the number of units the reference phase runs; with
    /// the passes' units they are the slots the set-up rounds spread over.
    fn new(
        cfg: &'a Config,
        labels: Vec<String>,
        units: &[Unit],
        setup_legs: &[Leg],
        reference: usize,
    ) -> Self {
        let total = units.len() * cfg.passes as usize + reference;
        Runner {
            cfg,
            tr: Tracer::new(cfg.trace),
            timings: Timings::default(),
            calib: Vec::new(),
            ledger: Ledger::new(labels),
            setup: SetupPlan {
                units: units.to_vec(),
                legs: setup_legs.to_vec(),
                store: None,
                rounds: Vec::new(),
                schedule: setup_schedule(total),
            },
            slots: 0,
            total,
        }
    }

    /// Starts pass `pass`, returning whether it records spans.
    fn begin_pass(&mut self, pass: u32) -> bool {
        let traced = self.cfg.traced(pass);
        self.tr.set_enabled(traced);
        traced
    }

    /// Re-enables recording for the reference phase and workload-level
    /// steps of a traced run.
    fn trace_once(&mut self) {
        self.tr.set_enabled(self.cfg.trace);
    }

    fn order(&self, n: usize, pass: u64) -> Vec<usize> {
        permutation(n, self.cfg.seed, pass)
    }

    /// Called before every unit: waits for the last unit's threads to
    /// exit, then interleaves the calibration loop and the
    /// set-up rounds with the units, so both sample the host across the
    /// whole run rather than one phase of it.
    fn tick(&mut self) -> Result<(), String> {
        await_lone_thread();
        if self.slots.is_multiple_of(CALIB_EVERY) {
            self.calib.push(calib_loop());
        }
        while self
            .setup
            .schedule
            .get(self.setup.rounds.len())
            .is_some_and(|&due| due <= self.slots)
        {
            self.setup_round()?;
        }
        self.slots += 1;
        Ok(())
    }

    /// One set-up round: build, policy, (probe,) `Engine::new` of every
    /// unit on each set-up leg, in grid order, never simulated. Each step
    /// runs twice back to back and the faster counts, so the caches the
    /// preceding simulation left behind do not decide the figure; the two
    /// repetitions record their spans under passes of their own.
    fn setup_round(&mut self) -> Result<(), String> {
        let was = self.tr.enabled();
        self.tr.set_enabled(self.cfg.trace);
        let first = SETUP_PASS + 2 * self.setup.rounds.len() as u32;
        let mut total = 0.0;
        if let Some(store) = &self.setup.store {
            let mut best = f64::INFINITY;
            for pass in [first, first + 1] {
                self.tr.at(0, pass, Leg::Setup);
                let (opened, cost) = measured(|| {
                    self.tr.span("harness.store_load", |_| {
                        ResultStore::load_latest(store)
                            .and_then(|_| ResultStore::open_append(store))
                    })
                });
                opened.map_err(|e| format!("open {}: {e}", store.display()))?;
                best = best.min(cost.wall);
            }
            total += best;
        }
        for (i, unit) in self.setup.units.iter().enumerate() {
            for &leg in &self.setup.legs {
                let mut best = f64::INFINITY;
                for pass in [first, first + 1] {
                    self.tr.at(i, pass, Leg::Setup);
                    best = best.min(setup_leg(&mut self.tr, unit, leg)?);
                }
                total += best;
            }
        }
        self.setup.rounds.push(total);
        self.tr.set_enabled(was);
        Ok(())
    }

    /// Runs `legs` of every unit once, in permuted order, as the reference
    /// phase; `[unit][leg]` indexes the returned table. Units outside the
    /// workload's own list pass `traced = false` so their spans cannot be
    /// mistaken for a unit of the same index.
    fn reference(
        &mut self,
        units: &[Unit],
        legs: &[Leg],
        traced: bool,
    ) -> Result<Vec<Vec<LegOut>>, String> {
        self.tr.set_enabled(self.cfg.trace && traced);
        let mut out: Vec<Vec<Option<LegOut>>> = vec![vec![None; legs.len()]; units.len()];
        for i in self.order(units.len(), u64::from(REF_PASS)) {
            self.tick()?;
            for (j, &leg) in legs.iter().enumerate() {
                self.tr.at(i, REF_PASS, leg);
                let unit = &units[i];
                out[i][j] = Some(self.tr.span("bench.unit", |tr| sim_leg(tr, unit, leg))?);
            }
        }
        Ok(out
            .into_iter()
            .map(|row| row.into_iter().map(|o| o.expect("every leg ran")).collect())
            .collect())
    }

    /// Hands back everything measured, once every slot has run and with
    /// it every set-up round.
    fn finish(self, units: Vec<Unit>, timed_legs: Vec<Leg>) -> Result<(Tracer, RunResult), String> {
        if self.slots != self.total || self.setup.rounds.len() != SETUP_ROUNDS as usize {
            return Err(format!(
                "ran {} of {} unit slots and {} of {SETUP_ROUNDS} set-up rounds",
                self.slots,
                self.total,
                self.setup.rounds.len()
            ));
        }
        let warps = units
            .iter()
            .map(|u| {
                let app = suite::by_name(u.app).expect("grid apps are suite apps");
                (app.build)(u.gpus, SCALE).total_warps()
            })
            .sum();
        Ok((
            self.tr,
            RunResult {
                units,
                ledger: self.ledger,
                timed_legs,
                timings: self.timings,
                setup_rounds: self.setup.rounds,
                instructions: 0,
                drift: Vec::new(),
                paper_err: 0.0,
                calib: self.calib,
                classic: Vec::new(),
                gps_classic: Vec::new(),
                warps,
                trace_bytes: 0,
                dropped_spans: 0,
                resume: None,
            },
        ))
    }
}

fn labels(units: &[Unit]) -> Vec<String> {
    units.iter().map(Unit::label).collect()
}

/// Classic reports of the grid units, and of the gps ones among them.
fn classic_sets(units: &[Unit], reports: &[&SimReport]) -> (Vec<SimReport>, Vec<SimReport>) {
    let grid: Vec<(Unit, SimReport)> = units
        .iter()
        .zip(reports)
        .filter(|(u, _)| !u.baseline)
        .map(|(u, r)| (*u, (*r).clone()))
        .collect();
    let gps = grid
        .iter()
        .filter(|(u, _)| u.paradigm == Paradigm::Gps)
        .map(|(_, r)| r.clone())
        .collect();
    (grid.into_iter().map(|(_, r)| r).collect(), gps)
}

/// Geomean speedup of `paradigm` at `gpus` GPUs over the suite apps present
/// in `units`, from per-unit steady cycles.
fn geomean_speedup(units: &[Unit], steady: &[f64], paradigm: Paradigm, gpus: usize) -> Option<f64> {
    let base = |app: &str| {
        units
            .iter()
            .position(|u| u.baseline && u.app == app)
            .map(|i| steady[i])
    };
    let speedups: Vec<f64> = units
        .iter()
        .enumerate()
        .filter(|(_, u)| !u.baseline && u.paradigm == paradigm && u.gpus == gpus)
        .map(|(i, u)| base(u.app).map(|b| b / steady[i]))
        .collect::<Option<_>>()?;
    (!speedups.is_empty()).then(|| geomean(&speedups))
}

/// `paper_err_pct` over every `(paradigm, machine)` of `units` the paper
/// quotes a value for.
fn paper_err(units: &[Unit], steady: &[f64]) -> f64 {
    let mut configs: Vec<(Paradigm, usize, gps_interconnect::LinkGen)> = Vec::new();
    for u in units.iter().filter(|u| !u.baseline) {
        if !configs.contains(&(u.paradigm, u.gpus, u.link)) {
            configs.push((u.paradigm, u.gpus, u.link));
        }
    }
    let pairs: Vec<(f64, f64)> = configs
        .into_iter()
        .filter_map(|(p, g, l)| {
            Some((
                geomean_speedup(units, steady, p, g)?,
                paper_speedup(p, g, l)?,
            ))
        })
        .collect();
    paper_err_pct(&pairs)
}

fn fresh(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", path.display())),
    }
}

/// Runs the configured workload.
pub fn run(cfg: &Config) -> Result<(Tracer, RunResult), String> {
    match cfg.workload {
        Workload::Fig8 => fig8(cfg),
        Workload::LaneTiers => lane_tiers(cfg),
        Workload::Telemetry => telemetry(cfg),
    }
}

/// Pass id of the warm-up's order.
const WARM_PASS: u64 = 4000;
/// Units the untimed warm-up runs through the timed legs.
const WARM_UNITS: usize = 1;

/// The paradigms whose lane tiers drift from classic (GpsEpochs,
/// WriterEpochs); `fig8` measures its drift on these. PureLocal is
/// bit-identical to classic, which `lane_tiers` checks.
const EPOCH_PARADIGMS: [Paradigm; 2] = [Paradigm::Gps, Paradigm::Rdl];

/// The timed pass after which the reference phase runs. Placing it
/// between the first two passes spaces each unit's timed samples apart in
/// time, so one slow host phase is less likely to cover all of them.
const REF_AFTER_PASS: u32 = 0;

/// The units `fig8`'s reference phase runs on one lane worker: the gps and
/// rdl units give drift, and with the baselines they give the simulated
/// instruction count of every `(app, GPUs)` the figure uses, which
/// `run_units` does not report.
fn fig8_reference(unit: &Unit) -> bool {
    unit.baseline || EPOCH_PARADIGMS.contains(&unit.paradigm)
}

/// Simulated instructions per `(app, GPUs)`.
type Census = BTreeMap<(&'static str, usize), u64>;

/// Simulated instructions per `(app, GPUs)`, from reports of units that
/// share them. Instruction streams come from the application alone, so
/// every paradigm must agree; a disagreement fails the later unit.
fn instruction_census(
    units: &[Unit],
    reports: &[(usize, &SimReport)],
) -> (Census, Vec<(usize, Check)>) {
    let mut census = BTreeMap::new();
    let mut verdicts = Vec::new();
    for &(i, report) in reports {
        let u = units[i];
        let n = report.instructions();
        let first = *census.entry((u.app, u.gpus)).or_insert(n);
        verdicts.push((
            i,
            checks::same_value(
                &format!("instructions of {}", u.label()),
                n as f64,
                first as f64,
            ),
        ));
    }
    (census, verdicts)
}

/// `fig8`: every unit through `run_units` into a fresh store per pass,
/// then a resume over the last store and `figures::fig8` from it.
fn fig8(cfg: &Config) -> Result<(Tracer, RunResult), String> {
    let units = grid::fig8_units();
    let n = units.len();
    let mut item_labels = labels(&units);
    item_labels.push("resume executes nothing".into());
    item_labels.push("figure geomeans match in-memory measurements".into());
    let reference = units.iter().filter(|u| fig8_reference(u)).count();
    let mut r = Runner::new(cfg, item_labels, &units, &[Leg::Classic], reference);

    r.tr.set_enabled(false);
    let warm_store = cfg.out_dir.join("fig8-warm.jsonl");
    fresh(&warm_store)?;
    let warm: Vec<Unit> = r
        .order(n, WARM_PASS)
        .into_iter()
        .take(WARM_UNITS)
        .map(|i| units[i])
        .collect();
    run_units_leg(&mut r.tr, &warm, &warm_store)?;
    // Set-up rounds load and reopen this store: the open/load a resuming
    // sweep pays, without file creation in the timed region.
    r.setup.store = Some(warm_store);

    // The first pass's in-memory records; later passes must store the same.
    let mut first: Vec<Option<RunRecord>> = vec![None; n];
    let mut own: Vec<Option<SimReport>> = vec![None; n];
    let mut lanes: Vec<(usize, LegOut)> = Vec::new();
    let mut last_store = PathBuf::new();
    for pass in 0..cfg.passes {
        let traced = r.begin_pass(pass);
        let store = cfg.out_dir.join(format!("fig8-pass{pass}.jsonl"));
        fresh(&store)?;
        for i in r.order(n, u64::from(pass)) {
            r.tick()?;
            let unit = &units[i];
            r.tr.at(i, pass, Leg::User);
            let (outcome, cost) = r.tr.span("bench.unit", |tr| {
                run_units_leg(tr, std::slice::from_ref(unit), &store)
            })?;
            r.timings.add_timed(i, Leg::User, pass, traced, cost);
            r.ledger.check(i, checks::sweep_clean(&outcome, 1));
            let key = unit.run_unit().key;
            let Some(record) = outcome.records.into_iter().find(|rec| rec.key == key) else {
                r.ledger
                    .check(i, Err(format!("{} missing from the store", unit.label())));
                continue;
            };
            if let Some(f) = &first[i] {
                r.ledger.check(i, checks::records_agree(f, &record));
            }
            if traced {
                // Split the user path into its layers: `measure_full`, and
                // the benchmark's own build/policy/new/run composition.
                r.tr.at(i, pass, Leg::MeasureFull);
                let full = r.tr.span("bench.unit", |tr| measure_full_leg(tr, unit))?;
                r.tr.at(i, pass, Leg::Classic);
                let split =
                    r.tr.span("bench.unit", |tr| sim_leg(tr, unit, Leg::Classic))?;
                r.ledger.check(
                    i,
                    checks::all([
                        checks::record_matches(&record, &full.report, full.steady),
                        checks::record_matches(&record, &split.report, split.steady),
                    ]),
                );
                own[i] = Some(split.report);
            }
            first[i].get_or_insert(record);
        }
        last_store = store;

        if pass == REF_AFTER_PASS {
            r.trace_once();
            for i in r.order(n, u64::from(REF_PASS)) {
                let unit = &units[i];
                if !fig8_reference(unit) {
                    continue;
                }
                r.tick()?;
                r.tr.at(i, REF_PASS, Leg::W1);
                lanes.push((i, r.tr.span("bench.unit", |tr| sim_leg(tr, unit, Leg::W1))?));
            }
        }
    }
    // A unit no pass stored has already failed its check; NaN keeps it
    // from matching anything downstream.
    let steady: Vec<f64> = first
        .iter()
        .map(|rec| rec.as_ref().map_or(f64::NAN, |rec| rec.steady_cycles))
        .collect();

    let reports: Vec<(usize, &SimReport)> = lanes.iter().map(|(i, l)| (*i, &l.report)).collect();
    let (census, verdicts) = instruction_census(&units, &reports);
    for (i, verdict) in verdicts {
        r.ledger.check(i, verdict);
    }
    let census_of = |u: &Unit| census.get(&(u.app, u.gpus)).copied();
    for (i, report) in own.iter().enumerate() {
        if let Some(report) = report {
            let want = census_of(&units[i]).unwrap_or(0);
            r.ledger.check(
                i,
                checks::same_value(
                    "instructions vs census",
                    report.instructions() as f64,
                    want as f64,
                ),
            );
        }
    }
    let instructions = units
        .iter()
        .map(|u| census_of(u).ok_or_else(|| format!("no instruction count for {}", u.label())))
        .sum::<Result<u64, String>>()?;
    let drift = lanes
        .iter()
        .filter(|(i, _)| !units[*i].baseline)
        .map(|(i, w1)| (units[*i].tier(), drift_pct(steady[*i], w1.steady)))
        .collect();

    // Resume over the complete store, then regenerate the figure from it
    // and compare it with the first pass's in-memory records.
    await_lone_thread();
    r.trace_once();
    r.tr.at(0, ONCE_PASS, Leg::Workload);
    let (resume, resume_cost) = run_units_leg(&mut r.tr, &units, &last_store)?;
    r.ledger.check(n, checks::resume_all_hits(&resume, n));
    let (figure, figure_cost) = measured(|| {
        r.tr.span("bench.figures_fig8", |_| {
            figures::fig8(&FigureCtx::with_store(&last_store), SCALE)
        })
    });
    let mut geomean_checks = Vec::new();
    let mut paper = Vec::new();
    for (paradigm, paper_value) in FIG8_PAPER {
        let column = paradigm.to_string();
        for (i, u) in units
            .iter()
            .enumerate()
            .filter(|(_, u)| u.paradigm == paradigm && !u.baseline)
        {
            let base = units
                .iter()
                .position(|b| b.baseline && b.app == u.app)
                .map_or(f64::NAN, |b| steady[b]);
            let want = base / steady[i];
            let got = figure.value(u.app, &column).unwrap_or(f64::NAN);
            r.ledger.check(
                i,
                checks::same_value(&format!("figure cell {}", u.label()), got, want),
            );
        }
        let want = geomean_speedup(&units, &steady, paradigm, 4).unwrap_or(f64::NAN);
        let got = figure.value("geomean", &column).unwrap_or(f64::NAN);
        geomean_checks.push(checks::same_value(&format!("geomean {column}"), got, want));
        paper.push((got, paper_value));
    }
    r.ledger.check(n + 1, checks::all(geomean_checks));

    // The split composition's reports exist in traced runs, which are the
    // only ones that print the per-layer counts.
    let own: Option<Vec<SimReport>> = own.into_iter().collect();
    let (classic, gps_classic) = own.map_or_else(Default::default, |own| {
        classic_sets(&units, &own.iter().collect::<Vec<_>>())
    });
    let (tr, mut res) = r.finish(units, vec![Leg::User])?;
    res.instructions = instructions;
    res.drift = drift;
    res.paper_err = paper_err_pct(&paper);
    res.classic = classic;
    res.gps_classic = gps_classic;
    res.resume = Some((
        resume_cost.wall + figure_cost.wall,
        resume.skipped as f64 / n as f64,
    ));
    Ok((tr, res))
}

/// Untimed warm-up: the first few units of a seeded order through `legs`.
fn warm_up(r: &mut Runner, units: &[Unit], legs: &[Leg]) -> Result<(), String> {
    r.tr.set_enabled(false);
    for i in r.order(units.len(), WARM_PASS).into_iter().take(WARM_UNITS) {
        for &leg in legs {
            sim_leg(&mut r.tr, &units[i], leg)?;
        }
    }
    Ok(())
}

/// `lane_tiers`: the three lane tiers on both figure machines, timed on
/// two workers, with classic and one-worker references.
fn lane_tiers(cfg: &Config) -> Result<(Tracer, RunResult), String> {
    let units = grid::lane_tier_units();
    let n = units.len();
    // The reference phase runs every unit once (classic and 1 worker).
    let mut r = Runner::new(cfg, labels(&units), &units, &[Leg::W2], n);
    warm_up(&mut r, &units, &[Leg::W2])?;

    let mut reference = Vec::new();
    let mut timed: Vec<(usize, LegOut)> = Vec::new();
    for pass in 0..cfg.passes {
        let traced = r.begin_pass(pass);
        for i in r.order(n, u64::from(pass)) {
            r.tick()?;
            let unit = &units[i];
            r.tr.at(i, pass, Leg::W2);
            let w2 = r.tr.span("bench.unit", |tr| sim_leg(tr, unit, Leg::W2))?;
            r.timings.add_timed(i, Leg::W2, pass, traced, w2.cost);
            timed.push((i, w2));
        }
        if pass == REF_AFTER_PASS {
            reference = r.reference(&units, &[Leg::Classic, Leg::W1], true)?;
        }
    }

    let mut first: Vec<Option<LegOut>> = vec![None; n];
    for (i, w2) in timed {
        let [classic, w1] = &reference[i][..] else {
            unreachable!("two reference legs")
        };
        r.ledger.check(
            i,
            checks::identical("1 vs 2 workers", &w1.report, &w2.report),
        );
        if units[i].tier() == LaneMode::PureLocal {
            r.ledger.check(
                i,
                checks::identical("PureLocal lanes vs classic", &classic.report, &w2.report),
            );
        }
        match &first[i] {
            Some(f) => r
                .ledger
                .check(i, checks::identical("pass vs pass", &f.report, &w2.report)),
            None => first[i] = Some(w2),
        }
    }
    let first: Vec<LegOut> = first
        .into_iter()
        .map(|f| f.expect("every unit timed"))
        .collect();
    let steady: Vec<f64> = first.iter().map(|f| f.steady).collect();
    let instructions = first.iter().map(|f| f.report.instructions()).sum();

    let drift = units
        .iter()
        .zip(&reference)
        .zip(&steady)
        .filter(|((u, _), _)| !u.baseline)
        .map(|((u, refs), s)| (u.tier(), drift_pct(refs[0].steady, *s)))
        .collect();
    let reports: Vec<&SimReport> = reference.iter().map(|refs| &refs[0].report).collect();
    let (classic, gps_classic) = classic_sets(&units, &reports);
    let paper = paper_err(&units, &steady);
    let (tr, mut res) = r.finish(units, vec![Leg::W2])?;
    res.instructions = instructions;
    res.drift = drift;
    res.paper_err = paper;
    res.classic = classic;
    res.gps_classic = gps_classic;
    Ok((tr, res))
}

/// `telemetry`: gps and rdl on the three pattern apps with a recording
/// probe, on the classic engine and on two lane workers, exported to
/// memory.
fn telemetry(cfg: &Config) -> Result<(Tracer, RunResult), String> {
    let units = grid::telemetry_units();
    let n = units.len();
    let setup_legs = [Leg::ProbedClassic, Leg::ProbedW2];
    let baselines = grid::telemetry_baselines();
    // The reference phase runs every unit once, then the baselines.
    let mut r = Runner::new(
        cfg,
        labels(&units),
        &units,
        &setup_legs,
        n + baselines.len(),
    );
    warm_up(&mut r, &units, &setup_legs)?;

    let mut reference = Vec::new();
    let mut base_ref = Vec::new();
    let mut timed: Vec<(usize, LegOut, LegOut)> = Vec::new();
    for pass in 0..cfg.passes {
        let traced = r.begin_pass(pass);
        for i in r.order(n, u64::from(pass)) {
            r.tick()?;
            let unit = &units[i];
            r.tr.at(i, pass, Leg::ProbedClassic);
            let (pc, pw2) = r.tr.span("bench.unit", |tr| {
                Ok::<_, String>((
                    sim_leg(tr, unit, Leg::ProbedClassic)?,
                    sim_leg(tr, unit, Leg::ProbedW2)?,
                ))
            })?;
            r.timings
                .add_timed(i, Leg::ProbedClassic, pass, traced, pc.cost);
            r.timings
                .add_timed(i, Leg::ProbedW2, pass, traced, pw2.cost);
            timed.push((i, pc, pw2));
        }
        if pass == REF_AFTER_PASS {
            reference = r.reference(&units, &[Leg::Classic, Leg::W2, Leg::ProbedW1], true)?;
            // The one-GPU baselines only feed `paper_err_pct`.
            base_ref = r.reference(&baselines, &[Leg::Classic], false)?;
        }
    }

    let mut first: Vec<Option<(LegOut, LegOut)>> = vec![None; n];
    for (i, pc, pw2) in timed {
        let [classic, w2, pw1] = &reference[i][..] else {
            unreachable!("three reference legs")
        };
        let (Some(x1), Some(x2), Some(xc)) = (&pw1.export, &pw2.export, &pc.export) else {
            unreachable!("probed legs export")
        };
        r.ledger.check(
            i,
            checks::all([
                checks::identical("probed vs unprobed (classic)", &classic.report, &pc.report),
                checks::identical("probed vs unprobed (lanes)", &w2.report, &pw2.report),
                checks::identical("probed 1 vs 2 workers", &pw1.report, &pw2.report),
                checks::same_export("trace 1 vs 2 workers", x1.trace, x2.trace),
                checks::same_export("phase breakdown 1 vs 2 workers", x1.phases, x2.phases),
                checks::no_dropped_spans(x1.dropped + x2.dropped + xc.dropped),
            ]),
        );
        match &first[i] {
            Some((c, l)) => r.ledger.check(
                i,
                checks::all([
                    checks::identical("pass vs pass (classic)", &c.report, &pc.report),
                    checks::identical("pass vs pass (lanes)", &l.report, &pw2.report),
                ]),
            ),
            None => first[i] = Some((pc, pw2)),
        }
    }
    let first: Vec<(LegOut, LegOut)> = first
        .into_iter()
        .map(|f| f.expect("every unit timed"))
        .collect();
    let instructions = first
        .iter()
        .map(|(c, l)| c.report.instructions() + l.report.instructions())
        .sum();
    let exports = first
        .iter()
        .flat_map(|(c, l)| [&c.export, &l.export])
        .flatten();
    let (trace_bytes, dropped) = exports.fold((0, 0), |(b, d), x| {
        (b + (x.trace.len + x.phases.len) as u64, d + x.dropped)
    });

    let drift = units
        .iter()
        .zip(&reference)
        .map(|(u, refs)| (u.tier(), drift_pct(refs[0].steady, refs[1].steady)))
        .collect();
    // Speedups on the classic engine against the apps' own baselines.
    let mut all_units = baselines.clone();
    all_units.extend(units.iter().copied());
    let steady: Vec<f64> = base_ref
        .iter()
        .chain(&reference)
        .map(|refs| refs[0].steady)
        .collect();
    let paper = paper_err(&all_units, &steady);
    let reports: Vec<&SimReport> = reference.iter().map(|refs| &refs[0].report).collect();
    let (classic, gps_classic) = classic_sets(&units, &reports);
    let (tr, mut res) = r.finish(units, vec![Leg::ProbedClassic, Leg::ProbedW2])?;
    res.instructions = instructions;
    res.drift = drift;
    res.paper_err = paper;
    res.classic = classic;
    res.gps_classic = gps_classic;
    res.trace_bytes = trace_bytes;
    res.dropped_spans = dropped;
    Ok((tr, res))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::tests::report;
    use gps_sim::GpuReport;

    /// The set-up rounds spread over every phase of a run: the first runs
    /// before the first unit and the last inside the final timed pass, on
    /// every workload's slot count.
    #[test]
    fn setup_rounds_reach_the_final_pass() {
        let fig8 = grid::fig8_units();
        let lanes = grid::lane_tier_units();
        let telemetry = grid::telemetry_units();
        let cases = [
            (
                fig8.len(),
                fig8.iter().filter(|u| fig8_reference(u)).count(),
            ),
            (lanes.len(), lanes.len()),
            (
                telemetry.len(),
                telemetry.len() + grid::telemetry_baselines().len(),
            ),
        ];
        for (units, reference) in cases {
            for passes in 2..=6 {
                let total = units * passes + reference;
                let s = setup_schedule(total);
                assert_eq!(s.len(), SETUP_ROUNDS as usize);
                assert_eq!(s[0], 0);
                assert!(s.windows(2).all(|w| w[0] < w[1]));
                let last = s[s.len() - 1];
                // The final timed pass is the run's last `units` slots.
                assert!(
                    (total - units..total).contains(&last),
                    "{units} units, {passes} passes: last round at {last} of {total}"
                );
            }
        }
    }

    fn with_instructions(n: u64) -> SimReport {
        let mut r = report(&[100, 200]);
        r.per_gpu = vec![GpuReport {
            instructions: n,
            ..GpuReport::default()
        }];
        r
    }

    #[test]
    fn instruction_census_fails_on_a_planted_mismatch() {
        let units = grid::fig8_units();
        let gps = units
            .iter()
            .position(|u| u.app == "jacobi" && u.paradigm == Paradigm::Gps)
            .expect("jacobi/gps");
        let rdl = units
            .iter()
            .position(|u| u.app == "jacobi" && u.paradigm == Paradigm::Rdl)
            .expect("jacobi/rdl");
        let (a, b) = (with_instructions(700), with_instructions(700));
        let (census, verdicts) = instruction_census(&units, &[(gps, &a), (rdl, &b)]);
        assert_eq!(census.get(&("jacobi", 4)), Some(&700));
        assert!(verdicts.iter().all(|(_, v)| v.is_ok()));
        let planted = with_instructions(701);
        let (_, verdicts) = instruction_census(&units, &[(gps, &a), (rdl, &planted)]);
        assert!(verdicts[0].1.is_ok());
        assert_eq!(verdicts[1].0, rdl);
        assert!(verdicts[1].1.is_err());
    }
}
