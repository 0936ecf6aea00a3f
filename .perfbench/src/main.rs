//! Benchmark of the GPS reproduction on the paper's figure configurations.
//!
//! ```text
//! cargo run --release --manifest-path .perfbench/Cargo.toml -- \
//!     --workload fig8|lane_tiers|telemetry --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. The line before it records the run's provenance. A traced
//! run also writes its spans as a Chrome trace under `.bench_out/`. See
//! README.md beside this file for the workloads, metrics and estimator.

mod checks;
mod grid;
mod host;
mod layers;
mod legs;
mod metrics;
mod run;
mod spans;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gps_types::Json;

use crate::grid::{Workload, SCALE};
use crate::host::{median, peak_rss_mib};
use crate::metrics::{drift_summary, metrics_json};
use crate::run::{Config, RunResult};
use crate::spans::{Leg, Tracer};

/// Directory (under the working directory) for pass stores and traces.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (fig8, lane_tiers, telemetry)")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Timed passes for a run of `seconds`: fixed by the workload's nominal
/// pass time, never by how fast this host runs, and at least 2 (a traced
/// run needs one untraced and one traced pass).
fn passes(seconds: f64, workload: Workload) -> u32 {
    ((seconds / workload.nominal_pass_secs()).ceil() as u32).max(2)
}

fn end_to_end(res: &RunResult) -> Result<Vec<(String, f64)>, String> {
    let timed = res.timings.min_sum(&res.timed_legs, false);
    let drift = drift_summary(&res.drift);
    let attempted = res.ledger.attempted();
    let ok = attempted - res.ledger.failed();
    Ok(vec![
        ("wall_s".into(), timed.wall),
        ("cpu_s".into(), timed.cpu),
        ("setup_s".into(), median(&res.setup_rounds)),
        ("peak_rss_mb".into(), peak_rss_mib()?),
        ("ok_frac".into(), ok as f64 / attempted.max(1) as f64),
        (
            "minst_per_s".into(),
            res.instructions as f64 / timed.wall / 1e6,
        ),
        ("drift_pct_max".into(), drift.max_abs),
        ("drift_pct_mean".into(), drift.mean_abs),
        ("paper_err_pct".into(), res.paper_err),
    ])
}

fn provenance(cfg: &Config, seconds: f64, res: &RunResult, spans_file: Option<&Path>) -> Json {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let legs = [
        Leg::User,
        Leg::MeasureFull,
        Leg::Classic,
        Leg::W1,
        Leg::W2,
        Leg::ProbedClassic,
        Leg::ProbedW1,
        Leg::ProbedW2,
    ];
    let workers = legs
        .iter()
        .map(|l| {
            // run_units runs with one sweep worker; the engine legs use
            // min(workers, GPUs) lane workers (0 = classic core).
            let n = if *l == Leg::User { 1 } else { l.workers() };
            (l.label().to_owned(), Json::Num(n as f64))
        })
        .collect();
    let root = std::env::current_dir().unwrap_or_default();
    Json::Obj(vec![(
        "provenance".into(),
        Json::Obj(vec![
            ("workload".into(), Json::Str(cfg.workload.name().into())),
            ("seed".into(), Json::Num(cfg.seed as f64)),
            ("seconds".into(), Json::Num(seconds)),
            ("passes".into(), Json::Num(f64::from(cfg.passes))),
            ("trace".into(), Json::Bool(cfg.trace)),
            ("scale".into(), Json::Str(SCALE.label().into())),
            ("available_parallelism".into(), Json::Num(threads as f64)),
            ("workers_per_leg".into(), Json::Obj(workers)),
            (
                "timed_legs".into(),
                Json::Arr(
                    res.timed_legs
                        .iter()
                        .map(|l| Json::Str(l.label().into()))
                        .collect(),
                ),
            ),
            ("git_rev".into(), Json::Str(host::git_rev(&root))),
            ("host_calib_s".into(), Json::Num(median(&res.calib))),
            (
                "pass_wall_s".into(),
                Json::Arr(
                    res.timings
                        .per_pass
                        .values()
                        .map(|s| Json::Num(*s))
                        .collect(),
                ),
            ),
            (
                "spans_file".into(),
                spans_file.map_or(Json::Null, |p| Json::Str(p.display().to_string())),
            ),
        ]),
    )])
}

fn write_spans(tr: &Tracer, dir: &Path, cfg: &Config) -> Result<PathBuf, String> {
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, tr.chrome_trace().emit())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

fn main_inner() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let out_dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        passes: passes(args.seconds, args.workload),
        trace: args.trace,
        out_dir: out_dir.clone(),
    };
    let outcome = run::run(&cfg);
    // Pass stores are temporary, kept only while the run lasts.
    std::fs::remove_dir_all(&out_dir).map_err(|e| format!("remove {}: {e}", out_dir.display()))?;
    let (tr, res) = outcome?;

    let metrics = if cfg.trace {
        layers::per_layer(&res, &tr)
    } else {
        end_to_end(&res)?
    };
    let spans_file = if cfg.trace {
        eprint!("{}", layers::span_table(&tr));
        Some(write_spans(&tr, Path::new(OUT_DIR), &cfg)?)
    } else {
        None
    };

    for (item, why) in res.ledger.failures() {
        eprintln!("CHECK FAILED {item}: {why}");
    }
    for (name, value) in &metrics {
        let unit = metrics::unit_of(name).unwrap_or("?");
        match metrics::END_TO_END.iter().find(|m| m.name == *name) {
            Some(m) => eprintln!(
                "{name:<36} {value:>16.6} {unit:<9} {} is better, bound {}",
                m.better, m.bound
            ),
            None => eprintln!("{name:<36} {value:>16.6} {unit}"),
        }
    }
    println!(
        "{}",
        provenance(&cfg, args.seconds, &res, spans_file.as_deref()).emit()
    );
    let failed = res.ledger.failed();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(failed == 0)),
        ("attempted".into(), Json::Num(res.ledger.attempted() as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), metrics_json(&metrics)),
    ]);
    println!("{}", result.emit());
    Ok(())
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let a =
            parse_args(&args("--workload fig8 --seed 3 --seconds 20 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Fig8, 3, 20.0, true)
        );
        for bad in [
            "--seed 3",
            "--workload nope",
            "--workload fig8 --trace 2",
            "--workload fig8 --seconds -1",
            "--workload fig8 --seed",
            "--workload fig8 --bogus 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn pass_count_follows_seconds_not_host_speed() {
        assert_eq!(passes(1.0, Workload::Fig8), 2);
        assert_eq!(passes(20.0, Workload::Fig8), 3);
        assert_eq!(passes(20.0, Workload::LaneTiers), 2);
        assert_eq!(passes(30.0, Workload::LaneTiers), 3);
        assert_eq!(passes(20.0, Workload::Telemetry), 4);
    }
}
