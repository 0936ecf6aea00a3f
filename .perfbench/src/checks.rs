//! Output checks. Each returns `Err(reason)` on a mismatch; a unit counts
//! towards `ok_frac` only when every check that covers it passes.

use gps_harness::{RunRecord, SweepOutcome};
use gps_sim::SimReport;

use crate::legs::Digest;

pub type Check = Result<(), String>;

/// `run_units` quarantined nothing and executed what it was given.
pub fn sweep_clean(outcome: &SweepOutcome, expected_executed: usize) -> Check {
    if outcome.quarantined > 0 {
        return Err(format!("{} units quarantined", outcome.quarantined));
    }
    if outcome.executed != expected_executed {
        return Err(format!(
            "executed {} units, expected {expected_executed}",
            outcome.executed
        ));
    }
    Ok(())
}

/// The resume pass over a complete store executes nothing.
pub fn resume_all_hits(outcome: &SweepOutcome, units: usize) -> Check {
    if outcome.executed != 0 || outcome.skipped != units || outcome.quarantined != 0 {
        return Err(format!(
            "resume executed {}, skipped {} of {units}, quarantined {}",
            outcome.executed, outcome.skipped, outcome.quarantined
        ));
    }
    Ok(())
}

/// Two reports that must be bit-identical (PureLocal lanes vs classic,
/// 1 vs 2 workers, probed vs unprobed, pass vs pass).
pub fn identical(what: &str, a: &SimReport, b: &SimReport) -> Check {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{what}: reports differ (total cycles {} vs {}, fabric bytes {} vs {})",
            a.total_cycles.as_u64(),
            b.total_cycles.as_u64(),
            a.interconnect_bytes,
            b.interconnect_bytes
        ))
    }
}

/// A stored record carries exactly what the in-memory report says.
pub fn record_matches(record: &RunRecord, report: &SimReport, steady: f64) -> Check {
    let same = record.steady_cycles.to_bits() == steady.to_bits()
        && record.total_cycles == report.total_cycles.as_u64()
        && record.interconnect_bytes == report.interconnect_bytes
        && record.interconnect_transfers == report.interconnect_transfers
        && report.policy_metrics.iter().all(|(k, v)| {
            record
                .metrics
                .iter()
                .any(|(rk, rv)| rk == k && rv.to_bits() == v.to_bits())
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "{}: stored record disagrees with the in-memory report (steady {} vs {steady})",
            record.key, record.steady_cycles
        ))
    }
}

/// Two passes stored the same record for a unit: everything but the
/// host-time field (`wall_ms`) must agree.
pub fn records_agree(first: &RunRecord, again: &RunRecord) -> Check {
    let mut again = again.clone();
    again.wall_ms = first.wall_ms;
    if *first == again {
        Ok(())
    } else {
        Err(format!(
            "{}: stored records differ between passes (steady {} vs {})",
            first.key, first.steady_cycles, again.steady_cycles
        ))
    }
}

/// Two values that must be bit-identical.
pub fn same_value(what: &str, a: f64, b: f64) -> Check {
    if a.to_bits() == b.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: {a} != {b}"))
    }
}

/// The exported telemetry of the 1- and 2-worker runs is byte-identical
/// (same length and FNV-1a hash).
pub fn same_export(what: &str, a: Digest, b: Digest) -> Check {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{what}: exports differ ({} vs {} bytes, hash {:016x} vs {:016x})",
            a.len, b.len, a.fnv, b.fnv
        ))
    }
}

/// The recording kept every span.
pub fn no_dropped_spans(dropped: u64) -> Check {
    if dropped == 0 {
        Ok(())
    } else {
        Err(format!("{dropped} spans dropped from the recording"))
    }
}

/// The first failure of `checks`, if any.
pub fn all(checks: impl IntoIterator<Item = Check>) -> Check {
    checks
        .into_iter()
        .collect::<Result<Vec<()>, String>>()
        .map(|_| ())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gps_harness::RunStatus;
    use gps_sim::MemoryPressure;
    use gps_types::Cycle;

    /// A hand-built report: `ends` are the phase barriers, one phase per
    /// iteration.
    pub(crate) fn report(ends: &[u64]) -> SimReport {
        SimReport {
            workload: "w".into(),
            policy: "p".into(),
            gpu_count: 4,
            link: "pcie3".into(),
            total_cycles: Cycle::new(*ends.last().unwrap_or(&0)),
            phase_ends: ends.iter().copied().map(Cycle::new).collect(),
            phase_traffic: vec![0; ends.len()],
            interconnect_bytes: 4096,
            interconnect_transfers: 64,
            per_gpu: vec![],
            policy_metrics: vec![("rwq_hit_rate".into(), 0.5)],
        }
    }

    fn outcome(executed: usize, skipped: usize, quarantined: usize) -> SweepOutcome {
        SweepOutcome {
            records: vec![],
            executed,
            skipped,
            pending: 0,
            quarantined,
            corrupt_lines: 0,
            migrated: 0,
        }
    }

    fn record(steady: f64, report: &SimReport) -> RunRecord {
        RunRecord {
            key: "k".into(),
            app: "jacobi".into(),
            paradigm: "gps".into(),
            gpus: 4,
            link: "pcie3".into(),
            scale: "small".into(),
            topology: "switch".into(),
            parallel: 0,
            pressure: MemoryPressure::NONE,
            status: RunStatus::Ok,
            attempts: 1,
            wall_ms: 1.0,
            steady_cycles: steady,
            total_cycles: report.total_cycles.as_u64(),
            interconnect_bytes: report.interconnect_bytes,
            interconnect_transfers: report.interconnect_transfers,
            metrics: report.policy_metrics.clone(),
            error: None,
        }
    }

    #[test]
    fn sweep_checks_fail_on_quarantine_or_execution() {
        assert!(sweep_clean(&outcome(1, 0, 0), 1).is_ok());
        assert!(sweep_clean(&outcome(1, 0, 1), 1).is_err());
        assert!(sweep_clean(&outcome(0, 1, 0), 1).is_err());
        assert!(resume_all_hits(&outcome(0, 56, 0), 56).is_ok());
        assert!(resume_all_hits(&outcome(1, 55, 0), 56).is_err());
        assert!(resume_all_hits(&outcome(0, 55, 0), 56).is_err());
    }

    #[test]
    fn identical_reports_fail_on_any_planted_difference() {
        let a = report(&[100, 200, 300]);
        assert!(identical("x", &a, &a.clone()).is_ok());
        let mut b = a.clone();
        b.interconnect_transfers += 1;
        assert!(identical("x", &a, &b).is_err());
        let mut c = a.clone();
        c.policy_metrics[0].1 = 0.5000001;
        assert!(identical("x", &a, &c).is_err());
        let mut d = a.clone();
        d.phase_ends[1] = Cycle::new(201);
        assert!(identical("x", &a, &d).is_err());
    }

    #[test]
    fn record_check_fails_on_planted_mismatch() {
        let rep = report(&[100, 200, 300]);
        let rec = record(100.0, &rep);
        assert!(record_matches(&rec, &rep, 100.0).is_ok());
        assert!(record_matches(&rec, &rep, 100.5).is_err());
        let mut other = rep.clone();
        other.interconnect_bytes += 1;
        assert!(record_matches(&rec, &other, 100.0).is_err());
        let mut metric = rep.clone();
        metric.policy_metrics[0].1 = 0.25;
        assert!(record_matches(&rec, &metric, 100.0).is_err());
        // Passes may differ in host time only.
        let mut slower = rec.clone();
        slower.wall_ms = 9.0;
        assert!(records_agree(&rec, &slower).is_ok());
        let mut drifted = slower.clone();
        drifted.total_cycles += 1;
        assert!(records_agree(&rec, &drifted).is_err());
        let mut remetered = slower;
        remetered.metrics[0].1 = 0.25;
        assert!(records_agree(&rec, &remetered).is_err());
        // The record is what the store round-trips.
        let back = RunRecord::from_json(&rec.to_json()).expect("round trip");
        assert!(record_matches(&back, &rep, 100.0).is_ok());
    }

    #[test]
    fn value_export_and_drop_checks_fail_on_planted_mismatch() {
        assert!(same_value("g", 3.25, 3.25).is_ok());
        assert!(same_value("g", 3.25, 3.25 + f64::EPSILON * 4.0).is_err());
        let d = crate::legs::digest;
        assert!(same_export("t", d("{\"a\":1}"), d("{\"a\":1}")).is_ok());
        assert!(same_export("t", d("{\"a\":1}"), d("{\"a\":2}")).is_err());
        assert!(same_export("t", d("ab"), d("abc")).is_err());
        assert!(same_export("t", d("ab"), d("ba")).is_err());
        assert!(no_dropped_spans(0).is_ok());
        assert!(no_dropped_spans(3).is_err());
        assert!(all([Ok(()), Err("first".into()), Err("second".into())]) == Err("first".into()));
    }
}
