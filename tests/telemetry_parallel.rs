//! Byte-identity of telemetry between the sequential and parallel engines.
//!
//! The lane engine buffers every per-GPU emission during a window and
//! replays the merged stream into the master probe in `(cycle, gpu, seq)`
//! order, so the exported artifacts — the Chrome trace JSON and the
//! per-phase counter breakdown — must be *byte-identical* to a sequential
//! run for PureLocal-tier paradigms, and invariant to the worker count for
//! the epoch tiers (RDL's writer epochs, GPS's conservative epochs).

use gps::interconnect::LinkGen;
use gps::obs::{chrome_trace, phase_breakdown, ProbeHandle, Telemetry};
use gps::paradigms::{run_paradigm_configured, Paradigm};
use gps::sim::SimConfig;
use gps::workloads::{suite, ScaleProfile};
use gps_harness::recording_probe;

const GPUS: usize = 4;

fn capture(app: &str, paradigm: Paradigm, workers: usize) -> Telemetry {
    let app = suite::by_name(app).unwrap();
    let wl = (app.build)(GPUS, ScaleProfile::Tiny);
    let probe = recording_probe();
    let config = SimConfig::gv100_system(GPUS).with_parallel_workers(workers);
    run_paradigm_configured(paradigm, &wl, config, LinkGen::Pcie3, probe.clone()).unwrap();
    probe.finish().expect("recording probe yields a recording")
}

fn artifacts(t: &Telemetry) -> (String, String) {
    (chrome_trace(t).emit(), phase_breakdown(t))
}

/// FNV-1a, 64-bit: a dependency-free digest for the committed goldens.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn pure_tier_telemetry_is_byte_identical_to_sequential() {
    // GPS left this set when it moved to the conservative GpsEpochs tier
    // (its telemetry pin is worker invariance, below); GpsOversub stays
    // because memory pressure keeps it on the classic (Fallback) core.
    for paradigm in [Paradigm::GpsOversub, Paradigm::InfiniteBw] {
        let sequential = artifacts(&capture("jacobi", paradigm, 0));
        let parallel = artifacts(&capture("jacobi", paradigm, 2));
        assert_eq!(
            sequential.0,
            parallel.0,
            "chrome trace diverged for {}",
            paradigm.label()
        );
        assert_eq!(
            sequential.1,
            parallel.1,
            "phase breakdown diverged for {}",
            paradigm.label()
        );
    }
}

#[test]
fn gps_lane_telemetry_is_worker_invariant() {
    let one = artifacts(&capture("jacobi", Paradigm::Gps, 1));
    for workers in [2usize, 4] {
        let n = artifacts(&capture("jacobi", Paradigm::Gps, workers));
        assert_eq!(one.0, n.0, "chrome trace diverged at {workers} workers");
        assert_eq!(one.1, n.1, "phase breakdown diverged at {workers} workers");
    }
}

#[test]
fn rdl_lane_telemetry_is_worker_invariant() {
    let one = artifacts(&capture("pagerank", Paradigm::Rdl, 1));
    for workers in [2usize, 4] {
        let n = artifacts(&capture("pagerank", Paradigm::Rdl, workers));
        assert_eq!(one.0, n.0, "chrome trace diverged at {workers} workers");
        assert_eq!(one.1, n.1, "phase breakdown diverged at {workers} workers");
    }
}

#[test]
fn disabled_probe_parallel_run_still_matches_sequential_report() {
    // Telemetry off is the common case; buffering must be skipped without
    // perturbing results (the `buffered` guard in the lane engine).
    // InfiniteBw pins classic-vs-lane identity; GPS (whose conservative
    // tier deviates from the classic loop by design) pins 1-vs-2 workers.
    let app = suite::by_name("jacobi").unwrap();
    let wl = (app.build)(GPUS, ScaleProfile::Tiny);
    let run = |paradigm, workers| {
        run_paradigm_configured(
            paradigm,
            &wl,
            SimConfig::gv100_system(GPUS).with_parallel_workers(workers),
            LinkGen::Pcie3,
            ProbeHandle::disabled(),
        )
        .unwrap()
    };
    assert_eq!(run(Paradigm::InfiniteBw, 0), run(Paradigm::InfiniteBw, 2));
    assert_eq!(run(Paradigm::Gps, 1), run(Paradigm::Gps, 2));
}

/// The classic engine's exported telemetry, pinned byte for byte: the
/// tests above compare engines and worker counts against each other, so a
/// change that moved the classic trace and every lane tier alike would
/// pass them. Digests of the Chrome trace and the phase breakdown for
/// three paradigms on one regular and one irregular app catch it.
#[test]
fn classic_telemetry_matches_committed_digests() {
    const DIGEST_PATH: &str = "tests/goldens/telemetry_classic_digests.txt";
    let mut out = String::from(
        "# Classic-engine telemetry digests (FNV-1a 64 and byte length): 4 GPUs, pcie3, tiny scale.\n\
         # Regenerate with GPS_UPDATE_GOLDENS=1 cargo test --test telemetry_parallel\n",
    );
    for app in ["jacobi", "sssp"] {
        for paradigm in [Paradigm::Um, Paradigm::Memcpy, Paradigm::Gps] {
            let (trace, phases) = artifacts(&capture(app, paradigm, 0));
            out.push_str(&format!(
                "{app}/{}: trace={:016x}/{} phases={:016x}/{}\n",
                paradigm.label(),
                fnv1a(trace.as_bytes()),
                trace.len(),
                fnv1a(phases.as_bytes()),
                phases.len(),
            ));
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(DIGEST_PATH);
    if std::env::var_os("GPS_UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &out).expect("write goldens");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with GPS_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    assert_eq!(
        committed,
        out,
        "classic telemetry drifted from {}",
        path.display()
    );
}
