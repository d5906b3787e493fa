//! Differential determinism suite for region-sharded runs.
//!
//! The sharded executor's contract is *byte identity*: a run split across any
//! number of L3-region shards must produce exactly the same reports, traces,
//! and telemetry as the classic single-shard run of the same config. These
//! tests pin that contract by running every scenario at shards ∈ {1, 2, 4, 8}
//! and comparing the complete observable surface, with only the fields that
//! are shard-local by construction (per-shard counters, kernel
//! self-diagnostics, wall-clock timings) excluded.

use hlsrg_suite::scenario::{
    run_simulation, run_simulation_instrumented, run_simulation_traced, Protocol, RunReport,
    SimConfig,
};
use vanet_des::SimDuration;

const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// A 4 km map is a 2×2 L3 mesh — the smallest topology where region sharding
/// is non-trivial (cross-shard deliveries, L3 boundary migrations, wired
/// L3→L3 forwarding). Sized well below the paper density to keep the
/// 8-run-per-test differential suite fast.
fn multi_l3_cfg(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_fig3_2(4000.0, 220, seed);
    cfg.duration = SimDuration::from_secs(120);
    cfg.warmup = SimDuration::from_secs(40);
    cfg
}

fn sharded(cfg: &SimConfig, shards: usize) -> SimConfig {
    SimConfig {
        shards,
        ..cfg.clone()
    }
}

fn threaded(cfg: &SimConfig, shards: usize, threads: usize) -> SimConfig {
    SimConfig {
        shards,
        threads,
        ..cfg.clone()
    }
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Every report field that must be identical across shard counts, rendered to
/// one comparable string. Excluded as shard-count-dependent by construction:
/// `shard_counts` (one row per shard) and `boundary_events` (counts handoffs
/// that do not exist at one shard). Left out as kernel self-diagnostics:
/// `queue_resizes`, `queue_max_scan` (compared on their own below — every
/// shard's events share one queue, so they are shard-invariant too). Excluded
/// as wall-clock: `phase_timings`.
fn fingerprint(r: &RunReport) -> String {
    format!(
        "protocol={} seed={} vehicles={} map={:?} updates={} update_radio={} \
         coll_radio={} coll_wired={} query_radio={} query_wired={} launched={} \
         succeeded={} data_sent={} data_delivered={} rate={:?} lat_n={} \
         lat_mean={:?} lat_p95={:?} drops={:?} breakdown={:?} matrix={:?} \
         airtime={:?} artery={:?} diag={:?} timeline={} events={} peak={} \
         migrations={} violations={} epochs={}",
        r.protocol,
        r.seed,
        r.vehicles,
        r.map_size,
        r.update_packets,
        r.update_radio_tx,
        r.collection_radio_tx,
        r.collection_wired_tx,
        r.query_radio_tx,
        r.query_wired_tx,
        r.queries_launched,
        r.queries_succeeded,
        r.data_sent,
        r.data_delivered,
        r.success_rate,
        r.latency.count(),
        r.latency.mean(),
        r.latency_p95,
        r.drops,
        r.drop_breakdown,
        r.drop_matrix,
        r.airtime_us,
        r.artery_share,
        r.diagnostics,
        r.timeline.len(),
        r.events_processed,
        r.peak_queue_depth,
        r.shard_migrations,
        r.lookahead_violations,
        r.barrier_epochs,
    )
}

#[test]
fn sharded_reports_are_byte_identical_to_single_shard() {
    for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
        let base_cfg = multi_l3_cfg(42);
        let base = run_simulation(&base_cfg, protocol);
        assert_eq!(base.shard_counts.len(), 1);
        assert_eq!(base.boundary_events, 0, "one shard has no boundaries");
        assert_eq!(base.lookahead_violations, 0);
        assert!(base.barrier_epochs > 0, "lookahead epochs were counted");
        let want = fingerprint(&base);
        for shards in SHARD_COUNTS {
            let got = run_simulation(&sharded(&base_cfg, shards), protocol);
            assert_eq!(got.shard_counts.len(), shards);
            assert_eq!(got.lookahead_violations, 0, "sync contract violated");
            assert_eq!(
                fingerprint(&got),
                want,
                "{protocol:?} report drifted at {shards} shards"
            );
            assert_eq!(
                (got.queue_resizes, got.queue_max_scan),
                (base.queue_resizes, base.queue_max_scan),
                "{protocol:?} queue telemetry drifted at {shards} shards"
            );
            // The per-shard split must still conserve the event totals.
            let scheduled: u64 = got.shard_counts.iter().map(|&(s, _)| s).sum();
            let base_scheduled: u64 = base.shard_counts.iter().map(|&(s, _)| s).sum();
            assert_eq!(scheduled, base_scheduled, "scheduled totals diverged");
        }
    }
}

#[test]
fn sharded_traces_are_byte_identical() {
    for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
        let base_cfg = multi_l3_cfg(7);
        let (_, tracer) = run_simulation_traced(&base_cfg, protocol);
        let want = tracer.to_jsonl();
        for shards in SHARD_COUNTS {
            let (_, tracer) = run_simulation_traced(&sharded(&base_cfg, shards), protocol);
            assert_eq!(
                tracer.to_jsonl(),
                want,
                "{protocol:?} trace drifted at {shards} shards"
            );
        }
    }
}

#[test]
fn sharded_telemetry_is_byte_identical() {
    for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
        let base_cfg = SimConfig {
            telemetry_interval: Some(SimDuration::from_secs(10)),
            ..multi_l3_cfg(7)
        };
        let (_, _, samples) = run_simulation_instrumented(&base_cfg, protocol, false);
        let want = vanet_trace::telemetry_to_jsonl(&samples);
        assert!(samples.iter().any(|s| s.barriers > 0));
        for shards in SHARD_COUNTS {
            let (_, _, samples) =
                run_simulation_instrumented(&sharded(&base_cfg, shards), protocol, false);
            assert_eq!(
                vanet_trace::telemetry_to_jsonl(&samples),
                want,
                "{protocol:?} telemetry drifted at {shards} shards"
            );
        }
    }
}

/// The thread matrix: at a fixed shard count the thread count is pure
/// mechanism — threads only split each mobility step over disjoint vehicle
/// slices while every event runs in global `(time, seq)` order — so reports
/// must be byte-identical to the single-shard run at every thread count.
#[test]
fn threaded_reports_are_byte_identical_across_thread_counts() {
    for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
        let base_cfg = multi_l3_cfg(42);
        let want = fingerprint(&run_simulation(&base_cfg, protocol));
        for threads in THREAD_COUNTS {
            let got = run_simulation(&threaded(&base_cfg, 4, threads), protocol);
            assert_eq!(got.lookahead_violations, 0, "sync contract violated");
            assert_eq!(
                fingerprint(&got),
                want,
                "{protocol:?} report drifted at 4 shards / {threads} threads"
            );
        }
    }
}

/// Traces and telemetry streams — the full serialized observable surface —
/// stay byte-identical across thread counts.
#[test]
fn threaded_traces_and_telemetry_are_byte_identical() {
    let base_cfg = SimConfig {
        telemetry_interval: Some(SimDuration::from_secs(10)),
        ..multi_l3_cfg(7)
    };
    let (_, trace_want) = run_simulation_traced(&base_cfg, Protocol::Hlsrg);
    let trace_want = trace_want.to_jsonl();
    let (_, _, samples) = run_simulation_instrumented(&base_cfg, Protocol::Hlsrg, false);
    let tele_want = vanet_trace::telemetry_to_jsonl(&samples);
    for threads in THREAD_COUNTS {
        let cfg = threaded(&base_cfg, 4, threads);
        let (_, tracer) = run_simulation_traced(&cfg, Protocol::Hlsrg);
        assert_eq!(
            tracer.to_jsonl(),
            trace_want,
            "trace drifted at 4 shards / {threads} threads"
        );
        let (_, _, samples) = run_simulation_instrumented(&cfg, Protocol::Hlsrg, false);
        assert_eq!(
            vanet_trace::telemetry_to_jsonl(&samples),
            tele_want,
            "telemetry drifted at 4 shards / {threads} threads"
        );
    }
}

/// A thread count above the shard count clamps down to the shard count
/// instead of failing; output bytes are unchanged.
#[test]
fn oversubscribed_thread_count_clamps_to_shards() {
    let base_cfg = multi_l3_cfg(42);
    let want = fingerprint(&run_simulation(&sharded(&base_cfg, 2), Protocol::Hlsrg));
    let got = run_simulation(&threaded(&base_cfg, 2, 16), Protocol::Hlsrg);
    assert_eq!(fingerprint(&got), want, "clamped thread count drifted");
}

/// Vehicles migrate between L3 regions in any healthy scenario; the migration
/// count is part of the determinism surface (compared in `fingerprint`), and
/// a quick_demo run must actually exercise the boundary-crossing machinery.
#[test]
fn migrations_and_boundary_handoffs_actually_happen() {
    let cfg = sharded(&multi_l3_cfg(42), 4);
    let r = run_simulation(&cfg, Protocol::Hlsrg);
    assert!(r.shard_migrations > 0, "no vehicle ever changed L3 region");
    assert!(r.boundary_events > 0, "no delivery ever crossed a shard");
    // Work actually lands on more than one shard.
    let busy = r.shard_counts.iter().filter(|&&(_, p)| p > 0).count();
    assert!(
        busy > 1,
        "all events popped from one shard: {:?}",
        r.shard_counts
    );
}

/// A degenerate config that admits no positive lookahead must fail fast with
/// a clear message when sharded — never deadlock or run unsynchronized.
#[test]
fn zero_lookahead_config_fails_fast_when_sharded() {
    let mut cfg = sharded(&SimConfig::quick_demo(3), 2);
    cfg.radio.per_hop_overhead = SimDuration::ZERO;
    let err = std::panic::catch_unwind(|| run_simulation(&cfg, Protocol::Hlsrg))
        .expect_err("sharded run with zero lookahead must be rejected");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("cannot shard this run"),
        "unexpected panic message: {msg}"
    );
    // The same degenerate radio config is fine unsharded: the executor runs
    // it as one shard at zero lookahead, which counts no epochs and audits
    // nothing, and its report is pinned to the value the run produced on the
    // retired serial queue.
    let mut cfg = SimConfig::quick_demo(3);
    cfg.radio.per_hop_overhead = SimDuration::ZERO;
    let r = run_simulation(&cfg, Protocol::Hlsrg);
    assert_eq!(r.barrier_epochs, 0);
    assert_eq!(r.lookahead_violations, 0);
    let fp = fingerprint(&r);
    assert_eq!(
        fnv1a(fp.as_bytes()),
        0xbdf4_fc3b_4a04_536a,
        "zero-lookahead run drifted: {fp}"
    );
}

/// 64-bit FNV-1a, enough to pin a fingerprint string in one constant.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// With the oracle armed, sharded runs stay violation-free (including the
/// shard-handoff conservation audit) and report identical counters.
#[cfg(feature = "check")]
#[test]
fn checked_sharded_runs_are_clean_and_identical() {
    use hlsrg_suite::scenario::{run_simulation_checked, CheckSetup};
    for protocol in [Protocol::Hlsrg, Protocol::Rlsmp] {
        let base_cfg = multi_l3_cfg(42);
        let (base, v) = run_simulation_checked(&base_cfg, protocol, &CheckSetup::default());
        assert!(v.is_none(), "oracle flagged the single-shard run: {v:?}");
        let want = fingerprint(&base);
        for shards in SHARD_COUNTS {
            let (got, v) = run_simulation_checked(
                &sharded(&base_cfg, shards),
                protocol,
                &CheckSetup::default(),
            );
            assert!(v.is_none(), "oracle flagged {shards} shards: {v:?}");
            assert_eq!(
                fingerprint(&got),
                want,
                "{protocol:?} checked report drifted at {shards} shards"
            );
        }
    }
}

/// The invariant oracle also stays silent under the thread matrix, and the
/// checked counters match the single-shard run byte for byte.
#[cfg(feature = "check")]
#[test]
fn checked_threaded_runs_are_clean_and_identical() {
    use hlsrg_suite::scenario::{run_simulation_checked, CheckSetup};
    let base_cfg = multi_l3_cfg(42);
    let (base, v) = run_simulation_checked(&base_cfg, Protocol::Hlsrg, &CheckSetup::default());
    assert!(v.is_none(), "oracle flagged the single-shard run: {v:?}");
    let want = fingerprint(&base);
    for threads in THREAD_COUNTS {
        let (got, v) = run_simulation_checked(
            &threaded(&base_cfg, 4, threads),
            Protocol::Hlsrg,
            &CheckSetup::default(),
        );
        assert!(
            v.is_none(),
            "oracle flagged 4 shards / {threads} threads: {v:?}"
        );
        assert_eq!(
            fingerprint(&got),
            want,
            "checked report drifted at 4 shards / {threads} threads"
        );
    }
}
