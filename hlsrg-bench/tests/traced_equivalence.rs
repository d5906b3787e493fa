//! The traced driver must reproduce `run_simulation` exactly: it is a copy of
//! the runner's loop, so this test is the first to fail when the runner's
//! order of layer calls changes and the copy has to follow.

use hlsrg_bench::digest::{digest, render};
use hlsrg_bench::traced::{setup_time, traced_run, LayerTrace};
use vanet_des::SimDuration;
use vanet_scenario::{run_simulation, Protocol, SimConfig};

/// `quick_demo` has a single L3 region, so only a multi-region map puts
/// events on more than one shard.
fn multi_region(seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper_fig3_2(4000.0, 220, seed);
    cfg.duration = SimDuration::from_secs(90);
    cfg.warmup = SimDuration::from_secs(30);
    cfg
}

#[test]
fn traced_driver_matches_run_simulation() {
    let cases = [
        (SimConfig::quick_demo(42), 1, 1),
        (SimConfig::quick_demo(42), 2, 2),
        (multi_region(7), 1, 1),
        (multi_region(7), 4, 2),
    ];
    for (base, shards, threads) in cases {
        for protocol in Protocol::ALL {
            let cfg = SimConfig {
                shards,
                threads,
                ..base.clone()
            };
            let mut tr = LayerTrace::default();
            let traced = traced_run(&cfg, protocol, &mut tr);
            let plain = run_simulation(&cfg, protocol);
            let what = format!(
                "{protocol:?}, {} vehicles, {shards} shards x {threads} threads",
                cfg.vehicles
            );
            assert_eq!(render(&traced), render(&plain), "{what}");
            assert_eq!(digest(&traced), digest(&plain), "{what}");
            // Fields outside the digest follow too.
            assert_eq!(traced.peak_queue_depth, plain.peak_queue_depth, "{what}");
            assert_eq!(traced.queue_resizes, plain.queue_resizes, "{what}");
            assert_eq!(traced.queue_max_scan, plain.queue_max_scan, "{what}");
            assert_eq!(traced.shard_counts, plain.shard_counts, "{what}");
            assert_eq!(traced.boundary_events, plain.boundary_events, "{what}");
            assert_eq!(traced.shard_migrations, plain.shard_migrations, "{what}");
            assert_eq!(traced.barrier_epochs, plain.barrier_epochs, "{what}");
            assert_eq!(traced.lookahead_violations, 0, "{what}");

            assert_eq!(tr.events, plain.events_processed, "{what}");
            assert_eq!(tr.queries, plain.queries_launched as u64, "{what}");
            assert!(
                tr.ticks > 0 && tr.deliveries > 0 && tr.schedules > 0,
                "{what}"
            );
            // Every lap of the clock lands in one span or the harness.
            assert_eq!(tr.spans() + tr.harness, tr.wall, "{what}");
        }
    }
}

#[test]
fn setup_time_builds_both_protocols() {
    let cfg = SimConfig::quick_demo(1);
    for protocol in Protocol::ALL {
        assert!(setup_time(&cfg, protocol).as_nanos() > 0);
    }
}

#[test]
#[should_panic(expected = "telemetry")]
fn traced_driver_rejects_configs_it_does_not_mirror() {
    let cfg = SimConfig {
        telemetry_interval: Some(SimDuration::from_secs(10)),
        ..SimConfig::quick_demo(1)
    };
    traced_run(&cfg, Protocol::Hlsrg, &mut LayerTrace::default());
}
