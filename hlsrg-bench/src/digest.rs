//! Report digests: the benchmark's correctness fingerprint.
//!
//! A report is rendered one `key: value` line per field, in the same form and
//! order as the repository's golden-report tests, plus `events_processed`;
//! the digest is FNV-1a over those bytes. Floats go through `{:?}`, so every
//! bit counts. Wall-clock fields (`phase_timings`) and fields that depend on
//! the shard count by design (`shard_counts`, `boundary_events`) are left
//! out, so one digest holds at every shard and thread count.

use vanet_scenario::RunReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a, continued from `state` (start from [`fnv1a`]).
fn fnv1a_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// The report's digest text: one `key: value` line per field.
pub fn render(r: &RunReport) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: String| out.push_str(&format!("{k}: {v}\n"));
    line("protocol", r.protocol.to_string());
    line("seed", r.seed.to_string());
    line("vehicles", r.vehicles.to_string());
    line("map_size", format!("{:?}", r.map_size));
    line("update_packets", r.update_packets.to_string());
    line("update_radio_tx", r.update_radio_tx.to_string());
    line("collection_radio_tx", r.collection_radio_tx.to_string());
    line("collection_wired_tx", r.collection_wired_tx.to_string());
    line("query_radio_tx", r.query_radio_tx.to_string());
    line("query_wired_tx", r.query_wired_tx.to_string());
    line("queries_launched", r.queries_launched.to_string());
    line("queries_succeeded", r.queries_succeeded.to_string());
    line("data_sent", r.data_sent.to_string());
    line("data_delivered", r.data_delivered.to_string());
    line("success_rate", format!("{:?}", r.success_rate));
    line("latency_count", r.latency.count().to_string());
    line("latency_mean", format!("{:?}", r.latency.mean()));
    line("latency_p95", format!("{:?}", r.latency_p95));
    line("drops", format!("{:?}", r.drops));
    line("drop_breakdown", format!("{:?}", r.drop_breakdown));
    line("drop_matrix", format!("{:?}", r.drop_matrix));
    line("airtime_us", format!("{:?}", r.airtime_us));
    line("artery_share", format!("{:?}", r.artery_share));
    for (k, v) in &r.diagnostics {
        line(&format!("diagnostic.{k}"), format!("{v:?}"));
    }
    line("timeline_points", r.timeline.len().to_string());
    line("events_processed", r.events_processed.to_string());
    out
}

/// One report's digest.
pub fn digest(r: &RunReport) -> u64 {
    fnv1a(render(r).as_bytes())
}

/// A workload's digest: FNV-1a over its runs' digests, in run order.
pub fn combine(per_run: &[u64]) -> u64 {
    per_run
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a_extend(h, &d.to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digests_see_every_rendered_field_and_run_order() {
        let cfg = vanet_scenario::SimConfig::quick_demo(1);
        let a = vanet_scenario::run_simulation(&cfg, vanet_scenario::Protocol::Hlsrg);
        let mut b = a.clone();
        b.events_processed += 1;
        assert_ne!(digest(&a), digest(&b));
        b = a.clone();
        b.success_rate = f64::from_bits(a.success_rate.to_bits() ^ 1);
        assert_ne!(digest(&a), digest(&b));
        let (da, db) = (digest(&a), digest(&b));
        assert_ne!(combine(&[da, db]), combine(&[db, da]));
    }
}
