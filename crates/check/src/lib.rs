//! # vanet-check — runtime invariant oracle + deterministic fuzz cases
//!
//! The safety net under the HLSRG simulation stack:
//!
//! * [`Oracle`] — cross-checks packet conservation, GPSR per-hop sanity and
//!   loop freedom, partition geometry, and trace/counter reconciliation while a
//!   run executes. The scenario runner drives it only when a run is armed
//!   (`run_simulation_checked`); unarmed runs never touch it, and both
//!   report the same counters.
//! * [`FuzzCase`] — seeded random scenario knobs (via `StreamId::Custom`
//!   streams), greedy shrinking, and a replayable JSONL corpus format, consumed
//!   by the `fuzz` CLI subcommand.
//!
//! This crate deliberately depends only on the layers it checks (`vanet-net`,
//! `vanet-roadnet`) — the scenario crate depends on it, never the other way
//! around.

#![warn(missing_docs)]

pub mod case;
pub mod oracle;

pub use case::FuzzCase;
pub use oracle::{class_ix, Oracle, PendingDeliver, Violation};

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_des::SimDuration;
    use vanet_net::counters::PacketClass;
    use vanet_net::{Emission, NetCounters, NodeId, Transport};

    fn local(class: PacketClass) -> Emission<u32> {
        Emission {
            delay: SimDuration::from_millis(1),
            to: NodeId(0),
            transport: Transport::Local { class, payload: 0 },
        }
    }

    #[test]
    fn conservation_ledger_balances_scheduled_against_consumed() {
        let counters = NetCounters::new();
        let e = local(PacketClass::Update);

        // 3 scheduled, 2 consumed (but never resolved), 1 left over: the
        // schedule/consume side balances, the outcome side must flag the two
        // deliveries that never resolved to an arrival/forward/drop.
        let mut o = Oracle::new();
        o.note_emissions::<u32>(&[e.clone(), e.clone(), e.clone()]);
        o.pre_deliver(&e.transport, &counters);
        o.pre_deliver(&e.transport, &counters);
        o.end_of_run([1, 0, 0, 0]);
        assert!(o.violation().is_some());

        // A fully leftover queue reconciles with no consumption at all.
        let mut idle = Oracle::new();
        idle.note_emissions::<u32>(&[e.clone(), e]);
        idle.end_of_run([2, 0, 0, 0]);
        assert!(idle.violation().is_none());
    }

    #[test]
    fn unbalanced_ledger_is_reported_once() {
        let e = local(PacketClass::Query);
        let mut o = Oracle::new();
        o.note_emission(&e);
        o.end_of_run([0; 4]); // scheduled 1, consumed 0, leftover 0
        let v = o.violation().expect("imbalance detected");
        assert_eq!(v.invariant, "packet-conservation");
        let first = v.detail.clone();
        o.report("other", "second violation".into());
        assert_eq!(o.violation().unwrap().detail, first, "first violation wins");
        assert!(o.into_violation().is_some());
    }

    #[test]
    fn partition_checks_pass_on_a_paper_grid() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use vanet_roadnet::generators::{generate_grid, GridMapSpec};
        use vanet_roadnet::partition::Partition;

        let net = generate_grid(&GridMapSpec::paper(2000.0), &mut SmallRng::seed_from_u64(1));
        let p = Partition::build(&net, 500.0);
        let mut o = Oracle::new();
        let positions: Vec<vanet_geo::Point> = p.rsus().iter().map(|s| s.pos).collect();
        o.check_partition(&p, Some(&positions));
        assert!(o.violation().is_none(), "{:?}", o.violation());

        // A displaced RSU registration is caught.
        let mut shifted = positions;
        shifted[0].x += 10.0;
        let mut o = Oracle::new();
        o.check_partition(&p, Some(&shifted));
        assert_eq!(o.violation().unwrap().invariant, "partition-rsu");
    }
}
