//! # hlsrg-suite
//!
//! Umbrella crate for the reproduction of *"A Region-based Hierarchical Location
//! Service with Road-adapted Grids for Vehicular Networks"* (Chang, Chen, Sheu —
//! ICPP Workshops 2010).
//!
//! This crate re-exports every layer of the stack so examples and downstream users
//! can depend on a single crate:
//!
//! * [`des`] — deterministic discrete-event simulation kernel (ns-2 substitute core).
//! * [`geo`] — geometry primitives and spatial hashing.
//! * [`roadnet`] — road graphs, synthetic map generators, and the paper's
//!   road-adapted L1/L2/L3 grid partition.
//! * [`mobility`] — vehicular mobility (VanetMobiSim substitute): traffic lights,
//!   kinematics, artery-biased route choice.
//! * [`net`] — wireless/wired network simulation: unit-disk radio, bit-time MAC
//!   backoff, GPSR, directional geo-broadcast, RSU backbone.
//! * [`protocol`] — the HLSRG location service itself (the paper's contribution).
//! * [`baseline`] — the RLSMP baseline protocol the paper compares against.
//! * [`scenario`] — experiment harness, metrics, and generators for every figure in
//!   the paper's evaluation.
//! * [`trace`] — structured event trace (JSONL), per-node/per-level metrics
//!   registry, and the sim-time telemetry sampler.
//! * [`check`] — the runtime invariant oracle and the fuzz-case model.
//!
//! ## Quickstart
//!
//! ```
//! use hlsrg_suite::scenario::{SimConfig, Protocol, run_simulation};
//!
//! let cfg = SimConfig::quick_demo(42);
//! let report = run_simulation(&cfg, Protocol::Hlsrg);
//! assert!(report.queries_launched > 0);
//! ```

#![warn(missing_docs)]

pub use vanet_des as des;
pub use vanet_geo as geo;
pub use vanet_mobility as mobility;
pub use vanet_net as net;
pub use vanet_roadnet as roadnet;

pub use hlsrg as protocol;
pub use rlsmp as baseline;
pub use vanet_check as check;
pub use vanet_scenario as scenario;
pub use vanet_trace as trace;
