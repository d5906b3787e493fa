//! # hlsrg-bench — the simulator's benchmark
//!
//! Five workloads ([`workload::Workload`]) run the simulator the way its users
//! do. Each is measured twice over in a process of its own:
//!
//! * **untraced**: the timed calls go only through `run_simulation`,
//!   `replicate_batch` and `SimConfig`, and give the end-to-end metrics
//!   (wall time, events/s, set-up time, peak RSS) as medians over reps;
//! * **traced**: [`traced::traced_run`] repeats the runs through a copy of the
//!   runner's event loop with a timer around every call into a layer, and
//!   gives the per-layer metrics.
//!
//! Every run's report is folded into an FNV-1a digest ([`digest`]); the
//! correctness gate in [`measure`] requires identical digests across reps,
//! between the traced and untraced paths, between the sharded and unsharded
//! city runs, and between pooled and serial sweep runs.

pub mod alloc;
pub mod compare;
pub mod digest;
pub mod json;
pub mod measure;
pub mod stats;
pub mod traced;
pub mod workload;
