//! Holds `benches/kernel_microbench.rs`, the Criterion microbenchmarks of the
//! simulation kernel. The paper's figures and the ablations are rows of the
//! experiment table in `vanet_scenario::figures`.
