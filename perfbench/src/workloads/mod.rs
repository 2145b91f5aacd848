//! The four workloads. Each stresses layers the others leave idle, so an
//! optimisation of one layer has a workload that exercises it and one on
//! which the prediction is no change (see `README.md`).

pub mod analog_train;
pub mod codesign_search;
pub mod fleet_flash;
pub mod serve_mix;

use crate::host::Host;
use crate::metrics::Outcome;

/// What a workload run is given.
pub struct Ctx<'a> {
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Wall seconds to measure.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    pub host: &'a Host,
}

type Run = fn(&Ctx) -> Outcome;

const WORKLOADS: [(&str, Run); 4] = [
    ("analog_train", analog_train::run),
    ("serve_mix", serve_mix::run),
    ("fleet_flash", fleet_flash::run),
    ("codesign_search", codesign_search::run),
];

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [WORKLOADS[0].0, WORKLOADS[1].0, WORKLOADS[2].0, WORKLOADS[3].0];

pub fn find(name: &str) -> Option<Run> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, r)| *r)
}

/// Splits `seed` into independent sub-seeds (splitmix64), so each input
/// of a workload draws from its own stream.
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
