//! The repository benchmark: the paper's synthesis pipeline and analyst traffic, end to
//! end and per layer. See `README.md` for the workloads and metrics.

pub mod analyst;
pub mod report;
pub mod stats;
pub mod synth;

/// The workloads `BENCHMARK.json` lists, in its order. The runner also runs
/// `synth-seq`, the same pipeline on the sequential backend, for comparing by hand.
pub const WORKLOADS: [&str; 2] = ["synth-shard2", "analyst-mix"];

/// A failed correctness check or operation: the run ends with this error and prints no
/// result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fail(pub String);

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The `i`-th input seed derived from the run's `--seed` (SplitMix64 finaliser).
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    bench::memory::peak_resident_bytes().map_or(f64::NAN, |b| b as f64 / 1e6)
}

/// Names of set `WPINQ_*` environment variables. Each switches a code path, so a run
/// with any of them set would not measure the configuration the benchmark pins.
pub fn wpinq_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WPINQ_"))
        .collect();
    names.sort();
    names
}
