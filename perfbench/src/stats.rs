//! Small measurement helpers: quantiles, resident memory, directory
//! sizes, a seeded generator and a content digest.

use std::path::Path;

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `None` when
/// empty. With fewer than `1 / (1 - q)` samples the p`q` is the maximum,
/// which is what the nearest-rank rule gives.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median (nearest rank), 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in bytes of the regular files under `dir`, skipping the
/// top-level entry named `skip` (if any).
pub fn dir_bytes(dir: &Path, skip: Option<&str>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        if skip.is_some_and(|s| entry.file_name() == s) {
            continue;
        }
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => total += dir_bytes(&path, None),
            Ok(t) if t.is_file() => total += entry.metadata().map_or(0, |m| m.len()),
            _ => {}
        }
    }
    total
}

/// Bytes to MiB.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator, so the inputs a
/// seed produces do not depend on the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`, decorrelated by `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The seed the benchmark derives from its `--seed` for stream `stream`
/// (0: the fresh/archive experiment seed; 1..: the serve jobs' universe
/// seeds).
pub fn derived_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed, stream + 1).next_u64()
}

/// FNV-1a 64 digest of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.99), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn seeded_streams_repeat_and_differ() {
        assert_eq!(derived_seed(7, 0), derived_seed(7, 0));
        assert_ne!(derived_seed(7, 0), derived_seed(7, 1));
        assert_ne!(derived_seed(7, 0), derived_seed(8, 0));
    }
}
