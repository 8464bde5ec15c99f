//! Seed derivation: stable hashing so every part of the universe is a
//! pure function of (universe seed, identity strings).

/// FNV-1a + avalanche hash of a byte string with a seed. Stable across
//  runs and platforms (unlike `DefaultHasher`).
pub fn stable_hash(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new(seed);
    h.write(bytes);
    h.finish()
}

/// [`stable_hash`] fed piece by piece: hashing the pieces of a key in
/// order gives the hash of their concatenation, without building it.
///
/// ```
/// use std::fmt::Write;
/// use wmtree_webgen::{stable_hash, StableHasher};
/// let mut h = StableHasher::new(7);
/// h.write(b"cond:");
/// write!(h, "{}", 12).unwrap();
/// assert_eq!(h.finish(), stable_hash(7, b"cond:12"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StableHasher(u64);

impl StableHasher {
    /// Start a hash under `seed`.
    pub fn new(seed: u64) -> StableHasher {
        StableHasher(0xcbf2_9ce4_8422_2325 ^ seed)
    }

    /// Feed the next piece of the key.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u64 {
        // splitmix64 finalizer for avalanche.
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Formatting into the hasher feeds the formatted text, so numbers and
/// other `Display` pieces join a key without an allocation.
impl std::fmt::Write for StableHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Hierarchical seed derivation: `SeedMixer::new(seed).with("site").with(domain).finish()`.
#[derive(Debug, Clone, Copy)]
pub struct SeedMixer(u64);

impl SeedMixer {
    /// Start from a root seed.
    pub fn new(seed: u64) -> Self {
        SeedMixer(seed)
    }

    /// Mix in a labelled component.
    pub fn with(self, label: &str) -> Self {
        SeedMixer(stable_hash(self.0, label.as_bytes()))
    }

    /// Mix in an integer component.
    pub fn with_u64(self, v: u64) -> Self {
        SeedMixer(stable_hash(self.0, &v.to_le_bytes()))
    }

    /// The derived seed.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Derive a bounded value in `[0, bound)` from a hash (for structural
/// choices that do not need a full RNG).
pub fn bounded(hash: u64, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    // Multiply-shift: unbiased enough for structural variety.
    ((hash as u128 * bound as u128) >> 64) as u64
}

/// Derive a probability check: true with probability `p`.
pub fn chance(hash: u64, p: f64) -> bool {
    (hash as f64 / u64::MAX as f64) < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stable_and_distinct() {
        assert_eq!(stable_hash(1, b"a"), stable_hash(1, b"a"));
        assert_ne!(stable_hash(1, b"a"), stable_hash(2, b"a"));
        assert_ne!(stable_hash(1, b"a"), stable_hash(1, b"b"));
    }

    proptest! {
        /// Hashing a key's pieces in order equals hashing the key.
        #[test]
        fn pieces_hash_as_their_concatenation(
            seed in any::<u64>(),
            pieces in prop::collection::vec("[a-z0-9:{}/]{0,12}", 0..6),
        ) {
            let mut h = StableHasher::new(seed);
            for p in &pieces {
                h.write(p.as_bytes());
            }
            prop_assert_eq!(h.finish(), stable_hash(seed, pieces.concat().as_bytes()));
        }
    }

    #[test]
    fn mixer_order_matters() {
        let a = SeedMixer::new(7).with("x").with("y").finish();
        let b = SeedMixer::new(7).with("y").with("x").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn mixer_with_u64() {
        let a = SeedMixer::new(7).with_u64(1).finish();
        let b = SeedMixer::new(7).with_u64(2).finish();
        assert_ne!(a, b);
    }

    #[test]
    fn bounded_in_range() {
        for i in 0..1000u64 {
            let v = bounded(stable_hash(3, &i.to_le_bytes()), 10);
            assert!(v < 10);
        }
    }

    #[test]
    fn bounded_covers_range() {
        let seen: std::collections::BTreeSet<u64> = (0..1000u64)
            .map(|i| bounded(stable_hash(3, &i.to_le_bytes()), 10))
            .collect();
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn chance_roughly_calibrated() {
        let hits = (0..10_000u64)
            .filter(|&i| chance(stable_hash(5, &i.to_le_bytes()), 0.3))
            .count();
        assert!((2700..3300).contains(&hits), "got {hits}");
    }
}
