//! FNV-1a (64-bit): the workspace's one seed-derivation and fingerprint
//! hash. Every per-host seed and every pinned golden fingerprint is a
//! stream of bytes through this loop, so it lives once, here, at the
//! bottom of the dependency graph.

/// An incremental FNV-1a hash over bytes and little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty hash (the FNV offset basis).
    pub const fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in a byte string.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Mixes in one 64-bit word, little-endian (floats go in by their
    /// bits: `word(x.to_bits())`).
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash of everything mixed in so far.
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// The seed of a named host (or link, or site) under a base seed: the
/// name's hash XOR the base, so each name walks its own stream and
/// adding or reordering names perturbs no other.
pub fn host_seed(base: u64, name: &str) -> u64 {
    fnv1a(name.as_bytes()) ^ base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_mixing_equals_one_pass() {
        let mut h = Fnv1a::new();
        h.bytes(b"foo");
        h.bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut w = Fnv1a::new();
        w.word(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
        assert_eq!(host_seed(0, "thing1"), fnv1a(b"thing1"));
        assert_eq!(host_seed(7, "thing1"), fnv1a(b"thing1") ^ 7);
    }
}
