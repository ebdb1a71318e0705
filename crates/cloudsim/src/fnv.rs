//! 64-bit FNV-1a: the one stable hash behind every deterministic decision
//! and on-disk name that must not move between builds or toolchains (fault
//! rolls, retry jitter, the SKU catalog revision, cache-record checksums,
//! daemon journal names). `std`'s hashers make no such promise.

/// An FNV-1a-64 hasher over byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// The FNV-1a-64 offset basis.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV-1a-64 prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Folds in `bytes`.
    #[inline]
    #[must_use]
    pub fn write(self, bytes: &[u8]) -> Self {
        Fnv64(bytes.iter().fold(self.0, |h, &b| Self::step(h, b)))
    }

    /// Folds in `bytes` followed by a `0x1f` separator, so consecutive
    /// fields cannot run into each other (`"ab","c"` ≠ `"a","bc"`).
    #[inline]
    #[must_use]
    pub fn field(self, bytes: &[u8]) -> Self {
        Fnv64(Self::step(self.write(bytes).0, 0x1f))
    }

    /// The hash so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }

    /// One FNV-1a round: xor the byte in, multiply by the prime.
    #[inline]
    pub fn step(h: u64, b: u8) -> u64 {
        (h ^ u64::from(b)).wrapping_mul(Self::PRIME)
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_64_vectors() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv64::new().write(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv64::new().write(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn fields_are_separated() {
        let split = |a: &[u8], b: &[u8]| Fnv64::new().field(a).field(b).finish();
        assert_ne!(split(b"ab", b"c"), split(b"a", b"bc"));
        assert_eq!(
            Fnv64::new().field(b"ab").finish(),
            Fnv64::new().write(b"ab\x1f").finish()
        );
    }
}
