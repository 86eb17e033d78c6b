//! Crate-internal hashers for hot-path maps.
//!
//! Outputs never depend on map iteration order anywhere these are used
//! (callers sort or key-address their reads), so swapping SipHash for a
//! cheap mixer is a pure wall-clock win.

/// Pass-through hasher for keys that are already uniform 64-bit hashes
/// (Zobrist fingerprints): hashing them again with SipHash would only
/// burn cycles on the reward-cache hot path.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FpHasher(u64);

impl std::hash::Hasher for FpHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("FpHasher only accepts u64 keys");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

pub(crate) type FpBuildHasher = std::hash::BuildHasherDefault<FpHasher>;

/// Cheap multiply-xor hasher (FxHash-style) for small `Copy` keys on
/// the sampling hot path; only membership semantics matter.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FxHasher(u64);

impl std::hash::Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }
}

pub(crate) type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;
