//! The tree's two hashes: 64-bit FNV-1a, the one behind every pin (a
//! run's model and engine halves, its trace JSONL and a node's flood
//! hash), and SplitMix64, which seeds desim's random streams and places
//! the elastic pool's ring points.

use std::fmt;
use std::hash::Hasher;

/// A streaming 64-bit FNV-1a hash.
///
/// It takes bytes as a [`Hasher`] and text as a [`fmt::Write`], so a
/// value's `Debug` rendering is hashed while it is formatted, with no
/// `String` of it built. [`Default`] starts from the FNV offset basis;
/// [`Fnv1a::resume`] continues from an earlier [`Hasher::finish`].
///
/// ```
/// use gruber_types::Fnv1a;
/// use std::fmt::Write;
/// use std::hash::Hasher;
///
/// let mut h = Fnv1a::default();
/// write!(h, "{:?}", (1, "a")).unwrap();
/// let mut bytes = Fnv1a::default();
/// bytes.write(b"(1, \"a\")");
/// assert_eq!(h.finish(), bytes.finish());
/// assert_eq!(Fnv1a::default().finish(), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Continues the hash whose [`Hasher::finish`] was `state`.
    pub const fn resume(state: u64) -> Self {
        Fnv1a(state)
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// SplitMix64's increment, the odd integer nearest 2⁶⁴ / φ: the `k`th
/// output (from 0) of the SplitMix64 stream seeded `s` is
/// `splitmix64(s + k * SPLITMIX_GAMMA)`.
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 (Steele, Lea and Flood 2014) as a pure function: the first
/// output of the stream seeded `x`. A bijection, and bit-stable
/// everywhere.
///
/// ```
/// use gruber_types::{splitmix64, SPLITMIX_GAMMA};
///
/// assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
/// assert_eq!(splitmix64(SPLITMIX_GAMMA), 0x6e78_9e6a_a1b9_65f4);
/// ```
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
