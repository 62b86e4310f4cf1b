//! Deterministic random streams.
//!
//! Every stochastic component (each workload client, each latency link, each
//! site's failure process) gets its own [`DetRng`] derived from
//! `(experiment seed, component stream id)` via SplitMix64. Draws in one
//! component therefore never shift another component's sequence — a
//! prerequisite for clean ablations ("change only the sync interval, keep
//! the workload identical").
//!
//! The generator is xoshiro256++, held here rather than taken from a
//! crate: the streams are part of the determinism contract (every pinned
//! fingerprint rests on them), so their definition stays in this file;
//! only the seed mixer, [`gruber_types::splitmix64`], is shared.

use gruber_types::{splitmix64, SPLITMIX_GAMMA};

/// A deterministic per-component random stream: xoshiro256++ state.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Derives a stream from an experiment seed and a component stream id.
    pub fn new(seed: u64, stream: u64) -> Self {
        let s = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        // The first four outputs of the SplitMix64 stream seeded `s`.
        // SplitMix64 is a bijection and the four counter values are
        // distinct, so at most one word is zero: never the all-zero state,
        // xoshiro's one fixed point.
        let word = |k: u64| splitmix64(s.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(k)));
        DetRng {
            s: std::array::from_fn(|k| word(k as u64)),
        }
    }

    /// Uniform float in `[0, 1)`: the top 53 bits of one draw.
    pub(crate) fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`, unbiased by Lemire's widening-multiply
    /// rejection. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() over empty range");
        let span = n as u64;
        loop {
            let m = u128::from(self.next_u64()) * u128::from(span);
            if m as u64 >= span.wrapping_neg() % span {
                return (m >> 64) as usize;
            }
        }
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Raw 64-bit draw (for deriving sub-streams): one xoshiro256++ step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7, 3);
        let mut b = DetRng::new(7, 3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = DetRng::new(7, 3);
        let mut b = DetRng::new(7, 4);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = DetRng::new(1, 0);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn index_in_bounds() {
        let mut r = DetRng::new(2, 0);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn index_zero_panics() {
        DetRng::new(0, 0).index(0);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(5, 5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // And it actually moved something.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(9, 1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0 + 1e-9));
    }

    /// Every pinned fingerprint rests on these streams: the first draws of
    /// one stream, recorded from the generator all studies were pinned on.
    #[test]
    fn known_answer_stream() {
        let mut r = DetRng::new(7, 3);
        let raw: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        assert_eq!(
            raw,
            [
                0x4eae_47c4_2a2b_848d,
                0xa6eb_e6f2_6767_36cf,
                0x9a2a_9c8b_8aed_c9b2,
                0x9771_4864_c666_e150,
                0x61c2_6d04_0d99_85dc,
                0x9e17_3b73_5660_11a2,
                0x1613_26d8_d5e9_8bdf,
                0x5d80_715a_f053_d2fc,
            ]
        );
        let unit: Vec<u64> = (0..8).map(|_| r.uniform().to_bits()).collect();
        assert_eq!(
            unit,
            [
                0x3fd7_150f_2df4_e70c,
                0x3fb9_273d_9dd7_9988,
                0x3feb_b42e_782f_1c41,
                0x3fb5_11e4_4d02_ec88,
                0x3fef_d614_eb63_c84f,
                0x3fd7_e279_dd83_0958,
                0x3fe9_38e5_6768_efb0,
                0x3fc6_42eb_fcb8_e490,
            ]
        );
        let picks: Vec<usize> = (0..8).map(|_| r.index(300)).collect();
        assert_eq!(picks, [278, 241, 45, 105, 225, 84, 76, 146]);
    }
}
