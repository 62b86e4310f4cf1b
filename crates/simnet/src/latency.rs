//! WAN latency models.
//!
//! PlanetLab nodes are spread worldwide; one-way latencies between the
//! paper's clients and decision points range from a few milliseconds
//! (same-site) to a few hundred (intercontinental). [`WanTopology`] gives
//! every directed node pair a *deterministic base latency* (derived by
//! hashing the pair, so topologies are reproducible without storing an
//! O(n²) matrix) plus per-message jitter.

use desim::DetRng;
use gruber_types::SimDuration;

/// A node in the network (client hosts and decision points share one
/// namespace here; crates map their own ids onto it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetNode(pub u32);

/// The WAN: per-pair base latency plus jitter.
#[derive(Debug, Clone)]
pub struct WanTopology {
    seed: u64,
    /// Minimum base one-way latency.
    base_lo_ms: u64,
    /// Maximum base one-way latency.
    base_hi_ms: u64,
    /// Jitter: each message adds `U[0, jitter_ms]`.
    jitter_ms: u64,
    /// Link bandwidth in Mb/s (payload serialization delay for large
    /// messages; PlanetLab nodes were "connected via 10 Mb/s network
    /// links").
    bandwidth_mbps: f64,
}

impl WanTopology {
    /// A PlanetLab-like WAN: base one-way latencies 20–150 ms, jitter up to
    /// 20 ms per message.
    pub fn planetlab(seed: u64) -> Self {
        WanTopology {
            seed,
            base_lo_ms: 20,
            base_hi_ms: 150,
            jitter_ms: 20,
            bandwidth_mbps: 10.0,
        }
    }

    /// A LAN: sub-millisecond paths (the paper's conclusion expects
    /// "significantly better" performance in a LAN; used by the ablation
    /// bench).
    pub fn lan(seed: u64) -> Self {
        WanTopology {
            seed,
            base_lo_ms: 0,
            base_hi_ms: 1,
            jitter_ms: 1,
            bandwidth_mbps: 1000.0,
        }
    }

    /// One message's total transit time: propagation latency plus the
    /// serialization delay of `payload_bytes` over the link bandwidth.
    /// Use this for the large legs (availability responses, sync floods);
    /// [`WanTopology::sample`] alone suffices for small control messages.
    pub fn transfer_time(
        &self,
        from: NetNode,
        to: NetNode,
        payload_bytes: u64,
        rng: &mut DetRng,
    ) -> SimDuration {
        let serialization =
            SimDuration::from_secs_f64(payload_bytes as f64 * 8.0 / (self.bandwidth_mbps * 1e6));
        self.sample(from, to, rng) + serialization
    }

    /// The deterministic base one-way latency of a directed pair
    /// (symmetric: `(a,b)` and `(b,a)` agree).
    pub(crate) fn base_latency(&self, a: NetNode, b: NetNode) -> SimDuration {
        if a == b {
            return SimDuration::ZERO;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        // One draw from a per-pair stream: stable, storage-free.
        let mut rng = DetRng::new(self.seed, (u64::from(lo.0) << 32) | u64::from(hi.0));
        let span = self.base_hi_ms - self.base_lo_ms;
        SimDuration::from_millis(self.base_lo_ms + rng.next_u64() % (span + 1))
    }

    /// One message's latency: base plus jitter.
    pub fn sample(&self, from: NetNode, to: NetNode, rng: &mut DetRng) -> SimDuration {
        let jitter = SimDuration::from_millis(rng.next_u64() % (self.jitter_ms + 1));
        self.base_latency(from, to) + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn base_latency_is_symmetric_and_stable() {
        let t = WanTopology::planetlab(42);
        let a = NetNode(3);
        let b = NetNode(17);
        assert_eq!(t.base_latency(a, b), t.base_latency(b, a));
        assert_eq!(t.base_latency(a, b), t.base_latency(a, b));
    }

    #[test]
    fn self_latency_is_zero() {
        let t = WanTopology::planetlab(42);
        assert_eq!(t.base_latency(NetNode(5), NetNode(5)), SimDuration::ZERO);
    }

    #[test]
    fn different_seeds_give_different_topologies() {
        let t1 = WanTopology::planetlab(1);
        let t2 = WanTopology::planetlab(2);
        let diff = (0..50u32)
            .filter(|&i| {
                t1.base_latency(NetNode(0), NetNode(i + 1))
                    != t2.base_latency(NetNode(0), NetNode(i + 1))
            })
            .count();
        assert!(diff > 25, "only {diff} links differ");
    }

    #[test]
    fn transfer_time_adds_serialization_delay() {
        let t = WanTopology::planetlab(3); // 10 Mb/s links
        let mut rng = DetRng::new(0, 0);
        // 1.25 MB at 10 Mb/s = 1 s of serialization, plus at most 150 ms
        // of base latency and 20 ms of jitter.
        let d = t.transfer_time(NetNode(0), NetNode(1), 1_250_000, &mut rng);
        assert!((1_000..=1_170).contains(&d.as_millis()), "{d:?}");
        // A tiny payload is latency-dominated.
        let d = t.transfer_time(NetNode(0), NetNode(1), 100, &mut rng);
        assert!(d.as_millis() <= 170, "{d:?}");
    }

    #[test]
    fn lan_is_fast() {
        let t = WanTopology::lan(7);
        for i in 1..20 {
            assert!(t.base_latency(NetNode(0), NetNode(i)).as_millis() <= 1);
        }
    }

    proptest! {
        #[test]
        fn base_latency_in_configured_range(
            seed in 0u64..1000, a in 0u32..500, b in 0u32..500,
        ) {
            prop_assume!(a != b);
            let t = WanTopology::planetlab(seed);
            let l = t.base_latency(NetNode(a), NetNode(b)).as_millis();
            prop_assert!((20..=150).contains(&l), "latency {l}");
        }

        #[test]
        fn sampled_latency_at_least_base(seed in 0u64..200, a in 0u32..50, b in 0u32..50) {
            let t = WanTopology::planetlab(seed);
            let mut rng = DetRng::new(seed, 99);
            let base = t.base_latency(NetNode(a), NetNode(b));
            let s = t.sample(NetNode(a), NetNode(b), &mut rng);
            prop_assert!(s >= base);
            prop_assert!(s.as_millis() <= base.as_millis() + 20);
        }
    }
}
