//! Job generation.
//!
//! [`JobFactory`] hands out jobs with globally unique ids. Each submission
//! host (client) is statically mapped onto a VO (round-robin, so the
//! composite workload overlays all VOs evenly, as in the paper); the group
//! within the VO is drawn per job from the client's own random stream, and
//! the user id identifies the client within its VO.

use crate::spec::WorkloadSpec;
use desim::DetRng;
use gruber_types::{ClientId, GroupId, JobId, JobSpec, SimTime, UserId, VoId};

/// Deterministic job allocator for one experiment.
#[derive(Debug)]
pub struct JobFactory {
    spec: WorkloadSpec,
    next_id: u32,
    /// One random stream per client, derived from the seed.
    client_rngs: Vec<DetRng>,
}

impl JobFactory {
    /// Builds a factory for `spec`, deriving all client streams from
    /// `seed`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.validate().expect("invalid workload spec");
        let client_rngs = (0..spec.n_clients)
            .map(|c| DetRng::new(seed, 0x10B5 ^ (u64::from(c) << 8)))
            .collect();
        JobFactory {
            spec,
            next_id: 0,
            client_rngs,
        }
    }

    /// The VO a client's jobs belong to (static round-robin assignment).
    pub(crate) fn vo_of_client(&self, client: ClientId) -> VoId {
        VoId(client.0 % self.spec.n_vos)
    }

    /// Creates the next job for `client`, submitted at `now`.
    pub fn make_job(&mut self, client: ClientId, now: SimTime) -> JobSpec {
        assert!(
            client.index() < self.client_rngs.len(),
            "unknown client {client}"
        );
        let vo = self.vo_of_client(client);
        let rng = &mut self.client_rngs[client.index()];
        let group = GroupId(rng.index(self.spec.groups_per_vo as usize) as u32);
        let runtime = self.spec.job_runtime.sample_secs(rng);
        let id = JobId(self.next_id);
        self.next_id += 1;
        JobSpec {
            id,
            vo,
            group,
            user: UserId(client.0 / self.spec.n_vos),
            client,
            // The paper's jobs each take one CPU.
            cpus: 1,
            storage_mb: 0,
            runtime,
            submitted_at: now,
        }
    }

    /// Samples `client`'s think time before its next query.
    pub fn think_time(&mut self, client: ClientId) -> gruber_types::SimDuration {
        let rng = &mut self.client_rngs[client.index()];
        self.spec.think_time.sample_secs(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn factory() -> JobFactory {
        JobFactory::new(WorkloadSpec::paper_default(), 42)
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let mut f = factory();
        let mut seen = HashSet::new();
        for i in 0..500u32 {
            let j = f.make_job(ClientId(i % 120), SimTime::ZERO);
            assert!(seen.insert(j.id), "duplicate id {:?}", j.id);
            assert_eq!(j.id, JobId(i), "ids must be handed out densely");
        }
    }

    #[test]
    fn vo_assignment_is_static_round_robin() {
        let f = factory();
        assert_eq!(f.vo_of_client(ClientId(0)), VoId(0));
        assert_eq!(f.vo_of_client(ClientId(9)), VoId(9));
        assert_eq!(f.vo_of_client(ClientId(10)), VoId(0));
        assert_eq!(f.vo_of_client(ClientId(119)), VoId(9));
    }

    #[test]
    fn all_vos_and_groups_get_work() {
        let mut f = factory();
        let mut vos = HashSet::new();
        let mut groups = HashSet::new();
        for i in 0..1000u32 {
            let j = f.make_job(ClientId(i % 120), SimTime::ZERO);
            vos.insert(j.vo);
            groups.insert((j.vo, j.group));
        }
        assert_eq!(vos.len(), 10);
        assert!(groups.len() > 80, "only {} (vo,group) pairs hit", groups.len());
    }

    #[test]
    fn deterministic_across_factories() {
        let mut a = factory();
        let mut b = factory();
        for i in 0..50u32 {
            let c = ClientId(i % 120);
            assert_eq!(a.make_job(c, SimTime::ZERO), b.make_job(c, SimTime::ZERO));
            assert_eq!(a.think_time(c), b.think_time(c));
        }
    }

    #[test]
    fn runtimes_follow_spec() {
        let mut f = factory();
        let mean: f64 = (0..2000)
            .map(|i| {
                f.make_job(ClientId(i % 120), SimTime::ZERO)
                    .runtime
                    .as_secs_f64()
            })
            .sum::<f64>()
            / 2000.0;
        assert!((1800.0..3200.0).contains(&mean), "mean runtime {mean}");
    }

    #[test]
    #[should_panic(expected = "unknown client")]
    fn unknown_client_panics() {
        factory().make_job(ClientId(10_000), SimTime::ZERO);
    }
}
