//! The web-service cost model.
//!
//! A decision point runs inside a service container (GT3's Java WS engine,
//! or the GT 3.9.4 pre-release of GT4). The container has a bounded worker
//! pool; each request costs authentication + SOAP (un)marshalling
//! proportional to payload size + the brokering work itself. Requests
//! beyond the pool queue FIFO. This produces the two signature behaviours
//! of the paper's figures: throughput that plateaus at `workers /
//! mean_service_time` and response time that grows with the backlog.
//!
//! ## Calibration
//!
//! The scraped paper text has its numerals stripped, so the absolute
//! constants below are calibrated to the prose and to the companion DiPerF
//! paper: a GT3 GRUBER decision point saturates at roughly **2 queries/s**
//! and the GT 3.9.4 prerelease at roughly **1.2 queries/s** ("plateaus just
//! above \[one\] query per second"); bare GT3 service-instance creation
//! (Figure 1) is several times cheaper than a full GRUBER query, which
//! involves "several round trips and the transport of significant state".

use desim::{DetRng, Dist};
use gruber_types::{DpId, SimDuration, SimTime};
use obs::{Recorder, TraceEvent};
use std::collections::VecDeque;

/// Cost profile of a service container.
#[derive(Debug, Clone)]
pub struct ServiceProfile {
    /// Human-readable name ("GT3", "GT4-prerelease", ...).
    pub name: &'static str,
    /// Parallel worker slots in the container.
    pub workers: usize,
    /// Per-request authentication cost (GSI handshake, seconds).
    pub(crate) auth: Dist,
    /// SOAP marshalling cost per KB of payload (seconds/KB).
    pub(crate) marshal_per_kb: f64,
    /// The brokering work itself (engine lookup + state update, seconds).
    pub(crate) processing: Dist,
    /// Container accept-queue bound: requests arriving when `backlog ==
    /// queue_limit` are refused outright (the client sees a timeout).
    pub queue_limit: usize,
}

impl ServiceProfile {
    /// GT3 decision-point profile: saturates near 2 queries/s.
    pub fn gt3() -> Self {
        ServiceProfile {
            name: "GT3",
            workers: 4,
            auth: Dist::lognormal_mean_cv(0.9, 0.4),
            marshal_per_kb: 0.012,
            processing: Dist::lognormal_mean_cv(0.7, 0.5),
            queue_limit: 100,
        }
    }

    /// GT 3.9.4 prerelease ("GT4") profile: the paper notes it is *slower*
    /// than GT3; saturates near 1.2 queries/s.
    pub fn gt4_prerelease() -> Self {
        ServiceProfile {
            name: "GT4-prerelease",
            workers: 4,
            auth: Dist::lognormal_mean_cv(1.6, 0.4),
            marshal_per_kb: 0.02,
            processing: Dist::lognormal_mean_cv(1.1, 0.5),
            queue_limit: 100,
        }
    }

    /// Bare GT3 service-instance creation (Figure 1): no brokering work,
    /// small payloads, saturates well above the GRUBER query rate.
    pub fn gt3_instance_creation() -> Self {
        ServiceProfile {
            name: "GT3-instance-creation",
            workers: 8,
            auth: Dist::lognormal_mean_cv(0.45, 0.3),
            marshal_per_kb: 0.01,
            processing: Dist::lognormal_mean_cv(0.15, 0.3),
            queue_limit: 200,
        }
    }

    /// Draws the in-service time for a request carrying `payload_kb` of
    /// state.
    pub(crate) fn service_time(&self, payload_kb: f64, rng: &mut DetRng) -> SimDuration {
        let secs =
            self.auth.sample(rng) + self.marshal_per_kb * payload_kb + self.processing.sample(rng);
        SimDuration::from_secs_f64(secs)
    }

    /// Analytic saturation throughput, requests/second
    /// (`workers / mean_service_time` at the given payload size).
    pub fn saturation_throughput(&self, payload_kb: f64) -> f64 {
        let mean = self.auth.mean() + self.marshal_per_kb * payload_kb + self.processing.mean();
        self.workers as f64 / mean
    }
}

/// Identifier the caller uses to correlate completions.
pub(crate) type RequestTag = u64;

/// A request admitted to the station and now in service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedRequest {
    /// Caller-supplied tag.
    pub tag: RequestTag,
    /// How long the request will occupy its worker.
    pub service_time: SimDuration,
}

/// What happened to an arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A worker was free; the request is in service.
    Started(StartedRequest),
    /// All workers busy; the request queued FIFO.
    Queued,
    /// The accept queue is full; the request was refused (the client will
    /// only notice via its timeout).
    Rejected,
}

/// A FIFO bounded-worker service station (passive state machine; the
/// simulation loop drives it and schedules the completion events).
#[derive(Debug)]
pub struct ServiceStation {
    profile: ServiceProfile,
    in_service: usize,
    backlog: VecDeque<(RequestTag, f64)>,
    /// Total requests ever admitted to service.
    started: u64,
    /// Total requests ever completed.
    completed: u64,
    /// High-water mark of the backlog.
    peak_backlog: usize,
    /// Requests refused because the accept queue was full.
    rejected: u64,
    /// Bumped on every crash; completions scheduled before a crash carry
    /// the old generation and must be discarded by the caller.
    generation: u64,
    /// Service-time multiplier (1.0 = nominal). Fault injection degrades a
    /// station by raising this; requests already in service keep the
    /// completion time they were issued.
    slowdown: f64,
    /// Trace sink ([`Recorder::OFF`] unless installed) and the decision
    /// point this station belongs to, for event attribution.
    tracer: Recorder,
    node: DpId,
}

impl ServiceStation {
    /// A station with the given cost profile.
    pub fn new(profile: ServiceProfile) -> Self {
        ServiceStation {
            profile,
            in_service: 0,
            backlog: VecDeque::new(),
            started: 0,
            completed: 0,
            peak_backlog: 0,
            rejected: 0,
            generation: 0,
            slowdown: 1.0,
            tracer: Recorder::OFF,
            node: DpId(0),
        }
    }

    /// Installs a trace recorder, attributing this station's events to
    /// decision point `node`.
    pub fn set_tracer(&mut self, tracer: Recorder, node: DpId) {
        self.tracer = tracer;
        self.node = node;
    }

    /// The station's profile.
    pub fn profile(&self) -> &ServiceProfile {
        &self.profile
    }

    /// Requests waiting for a worker.
    pub fn backlog_len(&self) -> usize {
        self.backlog.len()
    }

    /// Total load (in service + queued) — the saturation signal used by the
    /// dynamic-reconfiguration monitor.
    pub fn load(&self) -> usize {
        self.in_service + self.backlog.len()
    }

    /// Lifetime counters `(started, completed, peak_backlog)`.
    pub fn counters(&self) -> (u64, u64, usize) {
        (self.started, self.completed, self.peak_backlog)
    }

    /// Requests refused at the accept queue.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Crash generation (see [`ServiceStation::crash`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Degrades (factor > 1) or restores (factor = 1) the station: every
    /// request *admitted from now on* serves `factor`× slower. Requests
    /// already in service keep their issued completion time.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slowdown factor out of range"
        );
        self.slowdown = factor;
    }

    /// One service-time draw under the current slowdown. The multiplier is
    /// applied outside the draw so a degraded station consumes exactly the
    /// same RNG stream as a nominal one (determinism across fault plans).
    fn draw_service_time(&self, payload_kb: f64, rng: &mut DetRng) -> SimDuration {
        let t = self.profile.service_time(payload_kb, rng);
        if self.slowdown == 1.0 {
            t
        } else {
            SimDuration::from_secs_f64(t.as_secs_f64() * self.slowdown)
        }
    }

    /// The container crashes: every in-service and queued request is lost
    /// and the generation counter bumps so stale completion events can be
    /// recognized. Returns how many requests were dropped.
    pub fn crash(&mut self) -> usize {
        self.crash_at(SimTime::ZERO)
    }

    /// [`ServiceStation::crash`] with the crash timestamp, for tracing.
    pub fn crash_at(&mut self, now: SimTime) -> usize {
        let in_service = self.in_service;
        let queued = self.backlog.len();
        self.tracer.emit(now, || TraceEvent::SvcCrashDropped {
            dp: self.node,
            in_service: in_service as u32,
            queued: queued as u32,
        });
        self.in_service = 0;
        self.backlog.clear();
        self.generation += 1;
        in_service + queued
    }

    /// A new request arrives carrying `payload_kb` of state: it starts if a
    /// worker is free, queues if the accept queue has room, and is refused
    /// otherwise.
    pub fn arrive(&mut self, tag: RequestTag, payload_kb: f64, rng: &mut DetRng) -> Admission {
        self.arrive_at(SimTime::ZERO, tag, payload_kb, rng)
    }

    /// [`ServiceStation::arrive`] with the arrival timestamp, for tracing.
    pub fn arrive_at(
        &mut self,
        now: SimTime,
        tag: RequestTag,
        payload_kb: f64,
        rng: &mut DetRng,
    ) -> Admission {
        if self.in_service < self.profile.workers {
            self.in_service += 1;
            self.started += 1;
            self.tracer.emit(now, || TraceEvent::SvcStarted {
                dp: self.node,
                tag,
            });
            Admission::Started(StartedRequest {
                tag,
                service_time: self.draw_service_time(payload_kb, rng),
            })
        } else if self.backlog.len() < self.profile.queue_limit {
            self.backlog.push_back((tag, payload_kb));
            self.peak_backlog = self.peak_backlog.max(self.backlog.len());
            let depth = self.backlog.len() as u32;
            self.tracer.emit(now, || TraceEvent::SvcQueued {
                dp: self.node,
                tag,
                depth,
            });
            Admission::Queued
        } else {
            self.rejected += 1;
            self.tracer.emit(now, || TraceEvent::SvcRejected {
                dp: self.node,
                tag,
            });
            Admission::Rejected
        }
    }

    /// A request finished service; frees its worker and, if the backlog is
    /// non-empty, starts the next request (returned so the caller can
    /// schedule its completion).
    pub fn finish(&mut self, rng: &mut DetRng) -> Option<StartedRequest> {
        self.finish_at(SimTime::ZERO, rng)
    }

    /// [`ServiceStation::finish`] with the completion timestamp, for
    /// tracing. The station does not track which tag occupies which worker,
    /// so the `SvcCompleted` event carries the tag of the backlog request
    /// promoted into the freed worker (or `u64::MAX` when the backlog was
    /// empty); the protocol layer traces per-request responses itself.
    pub fn finish_at(&mut self, now: SimTime, rng: &mut DetRng) -> Option<StartedRequest> {
        assert!(self.in_service > 0, "finish() with no request in service");
        self.in_service -= 1;
        self.completed += 1;
        let promoted = self.backlog.pop_front();
        let depth = self.backlog.len() as u32;
        self.tracer.emit(now, || TraceEvent::SvcCompleted {
            dp: self.node,
            tag: promoted.map(|(t, _)| t).unwrap_or(u64::MAX),
            depth,
        });
        if let Some((tag, payload_kb)) = promoted {
            self.in_service += 1;
            self.started += 1;
            self.tracer.emit(now, || TraceEvent::SvcStarted {
                dp: self.node,
                tag,
            });
            Some(StartedRequest {
                tag,
                service_time: self.draw_service_time(payload_kb, rng),
            })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(1234, 0)
    }

    #[test]
    fn admits_up_to_worker_count_then_queues() {
        let mut s = ServiceStation::new(ServiceProfile::gt3());
        let mut r = rng();
        let w = s.profile().workers;
        for i in 0..w as u64 {
            assert!(matches!(s.arrive(i, 1.0, &mut r), Admission::Started(_)));
        }
        assert_eq!(s.arrive(99, 1.0, &mut r), Admission::Queued);
        assert_eq!(s.in_service, w);
        assert_eq!(s.backlog_len(), 1);
        assert_eq!(s.load(), w + 1);
    }

    #[test]
    fn full_accept_queue_rejects() {
        let mut profile = ServiceProfile::gt3();
        profile.queue_limit = 2;
        let mut s = ServiceStation::new(profile);
        let mut r = rng();
        for i in 0..4u64 {
            assert!(matches!(s.arrive(i, 1.0, &mut r), Admission::Started(_)));
        }
        assert_eq!(s.arrive(10, 1.0, &mut r), Admission::Queued);
        assert_eq!(s.arrive(11, 1.0, &mut r), Admission::Queued);
        assert_eq!(s.arrive(12, 1.0, &mut r), Admission::Rejected);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.backlog_len(), 2);
        // Draining one makes room again.
        s.finish(&mut r);
        assert_eq!(s.arrive(13, 1.0, &mut r), Admission::Queued);
    }

    #[test]
    fn finish_drains_backlog_fifo() {
        let mut s = ServiceStation::new(ServiceProfile::gt3());
        let mut r = rng();
        for i in 0..4u64 {
            s.arrive(i, 1.0, &mut r);
        }
        assert_eq!(s.arrive(100, 1.0, &mut r), Admission::Queued);
        assert_eq!(s.arrive(101, 1.0, &mut r), Admission::Queued);
        let next = s.finish(&mut r).expect("backlog had entries");
        assert_eq!(next.tag, 100);
        let next = s.finish(&mut r).expect("backlog had entries");
        assert_eq!(next.tag, 101);
        assert!(s.finish(&mut r).is_none());
        let (started, completed, peak) = s.counters();
        assert_eq!(started, 6);
        assert_eq!(completed, 3);
        assert_eq!(peak, 2);
    }

    #[test]
    #[should_panic(expected = "no request in service")]
    fn finish_on_idle_panics() {
        ServiceStation::new(ServiceProfile::gt3()).finish(&mut rng());
    }

    #[test]
    fn service_times_positive_and_payload_sensitive() {
        let p = ServiceProfile::gt3();
        let mut r = rng();
        let small: f64 = (0..200)
            .map(|_| p.service_time(1.0, &mut r).as_secs_f64())
            .sum::<f64>()
            / 200.0;
        let big: f64 = (0..200)
            .map(|_| p.service_time(200.0, &mut r).as_secs_f64())
            .sum::<f64>()
            / 200.0;
        assert!(small > 0.0);
        assert!(big > small + 1.0, "marshalling cost invisible: {small} vs {big}");
    }

    #[test]
    fn slowdown_scales_service_time_without_extra_draws() {
        let p = ServiceProfile::gt3();
        let mut a = ServiceStation::new(p.clone());
        let mut b = ServiceStation::new(p);
        b.set_slowdown(2.5);
        let mut ra = rng();
        let mut rb = rng();
        let Admission::Started(sa) = a.arrive(0, 5.0, &mut ra) else {
            panic!("worker free")
        };
        let Admission::Started(sb) = b.arrive(0, 5.0, &mut rb) else {
            panic!("worker free")
        };
        let ratio = sb.service_time.as_secs_f64() / sa.service_time.as_secs_f64();
        assert!((ratio - 2.5).abs() < 0.01, "ratio {ratio}");
        // The multiplier must not perturb the RNG stream: the next draw
        // from both stations' rngs agrees.
        assert_eq!(ra.next_u64(), rb.next_u64());
        b.set_slowdown(1.0);
        assert_eq!(b.slowdown, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slowdown_below_one_is_rejected() {
        ServiceStation::new(ServiceProfile::gt3()).set_slowdown(0.5);
    }

    #[test]
    fn calibration_gt3_saturates_near_two_qps() {
        // A GRUBER query's availability response for a 300-site grid is
        // roughly 20 KB (see codec tests).
        let t = ServiceProfile::gt3().saturation_throughput(20.0);
        assert!((1.5..3.0).contains(&t), "GT3 saturation {t} q/s");
    }

    #[test]
    fn calibration_gt4_prerelease_slower_than_gt3() {
        let gt3 = ServiceProfile::gt3().saturation_throughput(20.0);
        let gt4 = ServiceProfile::gt4_prerelease().saturation_throughput(20.0);
        assert!(gt4 < gt3, "prerelease must be slower: {gt4} vs {gt3}");
        assert!((0.8..1.8).contains(&gt4), "GT4-pre saturation {gt4} q/s");
    }

    #[test]
    fn calibration_instance_creation_much_faster() {
        let bare = ServiceProfile::gt3_instance_creation().saturation_throughput(1.0);
        let query = ServiceProfile::gt3().saturation_throughput(20.0);
        assert!(
            bare > 3.0 * query,
            "instance creation {bare} should dwarf query {query}"
        );
    }
}
