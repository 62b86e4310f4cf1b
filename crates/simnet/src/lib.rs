//! Simulated WAN and web-service substrate.
//!
//! The paper deploys DI-GRUBER decision points as Globus Toolkit (GT3/GT4)
//! web services on PlanetLab and observes that "the factors limiting
//! performance are primarily authentication and SOAP processing", and that
//! "in a WAN environment with message latencies in the 100s of
//! milliseconds, a single query can easily take multiple seconds to serve".
//! This crate models exactly those two effects:
//!
//! * `latency` — per-link WAN latency distributions (each directed pair of
//!   nodes gets a deterministic base latency plus jitter);
//! * `service` — a bounded-thread-pool web-service station whose
//!   per-request cost is authentication + per-KB marshalling (SOAP) + the
//!   brokering work itself, with two calibrated profiles:
//!   [`service::ServiceProfile::gt3`] and
//!   [`service::ServiceProfile::gt4_prerelease`] (the paper measured the
//!   GT 3.9.4 prerelease, which is *slower* than GT3; final GT4 is faster);
//! * [`codec`] — the wire encoding of the state-exchange payloads (used for
//!   realistic payload sizing in simulation and as the actual codec in
//!   `digruber::live`).

//! # Example
//!
//! ```
//! use desim::DetRng;
//! use simnet::{Admission, ServiceProfile, ServiceStation};
//!
//! let mut station = ServiceStation::new(ServiceProfile::gt3());
//! let mut rng = DetRng::new(1, 0);
//! // Four workers: the first four requests start, the fifth queues.
//! for tag in 0..4 {
//!     assert!(matches!(station.arrive(tag, 20.0, &mut rng), Admission::Started(_)));
//! }
//! assert_eq!(station.arrive(4, 20.0, &mut rng), Admission::Queued);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod latency;
mod retry;
mod service;

pub use latency::{NetNode, WanTopology};
pub use retry::{MessageClass, RetryConfig, RetryPolicy};
pub use service::{Admission, ServiceProfile, ServiceStation};
