//! Usage service level agreements (USLAs).
//!
//! The paper's USLA representation is "based on Maui semantics and
//! WS-Agreement syntax": each entry grants a *consumer* a fair-share of a
//! *provider*'s resource, expressed as a percentage with Maui's three
//! flavours — a target (`25`), an upper limit (`25+`) or a lower limit
//! (`25-`) — extended recursively over VOs and groups. Every set is built
//! in code (`workload::uslas`); no agreement text is read or written, and
//! the one resource is CPU.
//!
//! The crate provides:
//!
//! * [`share::FairShare`] — Maui-style percentage rules;
//! * [`principal::Principal`] — the recursive provider/consumer hierarchy
//!   (grid → VO → group);
//! * `agreement` — validated USLA entries and sets;
//! * `eval` — the entitlement engine: turns a USLA set plus a resource
//!   pool into concrete per-consumer entitlements, applying targets, caps
//!   and floors with proportional redistribution, and answers the admission
//!   question GRUBER asks per job;
//! * `store` — a versioned USLA store: publication, and the epoch deltas
//!   decision points disseminate to each other.

//! # Example
//!
//! ```
//! use usla::{EntitlementEngine, FairShare, Principal, UslaEntry, UslaSet};
//! use gruber_types::VoId;
//!
//! let vo = |v, share| UslaEntry {
//!     provider: Principal::Grid,
//!     consumer: Principal::Vo(VoId(v)),
//!     share,
//! };
//! let set = UslaSet::from_entries(vec![
//!     vo(0, FairShare::target(40.0)),
//!     vo(1, FairShare::upper(60.0)),
//! ])?;
//! let engine = EntitlementEngine::new(&set, 1000.0);
//! assert_eq!(engine.entitlement(Principal::Vo(VoId(0))), 400.0);
//! // vo:1 is capped ('+'): it may never exceed 600 CPUs.
//! assert_eq!(engine.cap(Principal::Vo(VoId(1))), 600.0);
//! # Ok::<(), gruber_types::GridError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agreement;
mod eval;
mod principal;
mod share;
mod store;

pub use agreement::{UslaEntry, UslaSet};
pub use eval::{AdmissionVerdict, EntitlementEngine};
pub use principal::Principal;
pub use share::{FairShare, ShareKind};
pub use store::{UslaStore, VersionedEntry};
