//! Usage service level agreements (USLAs).
//!
//! The paper's USLA representation is "based on Maui semantics and
//! WS-Agreement syntax": each entry grants a *consumer* a fair-share of a
//! *provider*'s resource, expressed as a percentage with Maui's three
//! flavours — a target (`25`), an upper limit (`25+`) or a lower limit
//! (`25-`) — extended recursively over VOs, groups and users, and expressed
//! as WS-Agreement goals.
//!
//! The crate provides:
//!
//! * [`share::FairShare`] — Maui-style percentage rules;
//! * [`principal::Principal`] — the recursive provider/consumer hierarchy
//!   (grid → VO → group → user);
//! * `agreement` — validated USLA entries and sets;
//! * `text` — a compact one-line-per-goal text format standing in for the
//!   paper's WS-Agreement XML subset ([`parse()`] and [`print()`] round-trip);
//! * `eval` — the entitlement engine: turns a USLA set plus a resource
//!   pool into concrete per-consumer entitlements, applying targets, caps
//!   and floors with proportional redistribution, and answers the admission
//!   question GRUBER asks per job;
//! * `store` — a versioned USLA store: publication, and the epoch deltas
//!   decision points disseminate to each other.

//! # Example
//!
//! ```
//! use usla::{EntitlementEngine, Principal, ResourceKind};
//! use gruber_types::VoId;
//!
//! let set = usla::parse(
//!     "usla cpu grid -> vo:0 = 40\n\
//!      usla cpu grid -> vo:1 = 60+\n",
//! )?;
//! let engine = EntitlementEngine::new(&set, ResourceKind::Cpu, 1000.0);
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
mod text;

pub use agreement::{ResourceKind, UslaEntry, UslaSet};
pub use eval::{AdmissionVerdict, EntitlementEngine};
pub use principal::Principal;
pub use share::{FairShare, ShareKind};
pub use store::{UslaStore, VersionedEntry};
pub use text::{parse, print};
