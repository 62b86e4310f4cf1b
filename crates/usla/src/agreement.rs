//! USLA entries and validated sets.

use crate::principal::Principal;
use crate::share::FairShare;
use gruber_types::GridError;
use std::fmt;

/// The resource dimensions the paper's allocations cover: "allocations are
/// made for processor time, permanent storage, or network bandwidth".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// Processor time.
    Cpu,
    /// Permanent storage.
    Storage,
    /// Network bandwidth.
    Network,
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResourceKind::Cpu => "cpu",
            ResourceKind::Storage => "storage",
            ResourceKind::Network => "network",
        })
    }
}

impl std::str::FromStr for ResourceKind {
    type Err = GridError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "cpu" => Ok(ResourceKind::Cpu),
            "storage" => Ok(ResourceKind::Storage),
            "network" => Ok(ResourceKind::Network),
            other => Err(GridError::UslaParse(format!("unknown resource {other:?}"))),
        }
    }
}

/// One USLA goal: `provider` grants `consumer` a `share` of `resource`.
///
/// "We extended the semantics by associating both a consumer and a provider
/// with each entry."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UslaEntry {
    /// The granting party.
    pub provider: Principal,
    /// The receiving party; must be an immediate child of the provider.
    pub consumer: Principal,
    /// Resource dimension.
    pub resource: ResourceKind,
    /// The fair-share rule.
    pub share: FairShare,
}

impl UslaEntry {
    /// Validates nesting (consumer immediately under provider) and the share.
    pub fn validate(&self) -> Result<(), GridError> {
        self.share.validate()?;
        if !self.provider.is_parent_of(&self.consumer) {
            return Err(GridError::UslaParse(format!(
                "consumer {} is not an immediate child of provider {}",
                self.consumer, self.provider
            )));
        }
        Ok(())
    }
}

/// A validated collection of USLA entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UslaSet {
    entries: Vec<UslaEntry>,
}

impl UslaSet {
    /// Empty set.
    pub fn new() -> Self {
        UslaSet::default()
    }

    /// Builds a set from entries, validating each and rejecting duplicate
    /// `(provider, consumer, resource)` keys.
    pub fn from_entries(entries: Vec<UslaEntry>) -> Result<Self, GridError> {
        let mut set = UslaSet::new();
        for e in entries {
            set.insert(e)?;
        }
        Ok(set)
    }

    /// Inserts one entry (validated; duplicates rejected).
    pub fn insert(&mut self, entry: UslaEntry) -> Result<(), GridError> {
        entry.validate()?;
        if self.lookup(entry.provider, entry.consumer, entry.resource).is_some() {
            return Err(GridError::UslaParse(format!(
                "duplicate USLA for {} -> {} ({})",
                entry.provider, entry.consumer, entry.resource
            )));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Finds the entry for a `(provider, consumer, resource)` key.
    pub(crate) fn lookup(
        &self,
        provider: Principal,
        consumer: Principal,
        resource: ResourceKind,
    ) -> Option<&UslaEntry> {
        self.entries.iter().find(|e| {
            e.provider == provider && e.consumer == consumer && e.resource == resource
        })
    }

    /// All entries granted by `provider` for `resource` (one hierarchy
    /// level's children).
    pub fn children_of(&self, provider: Principal, resource: ResourceKind) -> Vec<&UslaEntry> {
        self.entries
            .iter()
            .filter(|e| e.provider == provider && e.resource == resource)
            .collect()
    }

    /// All entries.
    pub fn entries(&self) -> &[UslaEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gruber_types::{GroupId, VoId};

    fn vo_entry(v: u32, pct: f64) -> UslaEntry {
        UslaEntry {
            provider: Principal::Grid,
            consumer: Principal::Vo(VoId(v)),
            resource: ResourceKind::Cpu,
            share: FairShare::target(pct),
        }
    }

    #[test]
    fn nesting_is_enforced() {
        let bad = UslaEntry {
            provider: Principal::Grid,
            consumer: Principal::Group(VoId(0), GroupId(0)), // skips VO level
            resource: ResourceKind::Cpu,
            share: FairShare::target(10.0),
        };
        assert!(bad.validate().is_err());
        assert!(vo_entry(0, 10.0).validate().is_ok());
    }

    #[test]
    fn duplicates_rejected() {
        let mut set = UslaSet::new();
        set.insert(vo_entry(0, 10.0)).unwrap();
        assert!(set.insert(vo_entry(0, 20.0)).is_err());
        assert_eq!(set.entries().len(), 1);
        assert_eq!(
            set.lookup(Principal::Grid, Principal::Vo(VoId(0)), ResourceKind::Cpu)
                .unwrap()
                .share
                .percent,
            10.0
        );
    }

    #[test]
    fn children_filters_by_provider_and_resource() {
        let mut set = UslaSet::new();
        set.insert(vo_entry(0, 10.0)).unwrap();
        set.insert(vo_entry(1, 30.0)).unwrap();
        set.insert(UslaEntry {
            provider: Principal::Vo(VoId(0)),
            consumer: Principal::Group(VoId(0), GroupId(0)),
            resource: ResourceKind::Cpu,
            share: FairShare::target(50.0),
        })
        .unwrap();
        assert_eq!(set.children_of(Principal::Grid, ResourceKind::Cpu).len(), 2);
        assert_eq!(
            set.children_of(Principal::Vo(VoId(0)), ResourceKind::Cpu).len(),
            1
        );
        assert_eq!(
            set.children_of(Principal::Grid, ResourceKind::Storage).len(),
            0
        );
    }

    #[test]
    fn resource_kind_roundtrip() {
        for r in [ResourceKind::Cpu, ResourceKind::Storage, ResourceKind::Network] {
            assert_eq!(r.to_string().parse::<ResourceKind>().unwrap(), r);
        }
        assert!("disk".parse::<ResourceKind>().is_err());
    }
}
