//! USLA entries and validated sets.

use crate::principal::Principal;
use crate::share::FairShare;
use gruber_types::GridError;

/// One USLA goal: `provider` grants `consumer` a `share` of its CPUs.
///
/// "We extended the semantics by associating both a consumer and a provider
/// with each entry."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UslaEntry {
    /// The granting party.
    pub provider: Principal,
    /// The receiving party; must be an immediate child of the provider.
    pub consumer: Principal,
    /// The fair-share rule.
    pub share: FairShare,
}

impl UslaEntry {
    /// Validates nesting (consumer immediately under provider) and the share.
    pub fn validate(&self) -> Result<(), GridError> {
        self.share.validate()?;
        if !self.provider.is_parent_of(&self.consumer) {
            return Err(GridError::InvalidConfig(format!(
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
    /// `(provider, consumer)` keys.
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
        if self.lookup(entry.provider, entry.consumer).is_some() {
            return Err(GridError::InvalidConfig(format!(
                "duplicate USLA for {} -> {}",
                entry.provider, entry.consumer
            )));
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Finds the entry for a `(provider, consumer)` key.
    pub(crate) fn lookup(&self, provider: Principal, consumer: Principal) -> Option<&UslaEntry> {
        self.entries
            .iter()
            .find(|e| e.provider == provider && e.consumer == consumer)
    }

    /// All entries granted by `provider` (one hierarchy level's children).
    pub fn children_of(&self, provider: Principal) -> Vec<&UslaEntry> {
        self.entries
            .iter()
            .filter(|e| e.provider == provider)
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
            share: FairShare::target(pct),
        }
    }

    #[test]
    fn nesting_is_enforced() {
        let bad = UslaEntry {
            provider: Principal::Grid,
            consumer: Principal::Group(VoId(0), GroupId(0)), // skips VO level
            share: FairShare::target(10.0),
        };
        assert!(bad.validate().is_err());
        assert!(vo_entry(0, 10.0).validate().is_ok());
    }

    #[test]
    fn duplicates_rejected() {
        let mut set = UslaSet::new();
        set.insert(vo_entry(0, 10.0)).unwrap();
        assert!(matches!(
            set.insert(vo_entry(0, 20.0)),
            Err(GridError::InvalidConfig(_))
        ));
        assert_eq!(set.entries().len(), 1);
        assert_eq!(
            set.lookup(Principal::Grid, Principal::Vo(VoId(0)))
                .unwrap()
                .share
                .percent,
            10.0
        );
    }

    #[test]
    fn children_filters_by_provider() {
        let mut set = UslaSet::new();
        set.insert(vo_entry(0, 10.0)).unwrap();
        set.insert(vo_entry(1, 30.0)).unwrap();
        set.insert(UslaEntry {
            provider: Principal::Vo(VoId(0)),
            consumer: Principal::Group(VoId(0), GroupId(0)),
            share: FairShare::target(50.0),
        })
        .unwrap();
        assert_eq!(set.children_of(Principal::Grid).len(), 2);
        assert_eq!(set.children_of(Principal::Vo(VoId(0))).len(), 1);
        assert_eq!(set.children_of(Principal::Vo(VoId(1))).len(), 0);
    }
}
