//! USLA-set generators.
//!
//! The experiments give every VO (and every group within a VO) a fair-share
//! USLA. [`equal_shares`] produces the symmetric configuration used for the
//! scalability runs; [`weighted_shares`] produces asymmetric targets with
//! caps/floors for the fair-share examples and tests.

use gruber_types::{GridError, GroupId, VoId};
use usla::{FairShare, Principal, UslaEntry, UslaSet};

/// Equal CPU targets: every VO gets `100/n_vos` %, every group
/// `100/groups_per_vo` % of its VO.
pub fn equal_shares(n_vos: u32, groups_per_vo: u32) -> Result<UslaSet, GridError> {
    if n_vos == 0 || groups_per_vo == 0 {
        return Err(GridError::InvalidConfig("zero VOs or groups".into()));
    }
    let mut entries = Vec::new();
    let vo_pct = 100.0 / f64::from(n_vos);
    let grp_pct = 100.0 / f64::from(groups_per_vo);
    for v in 0..n_vos {
        entries.push(UslaEntry {
            provider: Principal::Grid,
            consumer: Principal::Vo(VoId(v)),
            share: FairShare::target(vo_pct),
        });
        for g in 0..groups_per_vo {
            entries.push(UslaEntry {
                provider: Principal::Vo(VoId(v)),
                consumer: Principal::Group(VoId(v), GroupId(g)),
                share: FairShare::target(grp_pct),
            });
        }
    }
    UslaSet::from_entries(entries)
}

/// Weighted VO targets proportional to `weights`, with the first VO given
/// an upper limit and the last a lower limit (exercising all three Maui
/// share kinds).
pub fn weighted_shares(weights: &[f64]) -> Result<UslaSet, GridError> {
    if weights.is_empty() || weights.iter().any(|w| *w <= 0.0) {
        return Err(GridError::InvalidConfig("bad weights".into()));
    }
    let total: f64 = weights.iter().sum();
    let mut entries = Vec::new();
    for (v, w) in weights.iter().enumerate() {
        let pct = w / total * 100.0;
        let share = if v == 0 {
            FairShare::upper(pct)
        } else if v == weights.len() - 1 {
            FairShare::lower(pct)
        } else {
            FairShare::target(pct)
        };
        entries.push(UslaEntry {
            provider: Principal::Grid,
            consumer: Principal::Vo(VoId(v as u32)),
            share,
        });
    }
    UslaSet::from_entries(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usla::{EntitlementEngine, ShareKind};

    #[test]
    fn equal_shares_cover_hierarchy() {
        let set = equal_shares(10, 10).unwrap();
        assert_eq!(set.entries().len(), 10 + 100);
        let eng = EntitlementEngine::new(&set, 45_000.0);
        let vo = eng.entitlement(Principal::Vo(VoId(3)));
        assert!((vo - 4500.0).abs() < 1e-6);
        let grp = eng.entitlement(Principal::Group(VoId(3), GroupId(7)));
        assert!((grp - 450.0).abs() < 1e-6);
    }

    #[test]
    fn equal_shares_rejects_zero() {
        assert!(equal_shares(0, 5).is_err());
        assert!(equal_shares(5, 0).is_err());
    }

    #[test]
    fn weighted_shares_kinds_and_proportions() {
        let set = weighted_shares(&[1.0, 2.0, 1.0]).unwrap();
        let entries = set.entries();
        assert_eq!(entries[0].share.kind, ShareKind::UpperLimit);
        assert_eq!(entries[1].share.kind, ShareKind::Target);
        assert_eq!(entries[2].share.kind, ShareKind::LowerLimit);
        assert!((entries[1].share.percent - 50.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_shares_rejects_bad_weights() {
        assert!(weighted_shares(&[]).is_err());
        assert!(weighted_shares(&[1.0, 0.0]).is_err());
        assert!(weighted_shares(&[1.0, -2.0]).is_err());
    }
}
