//! The entitlement engine.
//!
//! Turns fair-share rules into concrete resource quantities and answers the
//! per-job admission question a GRUBER decision point asks: *may this VO
//! (group) start one more job right now?*
//!
//! ## Distribution semantics
//!
//! Given a pool of `total` units and one rule per child:
//!
//! * every child starts from its proportional slice (weights = percentages,
//!   normalized, so rule sets that do not add to 100 % still work);
//! * `+` rules are **hard caps** — a child never receives more than its
//!   percentage of the pool; freed excess is redistributed proportionally
//!   among un-capped children;
//! * `-` rules are **floors** — a child never receives less than its
//!   percentage of the pool (floors are scaled down proportionally in the
//!   pathological case where they alone exceed the pool);
//! * plain rules are targets: starting points for the proportional split,
//!   free to drift either way during redistribution.
//!
//! This is a fixed-point water-filling computation; it terminates because
//! each iteration permanently freezes at least one child.

use crate::agreement::UslaSet;
use crate::principal::Principal;
use crate::share::{FairShare, ShareKind};

/// Distributes `total` units among children according to their rules.
///
/// Returns one allocation per rule, in order. The allocations sum to
/// `total` (up to floating-point error) unless every child is capped below
/// its proportional slice, in which case the sum may be less (the remainder
/// is genuinely unallocated — available opportunistically to anyone).
pub(crate) fn distribute(total: f64, rules: &[FairShare]) -> Vec<f64> {
    assert!(total >= 0.0 && total.is_finite());
    let n = rules.len();
    if n == 0 {
        return Vec::new();
    }

    // Floors first: lower-limit children are guaranteed their slice.
    let mut floor: Vec<f64> = rules
        .iter()
        .map(|r| match r.kind {
            ShareKind::LowerLimit => r.fraction() * total,
            _ => 0.0,
        })
        .collect();
    let floor_sum: f64 = floor.iter().sum();
    if floor_sum > total && floor_sum > 0.0 {
        // Pathological: floors alone exceed the pool. Scale them down.
        let scale = total / floor_sum;
        for f in &mut floor {
            *f *= scale;
        }
    }

    let cap: Vec<f64> = rules
        .iter()
        .map(|r| match r.kind {
            ShareKind::UpperLimit => r.fraction() * total,
            _ => f64::INFINITY,
        })
        .collect();

    let mut alloc = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut remaining = total;

    // Iteratively hand out the pool proportionally among unfrozen children,
    // freezing any child that hits its cap or would drop under its floor.
    for _round in 0..=n {
        let weight_sum: f64 = (0..n)
            .filter(|&i| !frozen[i])
            .map(|i| rules[i].percent.max(1e-12))
            .sum();
        if weight_sum <= 0.0 || remaining <= 1e-9 {
            break;
        }
        let mut violated = false;
        // Tentative proportional split of what's left.
        let tentative: Vec<f64> = (0..n)
            .map(|i| {
                if frozen[i] {
                    alloc[i]
                } else {
                    remaining * rules[i].percent.max(1e-12) / weight_sum
                }
            })
            .collect();
        for i in 0..n {
            if frozen[i] {
                continue;
            }
            if tentative[i] > cap[i] + 1e-9 {
                alloc[i] = cap[i];
                frozen[i] = true;
                remaining -= cap[i];
                violated = true;
            } else if tentative[i] < floor[i] - 1e-9 {
                alloc[i] = floor[i];
                frozen[i] = true;
                remaining -= floor[i];
                violated = true;
            }
        }
        if !violated {
            for i in 0..n {
                if !frozen[i] {
                    alloc[i] = tentative[i];
                }
            }
            break;
        }
    }
    alloc
}

/// The verdict GRUBER returns for "may this principal start one more unit?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionVerdict {
    /// Usage is below the guaranteed (lower-limit) share: always admit.
    Guaranteed,
    /// Usage is below the target/derived entitlement: admit.
    UnderEntitlement,
    /// Usage is above entitlement but capacity is idle and no cap blocks:
    /// admit opportunistically ("free resources are acquired when
    /// available").
    Opportunistic,
    /// A hard upper limit (or exhausted capacity) forbids admission.
    Denied,
}

impl AdmissionVerdict {
    /// Whether the job may start.
    pub fn admitted(self) -> bool {
        !matches!(self, AdmissionVerdict::Denied)
    }
}

/// Evaluates entitlements over the principal hierarchy.
#[derive(Debug, Clone)]
pub struct EntitlementEngine<'a> {
    uslas: &'a UslaSet,
    total: f64,
}

impl<'a> EntitlementEngine<'a> {
    /// Builds an engine over a USLA set, with `total` units in the
    /// grid-wide pool.
    pub fn new(uslas: &'a UslaSet, total: f64) -> Self {
        EntitlementEngine { uslas, total }
    }

    /// The concrete entitlement (in resource units) of a principal.
    ///
    /// Computed recursively: the grid owns `total`; each level splits its
    /// parent's entitlement among the siblings that have rules. A principal
    /// with no rule at a level where siblings *do* have rules is entitled
    /// to nothing (but may still run opportunistically); if a provider
    /// published no rules at all for a level, the parent's entitlement
    /// passes through undivided (open pool).
    pub fn entitlement(&self, p: Principal) -> f64 {
        match p.parent() {
            None => self.total,
            Some(parent) => {
                let parent_ent = self.entitlement(parent);
                let children = self.uslas.children_of(parent);
                if children.is_empty() {
                    return parent_ent; // open pool at this level
                }
                let rules: Vec<FairShare> = children.iter().map(|e| e.share).collect();
                let allocs = distribute(parent_ent, &rules);
                children
                    .iter()
                    .zip(allocs)
                    .find(|(e, _)| e.consumer == p)
                    .map(|(_, a)| a)
                    .unwrap_or(0.0)
            }
        }
    }

    /// The guaranteed floor (from `-` rules) of a principal, in units.
    pub fn guaranteed(&self, p: Principal) -> f64 {
        match p.parent() {
            None => self.total,
            Some(parent) => {
                let entry = self
                    .uslas
                    .children_of(parent)
                    .into_iter()
                    .find(|e| e.consumer == p);
                match entry {
                    Some(e) if e.share.kind == ShareKind::LowerLimit => {
                        e.share.fraction() * self.entitlement(parent)
                    }
                    _ => 0.0,
                }
            }
        }
    }

    /// The hard cap (from `+` rules) of a principal, in units
    /// (`f64::INFINITY` when uncapped).
    pub fn cap(&self, p: Principal) -> f64 {
        match p.parent() {
            None => self.total,
            Some(parent) => {
                let entry = self
                    .uslas
                    .children_of(parent)
                    .into_iter()
                    .find(|e| e.consumer == p);
                match entry {
                    Some(e) if e.share.kind == ShareKind::UpperLimit => {
                        e.share.fraction() * self.entitlement(parent)
                    }
                    _ => f64::INFINITY,
                }
            }
        }
    }

    /// Admission check for starting `want` more units, given the
    /// principal's `usage` and the grid's current `idle` capacity.
    ///
    /// Checks the whole ancestor chain: a group may be blocked by its
    /// VO's cap. Usage per ancestor is supplied by the caller through
    /// `usage_of`.
    pub fn check_admission(
        &self,
        p: Principal,
        want: f64,
        idle: f64,
        usage_of: impl Fn(Principal) -> f64,
    ) -> AdmissionVerdict {
        if want > idle {
            return AdmissionVerdict::Denied;
        }
        // Walk the chain from the principal up to (not including) the grid.
        let mut verdict = AdmissionVerdict::Guaranteed;
        let mut cur = Some(p);
        while let Some(node) = cur {
            if node == Principal::Grid {
                break;
            }
            let usage = usage_of(node);
            let after = usage + want;
            if after > self.cap(node) + 1e-9 {
                return AdmissionVerdict::Denied;
            }
            let level = if after <= self.guaranteed(node) + 1e-9 {
                AdmissionVerdict::Guaranteed
            } else if after <= self.entitlement(node) + 1e-9 {
                AdmissionVerdict::UnderEntitlement
            } else {
                AdmissionVerdict::Opportunistic
            };
            // The weakest level along the chain wins.
            verdict = weakest(verdict, level);
            cur = node.parent();
        }
        verdict
    }
}

fn weakest(a: AdmissionVerdict, b: AdmissionVerdict) -> AdmissionVerdict {
    use AdmissionVerdict::*;
    let rank = |v: AdmissionVerdict| match v {
        Guaranteed => 0,
        UnderEntitlement => 1,
        Opportunistic => 2,
        Denied => 3,
    };
    if rank(a) >= rank(b) {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreement::UslaEntry;
    use gruber_types::{GroupId, VoId};
    use proptest::prelude::*;

    #[test]
    fn distribute_plain_targets_proportionally() {
        let a = distribute(100.0, &[FairShare::target(40.0), FairShare::target(60.0)]);
        assert!((a[0] - 40.0).abs() < 1e-9);
        assert!((a[1] - 60.0).abs() < 1e-9);
    }

    #[test]
    fn distribute_normalizes_non_100_sums() {
        let a = distribute(100.0, &[FairShare::target(1.0), FairShare::target(3.0)]);
        assert!((a[0] - 25.0).abs() < 1e-9);
        assert!((a[1] - 75.0).abs() < 1e-9);
    }

    #[test]
    fn upper_limit_caps_and_redistributes() {
        // Child 0 capped at 20 %, child 1 takes the rest.
        let a = distribute(100.0, &[FairShare::upper(20.0), FairShare::target(50.0)]);
        assert!((a[0] - 20.0).abs() < 1e-9, "{a:?}");
        assert!((a[1] - 80.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn lower_limit_floors() {
        // Child 0 guaranteed 60 %, child 1 has a huge target: floor wins.
        let a = distribute(100.0, &[FairShare::lower(60.0), FairShare::target(90.0)]);
        assert!(a[0] >= 60.0 - 1e-9, "{a:?}");
        assert!((a.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn floors_exceeding_pool_scale_down() {
        let a = distribute(100.0, &[FairShare::lower(80.0), FairShare::lower(80.0)]);
        assert!((a[0] - 50.0).abs() < 1e-6, "{a:?}");
        assert!((a[1] - 50.0).abs() < 1e-6, "{a:?}");
    }

    #[test]
    fn all_capped_leaves_pool_unallocated() {
        let a = distribute(100.0, &[FairShare::upper(10.0), FairShare::upper(20.0)]);
        assert!((a[0] - 10.0).abs() < 1e-9);
        assert!((a[1] - 20.0).abs() < 1e-9);
        assert!(a.iter().sum::<f64>() < 100.0);
    }

    #[test]
    fn empty_rules_empty_allocs() {
        assert!(distribute(10.0, &[]).is_empty());
    }

    /// VO 0 takes `vo0` of the grid and VO 1 a 60 % target; VO 0's two
    /// groups take 50 % each, group 1 capped.
    fn hierarchy_with(vo0: FairShare) -> UslaSet {
        let (grid, vo) = (Principal::Grid, Principal::Vo(VoId(0)));
        let group = |g| Principal::Group(VoId(0), GroupId(g));
        UslaSet::from_entries(
            [
                (grid, vo, vo0),
                (grid, Principal::Vo(VoId(1)), FairShare::target(60.0)),
                (vo, group(0), FairShare::target(50.0)),
                (vo, group(1), FairShare::upper(50.0)),
            ]
            .map(|(provider, consumer, share)| UslaEntry {
                provider,
                consumer,
                share,
            })
            .to_vec(),
        )
        .unwrap()
    }

    fn hierarchy() -> UslaSet {
        hierarchy_with(FairShare::target(40.0))
    }

    #[test]
    fn entitlement_is_recursive() {
        let set = hierarchy();
        let eng = EntitlementEngine::new(&set, 1000.0);
        assert!((eng.entitlement(Principal::Vo(VoId(0))) - 400.0).abs() < 1e-6);
        assert!(
            (eng.entitlement(Principal::Group(VoId(0), GroupId(0))) - 200.0).abs() < 1e-6
        );
        // VO 1 published no group rules: open pool passes through.
        assert!(
            (eng.entitlement(Principal::Group(VoId(1), GroupId(0))) - 600.0).abs() < 1e-6
        );
    }

    #[test]
    fn unlisted_sibling_gets_zero_entitlement() {
        let set = hierarchy();
        let eng = EntitlementEngine::new(&set, 1000.0);
        assert_eq!(eng.entitlement(Principal::Group(VoId(0), GroupId(7))), 0.0);
    }

    #[test]
    fn admission_levels() {
        // `hierarchy()` with VO 0's target a floor: 400 guaranteed.
        let set = hierarchy_with(FairShare::lower(40.0));
        let eng = EntitlementEngine::new(&set, 1000.0);
        let vo = Principal::Vo(VoId(0));

        // Below the floor.
        let v = eng.check_admission(vo, 1.0, 500.0, |_| 100.0);
        assert_eq!(v, AdmissionVerdict::Guaranteed);
        // Above the floor/entitlement but idle capacity: opportunistic.
        let v = eng.check_admission(vo, 1.0, 500.0, |_| 450.0);
        assert_eq!(v, AdmissionVerdict::Opportunistic);
        assert!(v.admitted());
        // No idle capacity: denied.
        let v = eng.check_admission(vo, 1.0, 0.5, |_| 100.0);
        assert_eq!(v, AdmissionVerdict::Denied);
    }

    #[test]
    fn hard_cap_denies_along_chain() {
        let set = hierarchy();
        let eng = EntitlementEngine::new(&set, 1000.0);
        let g1 = Principal::Group(VoId(0), GroupId(1)); // capped at 50% of 400 = 200
        // Group usage at its cap: denied even with idle capacity.
        let v = eng.check_admission(g1, 1.0, 500.0, |p| if p == g1 { 200.0 } else { 210.0 });
        assert_eq!(v, AdmissionVerdict::Denied);
        // Under the cap: admitted (opportunistic or better).
        let v = eng.check_admission(g1, 1.0, 500.0, |p| if p == g1 { 100.0 } else { 150.0 });
        assert!(v.admitted());
    }

    proptest! {
        #[test]
        fn distribute_conserves_or_underallocates(
            total in 0.0f64..10_000.0,
            specs in proptest::collection::vec((0.0f64..=100.0, 0u8..3), 1..12),
        ) {
            let rules: Vec<FairShare> = specs
                .iter()
                .map(|&(p, k)| FairShare {
                    percent: p,
                    kind: match k {
                        0 => ShareKind::Target,
                        1 => ShareKind::UpperLimit,
                        _ => ShareKind::LowerLimit,
                    },
                })
                .collect();
            let a = distribute(total, &rules);
            prop_assert_eq!(a.len(), rules.len());
            let sum: f64 = a.iter().sum();
            prop_assert!(sum <= total + 1e-6 * total.max(1.0), "sum {} > total {}", sum, total);
            for (alloc, rule) in a.iter().zip(&rules) {
                prop_assert!(*alloc >= -1e-9);
                if rule.kind == ShareKind::UpperLimit {
                    prop_assert!(*alloc <= rule.fraction() * total + 1e-6, "cap violated");
                }
            }
        }

        #[test]
        fn floors_hold_when_feasible(
            total in 1.0f64..10_000.0,
            percents in proptest::collection::vec(0.0f64..=30.0, 1..4),
        ) {
            // <= 3 floors of <= 30% are always jointly feasible.
            let rules: Vec<FairShare> = percents.iter().map(|&p| FairShare::lower(p)).collect();
            let a = distribute(total, &rules);
            for (alloc, rule) in a.iter().zip(&rules) {
                prop_assert!(
                    *alloc >= rule.fraction() * total - 1e-6 * total,
                    "floor violated: {} < {}",
                    alloc,
                    rule.fraction() * total
                );
            }
        }
    }
}
