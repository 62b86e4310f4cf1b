//! The recursive provider/consumer hierarchy.
//!
//! "There are at least two levels of resource assignments: to a VO, by a
//! resource owner, and to a VO user or group, by a VO. [...] extending the
//! specification in a recursive way to VOs, groups, and users." The
//! hierarchy here stops at groups: a decision point accounts usage per VO
//! and per group, never per user.

use gruber_types::{GroupId, VoId};
use std::fmt;

/// A party that can provide or consume resource shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Principal {
    /// The grid as a whole (the resource owners collectively).
    Grid,
    /// A virtual organization.
    Vo(VoId),
    /// A group within a VO.
    Group(VoId, GroupId),
}

impl Principal {
    /// The immediate parent, or `None` for the grid root.
    pub(crate) fn parent(&self) -> Option<Principal> {
        match *self {
            Principal::Grid => None,
            Principal::Vo(_) => Some(Principal::Grid),
            Principal::Group(v, _) => Some(Principal::Vo(v)),
        }
    }

    /// True if `self` is the immediate parent of `child`.
    pub(crate) fn is_parent_of(&self, child: &Principal) -> bool {
        child.parent() == Some(*self)
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Principal::Grid => write!(f, "grid"),
            Principal::Vo(v) => write!(f, "vo:{}", v.0),
            Principal::Group(v, g) => write!(f, "group:{}.{}", v.0, g.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_chain() {
        let g = Principal::Group(VoId(1), GroupId(2));
        assert_eq!(g.parent(), Some(Principal::Vo(VoId(1))));
        assert_eq!(g.parent().unwrap().parent(), Some(Principal::Grid));
        assert_eq!(Principal::Grid.parent(), None);
    }

    #[test]
    fn parenthood() {
        let vo = Principal::Vo(VoId(1));
        let grp = Principal::Group(VoId(1), GroupId(0));
        assert!(vo.is_parent_of(&grp));
        assert!(!Principal::Grid.is_parent_of(&grp));
    }
}
