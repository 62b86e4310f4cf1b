//! The recursive provider/consumer hierarchy.
//!
//! "There are at least two levels of resource assignments: to a VO, by a
//! resource owner, and to a VO user or group, by a VO. [...] extending the
//! specification in a recursive way to VOs, groups, and users."

use gruber_types::{GridError, GroupId, UserId, VoId};
use std::fmt;
use std::str::FromStr;

/// A party that can provide or consume resource shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Principal {
    /// The grid as a whole (the resource owners collectively).
    Grid,
    /// A virtual organization.
    Vo(VoId),
    /// A group within a VO.
    Group(VoId, GroupId),
    /// A user within a VO group.
    User(VoId, GroupId, UserId),
}

impl Principal {
    /// The immediate parent, or `None` for the grid root.
    pub(crate) fn parent(&self) -> Option<Principal> {
        match *self {
            Principal::Grid => None,
            Principal::Vo(_) => Some(Principal::Grid),
            Principal::Group(v, _) => Some(Principal::Vo(v)),
            Principal::User(v, g, _) => Some(Principal::Group(v, g)),
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
            Principal::User(v, g, u) => write!(f, "user:{}.{}.{}", v.0, g.0, u.0),
        }
    }
}

impl FromStr for Principal {
    type Err = GridError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s == "grid" {
            return Ok(Principal::Grid);
        }
        let (tag, rest) = s
            .split_once(':')
            .ok_or_else(|| GridError::UslaParse(format!("bad principal {s:?}")))?;
        let parts: Vec<u32> = rest
            .split('.')
            .map(|p| {
                p.parse::<u32>()
                    .map_err(|_| GridError::UslaParse(format!("bad principal index in {s:?}")))
            })
            .collect::<Result<_, _>>()?;
        match (tag, parts.as_slice()) {
            ("vo", [v]) => Ok(Principal::Vo(VoId(*v))),
            ("group", [v, g]) => Ok(Principal::Group(VoId(*v), GroupId(*g))),
            ("user", [v, g, u]) => Ok(Principal::User(VoId(*v), GroupId(*g), UserId(*u))),
            _ => Err(GridError::UslaParse(format!("bad principal {s:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_chain() {
        let u = Principal::User(VoId(1), GroupId(2), UserId(3));
        assert_eq!(u.parent(), Some(Principal::Group(VoId(1), GroupId(2))));
        assert_eq!(u.parent().unwrap().parent(), Some(Principal::Vo(VoId(1))));
        assert_eq!(Principal::Grid.parent(), None);
    }

    #[test]
    fn parenthood() {
        let vo = Principal::Vo(VoId(1));
        let grp = Principal::Group(VoId(1), GroupId(0));
        assert!(vo.is_parent_of(&grp));
        assert!(!Principal::Grid.is_parent_of(&grp));
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["grid", "vo:3", "group:1.2", "user:0.4.7"] {
            let p: Principal = s.parse().unwrap();
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in ["", "vo", "vo:", "vo:x", "group:1", "user:1.2", "planet:1"] {
            assert!(bad.parse::<Principal>().is_err(), "accepted {bad:?}");
        }
    }
}
