//! Strongly-typed identifiers.
//!
//! Every entity in the brokering model gets its own newtype over `u32` so the
//! compiler rejects, say, passing a VO id where a site id is expected. All ids
//! are plain indices assigned by whoever owns the namespace (the grid emulator
//! assigns site ids, the workload generator assigns VO/group/user/job ids, the
//! decision-point network assigns DP ids).

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a raw index.
            #[inline]
            pub const fn from_index(i: usize) -> Self {
                Self(i as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

define_id!(
    /// A grid site (an institution's cluster farm; Grid3/OSG "site").
    SiteId,
    "site-"
);
define_id!(
    /// A virtual organization.
    VoId,
    "vo-"
);
define_id!(
    /// A group within a VO.
    GroupId,
    "group-"
);
define_id!(
    /// An individual user within a VO group.
    UserId,
    "user-"
);
define_id!(
    /// A job submitted to the grid.
    JobId,
    "job-"
);
define_id!(
    /// A DI-GRUBER decision point (VO policy enforcement point).
    DpId,
    "dp-"
);
define_id!(
    /// A submission host / DiPerF tester client.
    ClientId,
    "client-"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let s = SiteId::from_index(42);
        assert_eq!(s.index(), 42);
        assert_eq!(s, SiteId(42));
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(SiteId(3).to_string(), "site-3");
        assert_eq!(DpId(0).to_string(), "dp-0");
        assert_eq!(JobId(7).to_string(), "job-7");
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(VoId(1) < VoId(2));
        assert!(ClientId(10) > ClientId(9));
    }

    #[test]
    fn from_u32() {
        let g: GroupId = 5u32.into();
        assert_eq!(g, GroupId(5));
    }
}
