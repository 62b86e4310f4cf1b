//! Maui-style fair-share rules.
//!
//! "Each entity has a fair share type and fair share percentage value, e.g.,
//! VO 25, VO 25+, VO 25-. The sign after the percentage indicates if the
//! value is a target (no sign), upper limit (+), or lower limit (-)."

use gruber_types::GridError;
use std::fmt;
use std::str::FromStr;

/// The three Maui fair-share flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareKind {
    /// A target: the scheduler aims for this share, above and below allowed.
    Target,
    /// An upper limit: usage must never exceed this share.
    UpperLimit,
    /// A lower limit: this share is guaranteed; more is opportunistic.
    LowerLimit,
}

/// A fair-share rule: a percentage plus its flavour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairShare {
    /// Percentage in `[0, 100]`.
    pub percent: f64,
    /// Target / upper / lower.
    pub kind: ShareKind,
}

impl FairShare {
    /// A target share.
    pub fn target(percent: f64) -> Self {
        FairShare {
            percent,
            kind: ShareKind::Target,
        }
    }

    /// An upper-limit share (`+`).
    pub fn upper(percent: f64) -> Self {
        FairShare {
            percent,
            kind: ShareKind::UpperLimit,
        }
    }

    /// A lower-limit share (`-`).
    pub fn lower(percent: f64) -> Self {
        FairShare {
            percent,
            kind: ShareKind::LowerLimit,
        }
    }

    /// The share as a fraction in `[0, 1]`.
    pub(crate) fn fraction(&self) -> f64 {
        self.percent / 100.0
    }

    /// Validates the percentage range.
    pub fn validate(&self) -> Result<(), GridError> {
        if !(0.0..=100.0).contains(&self.percent) || !self.percent.is_finite() {
            return Err(GridError::UslaParse(format!(
                "fair-share percentage {} out of [0,100]",
                self.percent
            )));
        }
        Ok(())
    }
}

impl fmt::Display for FairShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print integers without a trailing ".0" to match Maui notation.
        if (self.percent.fract()).abs() < 1e-9 {
            write!(f, "{}", self.percent as i64)?;
        } else {
            write!(f, "{}", self.percent)?;
        }
        match self.kind {
            ShareKind::Target => Ok(()),
            ShareKind::UpperLimit => write!(f, "+"),
            ShareKind::LowerLimit => write!(f, "-"),
        }
    }
}

impl FromStr for FairShare {
    type Err = GridError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(GridError::UslaParse("empty fair-share".into()));
        }
        let (num, kind) = match s.as_bytes()[s.len() - 1] {
            b'+' => (&s[..s.len() - 1], ShareKind::UpperLimit),
            b'-' => (&s[..s.len() - 1], ShareKind::LowerLimit),
            _ => (s, ShareKind::Target),
        };
        let percent: f64 = num
            .trim()
            .parse()
            .map_err(|_| GridError::UslaParse(format!("bad fair-share percentage {num:?}")))?;
        let share = FairShare { percent, kind };
        share.validate()?;
        Ok(share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_the_three_kinds() {
        assert_eq!("25".parse::<FairShare>().unwrap(), FairShare::target(25.0));
        assert_eq!("25+".parse::<FairShare>().unwrap(), FairShare::upper(25.0));
        assert_eq!("25-".parse::<FairShare>().unwrap(), FairShare::lower(25.0));
        assert_eq!(
            "12.5+".parse::<FairShare>().unwrap(),
            FairShare::upper(12.5)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "+", "abc", "120", "-5", "25%"] {
            assert!(bad.parse::<FairShare>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_matches_maui_notation() {
        assert_eq!(FairShare::target(25.0).to_string(), "25");
        assert_eq!(FairShare::upper(25.0).to_string(), "25+");
        assert_eq!(FairShare::lower(12.5).to_string(), "12.5-");
    }

    #[test]
    fn fraction() {
        assert_eq!(FairShare::target(50.0).fraction(), 0.5);
    }

    proptest! {
        #[test]
        fn display_parse_roundtrip(p in 0.0f64..=100.0, k in 0u8..3) {
            let share = FairShare {
                percent: (p * 100.0).round() / 100.0, // printable precision
                kind: match k { 0 => ShareKind::Target, 1 => ShareKind::UpperLimit, _ => ShareKind::LowerLimit },
            };
            let parsed: FairShare = share.to_string().parse().unwrap();
            prop_assert!((parsed.percent - share.percent).abs() < 1e-9);
            prop_assert_eq!(parsed.kind, share.kind);
        }
    }
}
