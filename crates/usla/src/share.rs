//! Maui-style fair-share rules.
//!
//! "Each entity has a fair share type and fair share percentage value, e.g.,
//! VO 25, VO 25+, VO 25-. The sign after the percentage indicates if the
//! value is a target (no sign), upper limit (+), or lower limit (-)."

use gruber_types::GridError;

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
            return Err(GridError::InvalidConfig(format!(
                "fair-share percentage {} out of [0,100]",
                self.percent
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction() {
        assert_eq!(FairShare::target(50.0).fraction(), 0.5);
    }
}
