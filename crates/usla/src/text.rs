//! The WS-Agreement-subset text format.
//!
//! The paper bases its SLA specification "on a subset of WS-Agreement,
//! taking advantage of the refined specification and the high-level
//! structure [...] a simple schema that allows for monitoring resources and
//! goal specifications". We stand in for that XML subset with a compact
//! line-oriented format carrying exactly the same information — one
//! agreement goal per line:
//!
//! ```text
//! # comments and blank lines are ignored
//! usla cpu grid -> vo:0 = 40
//! usla cpu vo:0 -> group:0.1 = 50+
//! usla storage grid -> vo:1 = 25-
//! ```
//!
//! `parse` and `print` round-trip: `parse(print(set)) == set`.

use crate::agreement::{ResourceKind, UslaEntry, UslaSet};
use gruber_types::GridError;

/// Parses a USLA document.
pub fn parse(input: &str) -> Result<UslaSet, GridError> {
    let mut set = UslaSet::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let entry = parse_line(line)
            .map_err(|e| GridError::UslaParse(format!("line {}: {e}", lineno + 1)))?;
        set.insert(entry)
            .map_err(|e| GridError::UslaParse(format!("line {}: {e}", lineno + 1)))?;
    }
    Ok(set)
}

fn parse_line(line: &str) -> Result<UslaEntry, GridError> {
    let rest = line
        .strip_prefix("usla ")
        .ok_or_else(|| GridError::UslaParse(format!("expected 'usla ...', got {line:?}")))?;
    let (head, share) = rest
        .split_once('=')
        .ok_or_else(|| GridError::UslaParse(format!("missing '=' in {line:?}")))?;
    let (resource_and_provider, consumer) = head
        .split_once("->")
        .ok_or_else(|| GridError::UslaParse(format!("missing '->' in {line:?}")))?;
    let mut it = resource_and_provider.split_whitespace();
    let resource: ResourceKind = it
        .next()
        .ok_or_else(|| GridError::UslaParse("missing resource".into()))?
        .parse()?;
    let provider = it
        .next()
        .ok_or_else(|| GridError::UslaParse("missing provider".into()))?
        .parse()?;
    if let Some(extra) = it.next() {
        return Err(GridError::UslaParse(format!("unexpected token {extra:?}")));
    }
    Ok(UslaEntry {
        provider,
        consumer: consumer.trim().parse()?,
        resource,
        share: share.trim().parse()?,
    })
}

/// Prints a USLA set in the line format (one goal per line, stable order).
pub fn print(set: &UslaSet) -> String {
    let mut out = String::new();
    for e in set.entries() {
        out.push_str(&format!(
            "usla {} {} -> {} = {}\n",
            e.resource, e.provider, e.consumer, e.share
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principal::Principal;
    use crate::share::{FairShare, ShareKind};
    use gruber_types::{GroupId, VoId};

    const DOC: &str = "\
# Grid-level CPU allocations
usla cpu grid -> vo:0 = 40
usla cpu grid -> vo:1 = 60+

  # nested goals
usla cpu vo:0 -> group:0.0 = 50
usla storage grid -> vo:0 = 12.5-
";

    #[test]
    fn parses_document() {
        let set = parse(DOC).unwrap();
        assert_eq!(set.entries().len(), 4);
        let e = set
            .lookup(Principal::Grid, Principal::Vo(VoId(1)), ResourceKind::Cpu)
            .unwrap();
        assert_eq!(e.share, FairShare::upper(60.0));
        let g = set
            .lookup(
                Principal::Vo(VoId(0)),
                Principal::Group(VoId(0), GroupId(0)),
                ResourceKind::Cpu,
            )
            .unwrap();
        assert_eq!(g.share.kind, ShareKind::Target);
    }

    #[test]
    fn roundtrip() {
        let set = parse(DOC).unwrap();
        let printed = print(&set);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(set, reparsed);
    }

    #[test]
    fn error_reports_line_number() {
        let err = parse("usla cpu grid -> vo:0 = 40\nusla bogus grid -> vo:1 = 10\n")
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 2"), "got {err}");
    }

    #[test]
    fn rejects_structural_garbage() {
        for bad in [
            "cpu grid -> vo:0 = 40",         // missing keyword
            "usla cpu grid vo:0 = 40",       // missing arrow
            "usla cpu grid -> vo:0 40",      // missing equals
            "usla cpu grid x -> vo:0 = 40",  // extra token
            "usla cpu grid -> group:0.0 = 4", // bad nesting
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn duplicate_goals_rejected_with_location() {
        let doc = "usla cpu grid -> vo:0 = 40\nusla cpu grid -> vo:0 = 50\n";
        let err = parse(doc).unwrap_err().to_string();
        assert!(err.contains("duplicate"), "got {err}");
    }

    #[test]
    fn empty_document_is_empty_set() {
        assert!(parse("\n# nothing here\n").unwrap().entries().is_empty());
    }
}
