//! Object identifiers.

use core::fmt;
use core::str::FromStr;

/// An SNMP object identifier (sequence of sub-identifiers).
///
/// Ordering is lexicographic over the arcs — exactly the order GetNext
/// walks a MIB in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Oid(pub Vec<u32>);

impl Oid {
    /// Build from arcs.
    pub fn new(arcs: &[u32]) -> Oid {
        Oid(arcs.to_vec())
    }

    /// The arcs.
    pub fn arcs(&self) -> &[u32] {
        &self.0
    }

    /// The instance of a MIB column (see [`crate::mibs`]) at index arc
    /// `index`: 0 for a scalar, else a table row.
    pub fn instance(column: &[u32], index: u32) -> Oid {
        let mut arcs = Vec::with_capacity(column.len() + 1);
        arcs.extend_from_slice(column);
        arcs.push(index);
        Oid(arcs)
    }

    /// Append one arc (e.g. a table index).
    pub fn child(&self, arc: u32) -> Oid {
        let mut v = self.0.clone();
        v.push(arc);
        Oid(v)
    }

    /// Append several arcs.
    pub fn extend(&self, arcs: &[u32]) -> Oid {
        let mut v = self.0.clone();
        v.extend_from_slice(arcs);
        Oid(v)
    }

    /// True if `self` is a prefix of (or equal to) `other` — i.e. `other`
    /// lies in the subtree rooted at `self`.
    pub fn contains(&self, other: &Oid) -> bool {
        other.0.starts_with(&self.0)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, arc) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{arc}")?;
        }
        Ok(())
    }
}

/// Error parsing an OID from text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseOidError;

impl fmt::Display for ParseOidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid OID syntax")
    }
}

impl std::error::Error for ParseOidError {}

impl FromStr for Oid {
    type Err = ParseOidError;

    /// Accepts dotted decimal with an optional leading dot.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.strip_prefix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(ParseOidError);
        }
        let mut arcs = Vec::new();
        for part in s.split('.') {
            arcs.push(part.parse().map_err(|_| ParseOidError)?);
        }
        Ok(Oid(arcs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_round_trip() {
        let o: Oid = "1.3.6.1.2.1.1.1.0".parse().unwrap();
        assert_eq!(o.to_string(), "1.3.6.1.2.1.1.1.0");
        let dotted: Oid = ".1.3.6".parse().unwrap();
        assert_eq!(dotted, Oid::new(&[1, 3, 6]));
        assert!("".parse::<Oid>().is_err());
        assert!("1.x.3".parse::<Oid>().is_err());
    }

    #[test]
    fn ordering_is_getnext_order() {
        let a: Oid = "1.3.6.1.2.1.1.1.0".parse().unwrap();
        let b: Oid = "1.3.6.1.2.1.1.2.0".parse().unwrap();
        let parent: Oid = "1.3.6.1.2.1.1".parse().unwrap();
        assert!(a < b);
        assert!(parent < a, "a parent sorts before its children");
    }

    #[test]
    fn subtree_containment() {
        let root: Oid = "1.3.6.1.2.1.17".parse().unwrap();
        let leaf: Oid = "1.3.6.1.2.1.17.7.1.4.5.1.1.3".parse().unwrap();
        let other: Oid = "1.3.6.1.2.1.2.2".parse().unwrap();
        assert!(root.contains(&leaf));
        assert!(root.contains(&root));
        assert!(!root.contains(&other));
        assert!(!leaf.contains(&root));
    }

    #[test]
    fn child_and_extend() {
        let base = Oid::new(&[1, 3]);
        assert_eq!(base.child(6).to_string(), "1.3.6");
        assert_eq!(base.extend(&[6, 1]).to_string(), "1.3.6.1");
    }
}
