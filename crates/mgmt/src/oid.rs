//! Object identifiers, owned ([`Oid`]) and as a message holds them
//! ([`OidRef`]).

use core::fmt;
use core::str::FromStr;

use crate::ber;

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

/// An OID where a received message holds it: the contents of an OID
/// TLV, checked when it was read, so its arcs read without fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OidRef<'a>(&'a [u8]);

impl<'a> OidRef<'a> {
    /// Check an OID TLV's contents (X.690 §8.19): one sub-identifier at
    /// least, each base-128 arc in its shortest form and at most 32 bits.
    pub fn new(contents: &'a [u8]) -> crate::Result<OidRef<'a>> {
        if contents.is_empty() {
            return Err(crate::Error::Malformed("empty OID"));
        }
        let mut c = contents;
        while !c.is_empty() {
            ber::get_arc(&mut c)?;
        }
        Ok(OidRef(contents))
    }

    /// Contents [`new`](OidRef::new) has checked before.
    pub(crate) fn checked(contents: &'a [u8]) -> OidRef<'a> {
        OidRef(contents)
    }

    /// The arcs: the first sub-identifier unpacked into two (arc1 is 0,
    /// 1 or 2, arc2 = first − 40·arc1), then one per sub-identifier.
    pub fn arcs(self) -> impl Iterator<Item = u32> + Clone + 'a {
        let mut c = self.0;
        let first = ber::get_arc(&mut c).unwrap_or_default();
        let arc1 = (first / 40).min(2);
        [arc1, first - 40 * arc1]
            .into_iter()
            .chain(core::iter::from_fn(move || ber::get_arc(&mut c).ok()))
    }

    /// The TLV contents, as read.
    pub fn contents(self) -> &'a [u8] {
        self.0
    }

    /// The name but its last arc, as the TLV contents hold it (to
    /// compare with an [`OidBytes`]), and that arc: a MIB instance's
    /// column and index. `None` for a name of one sub-identifier, whose
    /// two arcs share a byte.
    pub fn split_last(self) -> Option<(&'a [u8], u32)> {
        // Every byte of a sub-identifier but its last has the top bit
        // set, so the last one starts after the last such run.
        let body = self.0.get(..self.0.len().checked_sub(1)?)?;
        let start = body.iter().rposition(|&b| b & 0x80 == 0)? + 1;
        let (stem, mut last) = self.0.split_at(start);
        Some((stem, ber::get_arc(&mut last).ok()?))
    }

    /// The owned OID.
    pub fn to_owned(self) -> Oid {
        // Every arc after the first sub-identifier takes a byte at least.
        let mut rest = self.0;
        let _ = ber::get_arc(&mut rest);
        let mut arcs = Vec::with_capacity(2 + rest.len());
        arcs.extend(self.arcs());
        Oid(arcs)
    }
}

/// The longest OID an [`OidBytes`] holds, in bytes.
const OID_BYTES_MAX: usize = 16;

/// A constant OID as a message holds it — the contents of its OID TLV,
/// written at compile time — to compare received names with byte for
/// byte ([`OidRef::split_last`]). Its arcs after the first two fit in
/// one byte each (below 128), as every MIB column in [`crate::mibs`]
/// does.
#[derive(Debug, Clone, Copy)]
pub struct OidBytes {
    bytes: [u8; OID_BYTES_MAX],
    len: usize,
}

impl OidBytes {
    /// Encode `arcs`; fails to compile (or panics) if one does not fit
    /// a byte or there are too many.
    // Indexing is checked at compile time for the constants this builds;
    // a `const fn` cannot call `get`.
    #[allow(clippy::indexing_slicing)]
    pub const fn new(arcs: &[u32]) -> OidBytes {
        assert!(arcs.len() >= 2 && arcs.len() <= OID_BYTES_MAX + 1);
        assert!(arcs[0] <= 2 && arcs[1] < 40);
        let mut bytes = [0; OID_BYTES_MAX];
        bytes[0] = (arcs[0] * 40 + arcs[1]) as u8;
        let mut i = 2;
        while i < arcs.len() {
            assert!(arcs[i] < 0x80, "an arc of more than one byte");
            bytes[i - 1] = arcs[i] as u8;
            i += 1;
        }
        OidBytes {
            bytes,
            len: arcs.len() - 1,
        }
    }

    /// The TLV contents.
    pub fn bytes(&self) -> &[u8] {
        self.bytes.get(..self.len).unwrap_or_default()
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
