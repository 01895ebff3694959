//! IEEE 802.1Q VLAN tags: TCI manipulation, and the push/pop frame
//! rewrites the HARMLESS translator performs on every packet.
//!
//! A tagged Ethernet frame looks like:
//!
//! ```text
//! | dst (6) | src (6) | TPID 0x8100 (2) | TCI (2) | ethertype (2) | payload |
//! ```
//!
//! TCI = PCP (3 bits) | DEI (1 bit) | VID (12 bits). The tag stack is
//! parsed with the addresses in front of it, by [`frame::Header`].

use core::ops::Range;

use bytes::Bytes;

use crate::{frame, framebuf, Error, EtherType, Result};

/// Mask of the 12-bit VLAN identifier within the TCI.
pub const VID_MASK: u16 = 0x0fff;
/// Highest VLAN id usable for traffic (4095 is reserved).
pub const MAX_VID: u16 = 4094;
/// Byte length of one 802.1Q tag (TPID + TCI).
pub const TAG_LEN: usize = 4;
/// Where the outermost tag's TCI lies in a tagged frame.
pub const OUTER_TCI: Range<usize> = 14..16;

/// A decoded 802.1Q tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VlanTag {
    /// 12-bit VLAN identifier (0 = priority tag).
    pub vid: u16,
    /// 3-bit priority code point.
    pub pcp: u8,
    /// Drop-eligible indicator.
    pub dei: bool,
}

impl VlanTag {
    /// A tag carrying only a VLAN id (PCP 0, DEI clear).
    pub const fn new(vid: u16) -> Self {
        VlanTag {
            vid,
            pcp: 0,
            dei: false,
        }
    }

    /// Decode from a raw TCI value.
    pub const fn from_tci(tci: u16) -> Self {
        VlanTag {
            vid: tci & VID_MASK,
            pcp: (tci >> 13) as u8,
            dei: tci & 0x1000 != 0,
        }
    }

    /// Encode into a raw TCI value.
    pub const fn to_tci(&self) -> u16 {
        ((self.pcp as u16) << 13) | (if self.dei { 0x1000 } else { 0 }) | (self.vid & VID_MASK)
    }

    /// True if `vid` is a legal, non-reserved VLAN id (1..=4094).
    pub const fn vid_is_valid(vid: u16) -> bool {
        vid >= 1 && vid <= MAX_VID
    }
}

/// Insert an 802.1Q tag (TPID 0x8100) directly after the source MAC,
/// returning the re-allocated frame. Works for already-tagged frames too,
/// producing a QinQ stack with the new tag outermost. The caller keeps
/// `frame`, so this always copies; a frame held by nobody else is
/// tagged in place by [`FrameBuf::push_vlan`](crate::FrameBuf::push_vlan).
pub fn push_vlan(frame: &Bytes, tag: VlanTag) -> Result<Bytes> {
    push_vlan_tpid(frame, tag, EtherType::VLAN)
}

/// [`push_vlan`] with an explicit TPID (use [`EtherType::QINQ`] for S-tags).
pub fn push_vlan_tpid(frame: &Bytes, tag: VlanTag, tpid: EtherType) -> Result<Bytes> {
    framebuf::copy_tagged(frame, tpid.0, tag.to_tci())
}

/// Remove the outermost 802.1Q tag, returning the re-allocated frame.
/// Fails with [`Error::Malformed`] if the frame is not tagged.
pub fn pop_vlan(frame: &Bytes) -> Result<Bytes> {
    framebuf::copy_untagged(frame)
}

/// Rewrite the VID of the outermost tag in place (no reallocation).
/// Returns the previous tag. Fails if the frame carries no tag.
pub fn set_vlan_vid(frame: &mut [u8], vid: u16) -> Result<VlanTag> {
    let old = outer_tag(frame).ok_or(Error::Malformed)?;
    let tci = frame.get_mut(OUTER_TCI).ok_or(Error::Truncated)?;
    tci.copy_from_slice(&VlanTag { vid, ..old }.to_tci().to_be_bytes());
    Ok(old)
}

/// Read the outermost tag of a frame, if present.
pub fn outer_tag(frame: &[u8]) -> Option<VlanTag> {
    frame::Header::parse(&mut &frame[..]).ok()?.outer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Header, HEADER_LEN};
    use crate::MacAddr;

    fn parse(frame: &[u8]) -> Result<Header> {
        Header::parse(&mut &frame[..])
    }

    fn untagged() -> Bytes {
        let mut f = vec![0u8; HEADER_LEN + 8];
        f[0..6].copy_from_slice(&MacAddr::host(2).octets());
        f[6..12].copy_from_slice(&MacAddr::host(1).octets());
        f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        f[14] = 0x45;
        Bytes::from(f)
    }

    #[test]
    fn tci_round_trip() {
        let t = VlanTag {
            vid: 101,
            pcp: 5,
            dei: true,
        };
        assert_eq!(VlanTag::from_tci(t.to_tci()), t);
    }

    #[test]
    fn vid_validity() {
        assert!(!VlanTag::vid_is_valid(0));
        assert!(VlanTag::vid_is_valid(1));
        assert!(VlanTag::vid_is_valid(4094));
        assert!(!VlanTag::vid_is_valid(4095));
    }

    #[test]
    fn push_then_parse() {
        let tagged = push_vlan(&untagged(), VlanTag::new(101)).unwrap();
        assert_eq!(tagged.len(), untagged().len() + TAG_LEN);
        let eth = parse(&tagged).unwrap();
        assert_eq!(eth.outer, Some(VlanTag::new(101)));
        assert_eq!(eth.inner, None);
        assert_eq!(eth.ethertype, EtherType::IPV4);
        assert_eq!(eth.header_len(), 18);
        // Addresses untouched.
        assert_eq!(eth.src, MacAddr::host(1));
        assert_eq!(eth.dst, MacAddr::host(2));
    }

    #[test]
    fn push_pop_is_identity() {
        let orig = untagged();
        let tagged = push_vlan(&orig, VlanTag::new(7)).unwrap();
        let popped = pop_vlan(&tagged).unwrap();
        assert_eq!(&popped[..], &orig[..]);
    }

    #[test]
    fn pop_untagged_fails() {
        assert_eq!(pop_vlan(&untagged()).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn qinq_stack() {
        let t1 = push_vlan(&untagged(), VlanTag::new(10)).unwrap();
        let t2 = push_vlan_tpid(&t1, VlanTag::new(200), EtherType::QINQ).unwrap();
        let eth = parse(&t2).unwrap();
        assert_eq!(eth.outer, Some(VlanTag::new(200)));
        assert_eq!(eth.inner, Some(VlanTag::new(10)));
        assert_eq!(eth.ethertype, EtherType::IPV4);
        assert_eq!(eth.header_len(), 22);
    }

    #[test]
    fn set_vid_in_place() {
        let tagged = push_vlan(
            &untagged(),
            VlanTag {
                vid: 101,
                pcp: 3,
                dei: false,
            },
        )
        .unwrap();
        let mut buf = tagged.to_vec();
        let old = set_vlan_vid(&mut buf, 102).unwrap();
        assert_eq!(old.vid, 101);
        // PCP must be preserved across the rewrite.
        assert_eq!(
            outer_tag(&buf),
            Some(VlanTag {
                vid: 102,
                pcp: 3,
                dei: false
            })
        );
        assert_eq!(
            set_vlan_vid(&mut untagged().to_vec(), 5),
            Err(Error::Malformed)
        );
    }

    #[test]
    fn untagged_view() {
        let eth = parse(&untagged()).unwrap();
        assert_eq!(eth.outer, None);
        assert_eq!(eth.header_len(), HEADER_LEN);
        assert_eq!(eth.ethertype, EtherType::IPV4);
    }

    #[test]
    fn triple_tag_rejected() {
        let t1 = push_vlan(&untagged(), VlanTag::new(1)).unwrap();
        let t2 = push_vlan(&t1, VlanTag::new(2)).unwrap();
        let t3 = push_vlan(&t2, VlanTag::new(3)).unwrap();
        assert_eq!(parse(&t3).unwrap_err(), Error::Malformed);
        assert_eq!(outer_tag(&t3), None);
    }
}
