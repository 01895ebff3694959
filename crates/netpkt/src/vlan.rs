//! IEEE 802.1Q VLAN tags: views, TCI manipulation, and the push/pop frame
//! rewrites the HARMLESS translator performs on every packet.
//!
//! A tagged Ethernet frame looks like:
//!
//! ```text
//! | dst (6) | src (6) | TPID 0x8100 (2) | TCI (2) | ethertype (2) | payload |
//! ```
//!
//! TCI = PCP (3 bits) | DEI (1 bit) | VID (12 bits).

use bytes::{Bytes, BytesMut};

use crate::frame::HEADER_LEN;
use crate::{framebuf, Error, EtherType, Result};

/// Mask of the 12-bit VLAN identifier within the TCI.
pub const VID_MASK: u16 = 0x0fff;
/// Highest VLAN id usable for traffic (4095 is reserved).
pub const MAX_VID: u16 = 4094;
/// Byte length of one 802.1Q tag (TPID + TCI).
pub const TAG_LEN: usize = 4;

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

/// Tag-aware view of an Ethernet frame: resolves the (possibly stacked)
/// VLAN tags and locates the *inner* EtherType and payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlanView {
    /// Outermost tag, if any.
    pub outer: Option<VlanTag>,
    /// Second tag for QinQ frames.
    pub inner: Option<VlanTag>,
    /// The EtherType of the encapsulated protocol (after all tags).
    pub inner_ethertype: EtherType,
    /// Byte offset of the inner payload from the start of the frame.
    pub payload_offset: usize,
}

impl VlanView {
    /// Parse the tag stack of `frame`. Untagged frames yield
    /// `outer == None` and `payload_offset == 14`.
    pub fn parse(frame: &[u8]) -> Result<VlanView> {
        if frame.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let mut off = 12; // first ethertype/TPID position
        let mut outer = None;
        let mut inner = None;
        let mut ethertype = read_u16(frame, off)?;
        if EtherType(ethertype).is_vlan() {
            let tci = read_u16(frame, off + 2)?;
            outer = Some(VlanTag::from_tci(tci));
            off += TAG_LEN;
            ethertype = read_u16(frame, off)?;
            if EtherType(ethertype).is_vlan() {
                let tci = read_u16(frame, off + 2)?;
                inner = Some(VlanTag::from_tci(tci));
                off += TAG_LEN;
                ethertype = read_u16(frame, off)?;
                if EtherType(ethertype).is_vlan() {
                    // More than two tags is outside any profile we model.
                    return Err(Error::Malformed);
                }
            }
        }
        Ok(VlanView {
            outer,
            inner,
            inner_ethertype: EtherType(ethertype),
            payload_offset: off + 2,
        })
    }
}

fn read_u16(buf: &[u8], off: usize) -> Result<u16> {
    if buf.len() < off + 2 {
        return Err(Error::Truncated);
    }
    Ok(u16::from_be_bytes([buf[off], buf[off + 1]]))
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
/// Returns the previous tag. Fails if the frame is untagged.
pub fn set_vlan_vid(frame: &mut BytesMut, vid: u16) -> Result<VlanTag> {
    if frame.len() < HEADER_LEN + TAG_LEN {
        return Err(Error::Truncated);
    }
    let tpid = u16::from_be_bytes([frame[12], frame[13]]);
    if !EtherType(tpid).is_vlan() {
        return Err(Error::Malformed);
    }
    let old = VlanTag::from_tci(u16::from_be_bytes([frame[14], frame[15]]));
    let new = VlanTag { vid, ..old };
    frame[14..16].copy_from_slice(&new.to_tci().to_be_bytes());
    Ok(old)
}

/// Read the outermost tag of a frame, if present.
pub fn outer_tag(frame: &[u8]) -> Option<VlanTag> {
    VlanView::parse(frame).ok()?.outer
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EthernetFrame, MacAddr};

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
        let view = VlanView::parse(&tagged).unwrap();
        assert_eq!(view.outer, Some(VlanTag::new(101)));
        assert_eq!(view.inner, None);
        assert_eq!(view.inner_ethertype, EtherType::IPV4);
        assert_eq!(view.payload_offset, 18);
        // Addresses untouched.
        let eth = EthernetFrame::new_checked(&tagged[..]).unwrap();
        assert_eq!(eth.src(), MacAddr::host(1));
        assert_eq!(eth.dst(), MacAddr::host(2));
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
        let view = VlanView::parse(&t2).unwrap();
        assert_eq!(view.outer, Some(VlanTag::new(200)));
        assert_eq!(view.inner, Some(VlanTag::new(10)));
        assert_eq!(view.inner_ethertype, EtherType::IPV4);
        assert_eq!(view.payload_offset, 22);
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
        let mut buf = BytesMut::from(&tagged[..]);
        let old = set_vlan_vid(&mut buf, 102).unwrap();
        assert_eq!(old.vid, 101);
        let view = VlanView::parse(&buf).unwrap();
        // PCP must be preserved across the rewrite.
        assert_eq!(
            view.outer,
            Some(VlanTag {
                vid: 102,
                pcp: 3,
                dei: false
            })
        );
    }

    #[test]
    fn untagged_view() {
        let view = VlanView::parse(&untagged()).unwrap();
        assert_eq!(view.outer, None);
        assert_eq!(view.payload_offset, HEADER_LEN);
        assert_eq!(view.inner_ethertype, EtherType::IPV4);
    }

    #[test]
    fn triple_tag_rejected() {
        let t1 = push_vlan(&untagged(), VlanTag::new(1)).unwrap();
        let t2 = push_vlan(&t1, VlanTag::new(2)).unwrap();
        let t3 = push_vlan(&t2, VlanTag::new(3)).unwrap();
        assert_eq!(VlanView::parse(&t3).unwrap_err(), Error::Malformed);
    }
}
