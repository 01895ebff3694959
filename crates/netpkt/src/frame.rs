//! The Ethernet II header and the 802.1Q tags behind its addresses.

use crate::vlan::TAG_LEN;
use crate::wire::{Cursor, CursorMut};
use crate::{Error, EtherType, MacAddr, Result, VlanTag};

/// Length of an untagged Ethernet II header (dst + src + ethertype).
pub const HEADER_LEN: usize = 14;
/// Minimum frame length excluding FCS: the header and 46 bytes of
/// payload, to which shorter frames are padded.
pub const MIN_FRAME_LEN: usize = 60;

/// The link layer of a frame: its addresses, up to two VLAN tags, and
/// the EtherType behind them.
///
/// A frame here does **not** include the 4-byte FCS; like most software
/// dataplanes we assume the NIC strips/appends it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Destination address.
    pub dst: MacAddr,
    /// Source address.
    pub src: MacAddr,
    /// Outermost tag, if any.
    pub outer: Option<VlanTag>,
    /// Second tag of a QinQ frame.
    pub inner: Option<VlanTag>,
    /// EtherType of the payload, behind all tags.
    pub ethertype: EtherType,
}

impl Header {
    /// An untagged header.
    pub const fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> Header {
        Header {
            dst,
            src,
            outer: None,
            inner: None,
            ethertype,
        }
    }

    /// Read the addresses and the tag stack. A third tag is
    /// [`Error::Malformed`]: more than two is outside any profile we
    /// model.
    #[inline(always)]
    pub fn parse(c: &mut &[u8]) -> Result<Header> {
        let mut h = c.take(HEADER_LEN)?;
        let [d0, d1, d2, d3, d4, d5, s0, s1, s2, s3, s4, s5] = h.array()?;
        let (dst, src) = (
            MacAddr([d0, d1, d2, d3, d4, d5]),
            MacAddr([s0, s1, s2, s3, s4, s5]),
        );
        let mut ethertype = EtherType(h.u16()?);
        let outer = tci(c, &mut ethertype)?;
        let inner = tci(c, &mut ethertype)?;
        if ethertype.is_vlan() {
            return Err(Error::Malformed);
        }
        Ok(Header {
            dst,
            src,
            outer: outer.map(VlanTag::from_tci),
            inner: inner.map(VlanTag::from_tci),
            ethertype,
        })
    }

    /// Bytes [`parse`](Header::parse) reads and [`write`](Header::write)
    /// writes: 14, and 4 per tag.
    pub fn header_len(&self) -> usize {
        HEADER_LEN
            + TAG_LEN * (usize::from(self.outer.is_some()) + usize::from(self.inner.is_some()))
    }

    /// Write the header, each tag as an 802.1Q C-tag (TPID 0x8100).
    #[inline]
    pub fn write(&self, out: &mut &mut [u8]) -> Result<()> {
        out.put(&self.dst.octets())?;
        out.put(&self.src.octets())?;
        for tag in [self.outer, self.inner].into_iter().flatten() {
            out.put_u16(EtherType::VLAN.0)?;
            out.put_u16(tag.to_tci())?;
        }
        out.put_u16(self.ethertype.0)
    }
}

/// The TCI of the tag `ethertype` announces, if it announces one;
/// `ethertype` becomes the EtherType behind it.
#[inline(always)]
fn tci(c: &mut &[u8], ethertype: &mut EtherType) -> Result<Option<u16>> {
    if !ethertype.is_vlan() {
        return Ok(None);
    }
    let tci = c.u16()?;
    *ethertype = EtherType(c.u16()?);
    Ok(Some(tci))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut f = vec![0u8; HEADER_LEN + 4];
        f[0..6].copy_from_slice(&[0xff; 6]);
        f[6..12].copy_from_slice(&[2, 0, 0, 0, 0, 1]);
        f[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
        f[14..].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        f
    }

    #[test]
    fn parse_fields() {
        let frame = sample();
        let mut c = &frame[..];
        let eth = Header::parse(&mut c).unwrap();
        assert_eq!(eth.dst, MacAddr::BROADCAST);
        assert_eq!(eth.src, MacAddr::host(1));
        assert_eq!(eth.ethertype, EtherType::IPV4);
        assert_eq!((eth.outer, eth.inner), (None, None));
        assert_eq!(
            c,
            &[0xde, 0xad, 0xbe, 0xef],
            "the cursor stops at the payload"
        );
    }

    #[test]
    fn checked_rejects_short_buffers() {
        assert_eq!(
            Header::parse(&mut &[0u8; 13][..]).unwrap_err(),
            Error::Truncated
        );
        assert!(Header::parse(&mut &[0u8; 14][..]).is_ok());
        // A tag needs its TCI and the EtherType behind it.
        let mut tagged = sample();
        tagged[12..14].copy_from_slice(&0x8100u16.to_be_bytes());
        assert_eq!(
            Header::parse(&mut &tagged[..17]).unwrap_err(),
            Error::Truncated
        );
        assert!(Header::parse(&mut &tagged[..18]).is_ok());
    }

    #[test]
    fn mutators_round_trip() {
        // A rewrite is a parse, a change and a write over the same bytes.
        let mut frame = sample();
        let mut eth = Header::parse(&mut &frame[..]).unwrap();
        eth.dst = MacAddr::host(9);
        eth.src = MacAddr::host(8);
        eth.ethertype = EtherType::ARP;
        eth.write(&mut &mut frame[..]).unwrap();
        assert_eq!(Header::parse(&mut &frame[..]).unwrap(), eth);
        assert_eq!(&frame[14..], &[0xde, 0xad, 0xbe, 0xef], "payload untouched");
    }

    #[test]
    fn repr_emit_parse_round_trip() {
        let header = Header {
            outer: Some(VlanTag::new(7)),
            inner: Some(VlanTag::from_tci(0xb065)),
            ..Header::new(MacAddr::host(3), MacAddr::host(4), EtherType::IPV6)
        };
        let mut buf = [0u8; HEADER_LEN + 2 * TAG_LEN];
        header.write(&mut &mut buf[..]).unwrap();
        assert_eq!(header.header_len(), buf.len());
        assert_eq!(Header::parse(&mut &buf[..]).unwrap(), header);
        assert_eq!(
            header.write(&mut &mut buf[..HEADER_LEN]),
            Err(Error::Truncated),
            "a write checks its room"
        );
    }
}
