//! Copy-on-write frame buffer for the switch hot path.
//!
//! A [`FrameBuf`] is one refcounted [`Bytes`] handle plus the rule for
//! rewriting it. Cloning, slicing and emitting are refcount bumps, so
//! pure-forward and flood paths never touch the allocator. A rewrite
//! asks the storage who else is looking:
//!
//! * **nobody** (this handle is provably the only one, see
//!   `Bytes::unique_mut`) — the bytes are rewritten where they lie. A
//!   VLAN pop moves the 12 address bytes up over the tag and advances
//!   the view's start; a push moves them back down into the room a pop
//!   (or any `advance`) left in front of the view. Neither touches the
//!   payload, so a tag costs the same at 60 B and at 1514 B.
//! * **somebody** (a clone, a slice or an emitted snapshot is alive, the
//!   storage is static, or a push finds no room in front) — exactly one
//!   buffer is allocated, sized for the result, with the edit fused
//!   into the copy. The fresh buffer has one handle, so whatever
//!   rewrites follow are in place again.
//!
//! No holder of another handle can therefore observe a rewrite, and a
//! frame that nobody else holds is never copied. Emitting calls
//! [`snapshot`]: a clone, which by the same rule makes the next rewrite
//! copy for as long as the emitted frame lives. Parsing stays zero-copy
//! throughout: every parser in this crate reads a `&[u8]` cursor, so
//! `Layers::parse(&buf)` reads straight out of the shared storage.
//!
//! [`push_vlan`](FrameBuf::push_vlan) and [`pop_vlan`](FrameBuf::pop_vlan)
//! (and the copying forms `vlan::push_vlan` / `vlan::pop_vlan` build on
//! the same two routines) are the only code in the workspace that moves
//! a frame's address bytes around a tag.
//!
//! [`snapshot`]: FrameBuf::snapshot

use bytes::{Buf, Bytes, BytesMut};
use std::fmt;
use std::ops::Deref;

use crate::frame::HEADER_LEN;
use crate::vlan::TAG_LEN;
use crate::wire::Cursor;
use crate::{Error, EtherType, Result};

/// Destination and source MAC: what a tag operation moves.
const ADDRS_LEN: usize = 12;

/// A frame that is cheap to share and pays for mutation only when
/// somebody else holds it too. See the [module docs](self).
pub struct FrameBuf {
    frame: Bytes,
}

/// `frame` with a tag inserted after the addresses, as one fresh buffer.
pub(crate) fn copy_tagged(frame: &[u8], tpid: u16, tci: u16) -> Result<Bytes> {
    let (addrs, rest) = split_addrs(frame)?;
    Ok(joined(addrs, &tag_bytes(tpid, tci), rest))
}

/// `frame` without its outermost tag, as one fresh buffer.
pub(crate) fn copy_untagged(frame: &[u8]) -> Result<Bytes> {
    let (addrs, rest) = split_tagged(frame)?;
    Ok(joined(addrs, &[], rest))
}

/// `addrs`, `tag` and `rest` in one fresh buffer, sized for them.
fn joined(addrs: &[u8], tag: &[u8], rest: &[u8]) -> Bytes {
    let mut out = BytesMut::with_capacity(addrs.len() + tag.len() + rest.len());
    out.extend_from_slice(addrs);
    out.extend_from_slice(tag);
    out.extend_from_slice(rest);
    out.freeze()
}

/// A tag's four bytes: TPID, then TCI.
fn tag_bytes(tpid: u16, tci: u16) -> [u8; TAG_LEN] {
    let ([a, b], [c, d]) = (tpid.to_be_bytes(), tci.to_be_bytes());
    [a, b, c, d]
}

/// The addresses of `frame` and what follows them; [`Error::Truncated`]
/// if it is shorter than an Ethernet header.
fn split_addrs(frame: &[u8]) -> Result<(&[u8], &[u8])> {
    if frame.len() < HEADER_LEN {
        return Err(Error::Truncated);
    }
    let mut rest = frame;
    Ok((rest.take(ADDRS_LEN)?, rest))
}

/// The addresses of `frame` and what follows its outermost tag;
/// [`Error::Truncated`] if it cannot hold a tag, [`Error::Malformed`] if
/// it carries none.
fn split_tagged(frame: &[u8]) -> Result<(&[u8], &[u8])> {
    if frame.len() < HEADER_LEN + TAG_LEN {
        return Err(Error::Truncated);
    }
    let mut rest = frame;
    let addrs = rest.take(ADDRS_LEN)?;
    if !EtherType(rest.u16()?).is_vlan() {
        return Err(Error::Malformed);
    }
    rest.skip(2)?; // the TCI
    Ok((addrs, rest))
}

impl FrameBuf {
    /// Wraps a refcounted frame; no copy.
    #[inline]
    pub fn from_bytes(frame: Bytes) -> FrameBuf {
        FrameBuf { frame }
    }

    /// The frame contents.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.frame
    }

    /// Mutable access for an action that rewrites bytes without moving
    /// them (set-field, TTL, NAT). Copies the frame first — once — if
    /// any other handle to its storage is alive.
    pub fn make_mut(&mut self) -> &mut [u8] {
        // Asked here and again by `unique_mut`: returning that borrow
        // from one arm and replacing the frame in the other does not
        // pass the borrow checker. This one is a single atomic load.
        if !self.frame.is_unique() {
            self.frame = Bytes::copy_from_slice(&self.frame);
        }
        self.frame
            .unique_mut(0)
            .expect("the only handle to heap storage")
    }

    /// Insert an 802.1Q tag directly after the source MAC (outermost, if
    /// the frame is tagged already). A frame shorter than an Ethernet
    /// header is left as it is ([`Error::Truncated`]).
    pub fn push_vlan(&mut self, tpid: u16, tci: u16) -> Result<()> {
        split_addrs(&self.frame)?;
        match self.frame.unique_mut(TAG_LEN) {
            Some(f) => {
                f.copy_within(TAG_LEN..TAG_LEN + ADDRS_LEN, 0);
                if let Some(tag) = f.get_mut(ADDRS_LEN..ADDRS_LEN + TAG_LEN) {
                    tag.copy_from_slice(&tag_bytes(tpid, tci));
                }
            }
            None => self.frame = copy_tagged(&self.frame, tpid, tci)?,
        }
        Ok(())
    }

    /// Remove the outermost 802.1Q tag. A frame too short to hold one
    /// ([`Error::Truncated`]) or carrying none ([`Error::Malformed`]) is
    /// left as it is.
    pub fn pop_vlan(&mut self) -> Result<()> {
        split_tagged(&self.frame)?;
        match self.frame.unique_mut(0) {
            Some(f) => {
                f.copy_within(..ADDRS_LEN, TAG_LEN);
                self.frame.advance(TAG_LEN);
            }
            None => self.frame = copy_untagged(&self.frame)?,
        }
        Ok(())
    }

    /// An immutable handle to the current contents, for emitting to a
    /// port or the controller: a refcount clone. While it lives, a
    /// rewrite of this buffer copies rather than alias what was emitted.
    #[inline]
    pub fn snapshot(&self) -> Bytes {
        self.frame.clone()
    }

    /// Consumes the buffer, yielding the frame; never copies.
    #[inline]
    pub fn into_bytes(self) -> Bytes {
        self.frame
    }
}

impl Deref for FrameBuf {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Bytes> for FrameBuf {
    fn from(b: Bytes) -> FrameBuf {
        FrameBuf::from_bytes(b)
    }
}

impl fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameBuf")
            .field("len", &self.len())
            .field("unique", &self.frame.is_unique())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlan::{outer_tag, VlanTag};
    use crate::MacAddr;

    // Zero-copy properties are asserted by storage-pointer identity
    // (thread-safe) here; exact allocation *counts* live in the serial
    // `alloc_regression` integration suite, because `buffer_allocs()`
    // is process-global and other unit tests bump it concurrently.

    #[test]
    fn shared_snapshots_are_refcount_clones() {
        let frame = Bytes::from(vec![0xabu8; 1500]);
        let ptr = frame.as_slice().as_ptr();
        let buf = FrameBuf::from_bytes(frame);
        for _ in 0..32 {
            let out = buf.snapshot();
            assert_eq!(out.as_slice().as_ptr(), ptr, "must share storage");
        }
    }

    #[test]
    fn first_mutation_copies_once_then_is_free() {
        let frame = Bytes::from(vec![1u8, 2, 3, 4]);
        let original = frame.clone();
        let original_ptr = original.as_slice().as_ptr();
        let mut buf = FrameBuf::from_bytes(frame);
        buf.make_mut()[0] = 0xff;
        let owned_ptr = buf.as_slice().as_ptr();
        assert_ne!(owned_ptr, original_ptr, "first mutation must copy");
        buf.make_mut()[1] = 0xee;
        assert_eq!(
            buf.as_slice().as_ptr(),
            owned_ptr,
            "second mutation must reuse the private copy"
        );
        // The shared original is untouched.
        assert_eq!(&original[..], &[1, 2, 3, 4]);
        assert_eq!(&buf[..], &[0xff, 0xee, 3, 4]);
    }

    #[test]
    fn snapshot_after_rewrite_freezes_without_copy() {
        let mut buf = FrameBuf::from_bytes(Bytes::from(vec![0u8; 64]));
        let ptr = buf.as_slice().as_ptr();
        buf.make_mut()[0] = 7;
        assert_eq!(buf.as_slice().as_ptr(), ptr, "sole owner: in place");
        let a = buf.snapshot();
        let b = buf.snapshot();
        assert_eq!(a.as_slice().as_ptr(), ptr, "emitting must not copy");
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(a[0], 7);
    }

    #[test]
    fn rewrite_after_snapshot_does_not_alias_emitted_frame() {
        let mut buf = FrameBuf::from_bytes(Bytes::from(vec![0u8; 8]));
        buf.make_mut()[0] = 1;
        let emitted = buf.snapshot();
        buf.make_mut()[0] = 2; // CoW again: emitted copy must not change
        assert_eq!(emitted[0], 1);
        assert_eq!(buf[0], 2);
        // Once the emitted frame is gone, rewriting is in place again.
        drop(emitted);
        let ptr = buf.as_slice().as_ptr();
        buf.make_mut()[0] = 3;
        assert_eq!(buf.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn views_parse_straight_from_shared_storage() {
        let frame = crate::builder::udp_packet(
            crate::MacAddr::host(1),
            crate::MacAddr::host(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            5000,
            53,
            b"payload",
        );
        let buf = FrameBuf::from_bytes(frame);
        let walk = crate::layers::Layers::parse(&buf).unwrap();
        assert_eq!(walk.eth.dst, crate::MacAddr::host(2));
        assert_eq!(
            walk.ipv4().unwrap().l4.as_ptr_range(),
            buf[34..].as_ptr_range()
        );
        let key = crate::FlowKey::extract(1, &buf).unwrap();
        assert_eq!(key.udp_dst, 53);
    }

    const TCI: u16 = 0xb065; // PCP 5, DEI set, VID 101

    /// `dst | src | 0x8100 | TCI | 0x0800 | payload`, in storage of its own.
    fn tagged(payload: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&MacAddr::host(2).octets());
        f.extend_from_slice(&MacAddr::host(1).octets());
        f.extend_from_slice(&[0x81, 0x00]);
        f.extend_from_slice(&TCI.to_be_bytes());
        f.extend_from_slice(&[0x08, 0x00]);
        f.extend_from_slice(payload);
        f
    }

    fn untagged(payload: &[u8]) -> Vec<u8> {
        let mut f = tagged(payload);
        f.drain(12..16);
        f
    }

    #[test]
    fn unique_pop_then_push_stay_in_the_storage() {
        let wire = tagged(b"payload");
        let mut buf = FrameBuf::from_bytes(Bytes::from(wire.clone()));
        let ptr = buf.as_slice().as_ptr();

        buf.pop_vlan().unwrap();
        assert_eq!(
            buf.as_slice().as_ptr(),
            ptr.wrapping_add(TAG_LEN),
            "pop keeps the storage and advances the view"
        );
        assert_eq!(&buf[..], &untagged(b"payload")[..]);

        buf.push_vlan(0x8100, TCI).unwrap();
        assert_eq!(buf.as_slice().as_ptr(), ptr, "push returns to the room");
        assert_eq!(&buf[..], &wire[..], "addresses, PCP/DEI and payload intact");
        assert_eq!(outer_tag(&buf), Some(VlanTag::from_tci(TCI)));
    }

    #[test]
    fn shared_pop_and_push_copy_once_and_leave_the_original() {
        let wire = tagged(b"payload");
        let held = Bytes::from(wire.clone());

        let mut buf = FrameBuf::from_bytes(held.clone());
        buf.pop_vlan().unwrap();
        let popped_ptr = buf.as_slice().as_ptr();
        assert!(
            !held.as_slice().as_ptr_range().contains(&popped_ptr),
            "a held frame is popped into a buffer of its own"
        );
        assert_eq!(&held[..], &wire[..]);
        assert_eq!(&buf[..], &untagged(b"payload")[..]);
        // The copy has one handle: what follows is in place.
        buf.make_mut()[0] ^= 1;
        assert_eq!(buf.as_slice().as_ptr(), popped_ptr);

        let bare = Bytes::from(untagged(b"payload"));
        let mut buf = FrameBuf::from_bytes(bare.clone());
        buf.push_vlan(0x8100, TCI).unwrap();
        assert!(!bare
            .as_slice()
            .as_ptr_range()
            .contains(&buf.as_slice().as_ptr()));
        assert_eq!(&bare[..], &untagged(b"payload")[..]);
        assert_eq!(&buf[..], &wire[..]);
        // Sized for the result: the tag back off and on fits in place.
        let ptr = buf.as_slice().as_ptr();
        buf.pop_vlan().unwrap();
        buf.push_vlan(0x8100, TCI).unwrap();
        assert_eq!(buf.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn an_emitted_snapshot_never_sees_a_later_tag_operation() {
        let wire = tagged(b"payload");
        let mut buf = FrameBuf::from_bytes(Bytes::from(wire.clone()));
        buf.pop_vlan().unwrap();
        let emitted = buf.snapshot();
        let slice = emitted.slice(12..);
        buf.push_vlan(0x88a8, 7).unwrap();
        buf.make_mut()[0] = 0xff;
        assert_eq!(&emitted[..], &untagged(b"payload")[..]);
        assert_eq!(&slice[..], &untagged(b"payload")[12..]);
    }

    #[test]
    fn qinq_push_without_front_room_copies_once() {
        let wire = tagged(b"payload");
        let mut buf = FrameBuf::from_bytes(Bytes::from(wire.clone()));
        let ptr = buf.as_slice().as_ptr();
        buf.push_vlan(0x88a8, 200).unwrap();
        assert_ne!(
            buf.as_slice().as_ptr(),
            ptr,
            "nowhere to move the addresses"
        );
        let eth = crate::frame::Header::parse(&mut &buf[..]).unwrap();
        assert_eq!(eth.outer, Some(VlanTag::new(200)));
        assert_eq!(eth.inner, Some(VlanTag::from_tci(TCI)));
        assert_eq!(&buf[16..], &wire[12..]);
        // Popping the S-tag again is in place, as is re-pushing it.
        let ptr = buf.as_slice().as_ptr();
        buf.pop_vlan().unwrap();
        assert_eq!(&buf[..], &wire[..]);
        buf.push_vlan(0x88a8, 200).unwrap();
        assert_eq!(buf.as_slice().as_ptr(), ptr);
    }

    #[test]
    fn static_storage_is_never_mutated() {
        static WIRE: [u8; 20] = [
            2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 1, 0x81, 0x00, 0x00, 0x65, 0x08, 0x00, 0xaa, 0xbb,
        ];
        let range = WIRE.as_ptr_range();
        let mut buf = FrameBuf::from_bytes(Bytes::from_static(&WIRE));
        buf.pop_vlan().unwrap();
        assert!(!range.contains(&buf.as_slice().as_ptr()));
        let mut buf = FrameBuf::from_bytes(Bytes::from_static(&WIRE));
        buf.push_vlan(0x8100, 1).unwrap();
        assert!(!range.contains(&buf.as_slice().as_ptr()));
        let mut buf = FrameBuf::from_bytes(Bytes::from_static(&WIRE));
        buf.make_mut()[0] = 0xff;
        assert!(!range.contains(&buf.as_slice().as_ptr()));
        assert_eq!(WIRE[0], 2);
    }

    #[test]
    fn tag_operations_refuse_what_they_cannot_edit() {
        for len in 0..HEADER_LEN + TAG_LEN {
            let wire = tagged(b"")[..len].to_vec();
            for unique in [true, false] {
                let frame = Bytes::from(wire.clone());
                let held = (!unique).then(|| frame.clone());
                let mut buf = FrameBuf::from_bytes(frame);
                assert_eq!(buf.pop_vlan(), Err(Error::Truncated), "pop at {len}");
                assert_eq!(&buf[..], &wire[..]);
                let pushed = buf.push_vlan(0x8100, 5);
                if len < HEADER_LEN {
                    assert_eq!(pushed, Err(Error::Truncated), "push at {len}");
                    assert_eq!(&buf[..], &wire[..]);
                } else {
                    assert_eq!(pushed, Ok(()));
                    assert_eq!(buf.len(), len + TAG_LEN);
                }
                drop(held);
            }
        }
        let mut buf = FrameBuf::from_bytes(Bytes::from(untagged(b"payload")));
        assert_eq!(buf.pop_vlan(), Err(Error::Malformed));
        assert_eq!(&buf[..], &untagged(b"payload")[..]);
    }
}
