//! One end of an OpenFlow control channel.
//!
//! Both ends of the channel — the switch's agent and the controller's
//! per-switch state — keep the same two pieces of connection state, and
//! [`Session`] is the only copy of either:
//!
//! * **Framing.** The transport hands over byte chunks that may split a
//!   message or coalesce several; [`Session::push`] takes each chunk and
//!   [`Session::next_frame`] hands out the frames it completes, one at a
//!   time, each a zero-copy slice of the chunk that holds it (a frame
//!   split across chunks is copied once, as it is completed). The caller
//!   decodes each — a switch reads a flow-mod where the frame holds it
//!   ([`crate::Message::decode_ref`]) — and acts on it, and on the
//!   session, before the next. [`Session::next_message`] is a frame and
//!   its owned decode, for a caller that keeps messages. A stream that
//!   stops decoding is dropped from the bad frame on: the messages
//!   before it are handed out, but after a framing error no later length
//!   field can be trusted, so a caller that cannot decode a frame drops
//!   the rest with [`Session::clear_input`].
//! * **Keepalive.** The xids of echo probes awaiting their reply, under
//!   four rules: a reply acknowledges its probe *and every older one*
//!   (it proves the channel is alive); a reply matching no outstanding
//!   probe is counted as stale and proves nothing; a reconnect forgets
//!   the outstanding probes, so stragglers from the old connection are
//!   stale too; and a peer that leaves `max_missed` probes unanswered is
//!   dead.
//!
//! Xids are the caller's: the switch numbers its own messages, the
//! controller shares one counter across all its switches. So are the
//! send path, the handshake and what to do about a dead peer.

use bytes::Bytes;

use crate::message::{frame_len, whole_frame_len, Message, Xid, HEADER_LEN};
use crate::{Error, Result};

/// Reassembly state and keepalive probe list of one channel endpoint;
/// the default has nothing buffered and nothing outstanding.
///
/// The bytes still to hand out are `tail` followed by `chunk[used..]`.
/// Frames are handed out as slices of the chunk the transport
/// delivered; only a message split across chunks is copied, into
/// `tail`, and only as far as its header says it reaches. A session that
/// has handed out every whole frame it was given keeps nothing of the
/// chunk, and its tail holds no more than a partial message.
#[derive(Debug, Default)]
pub struct Session {
    /// The head of the stream: bytes of earlier chunks not yet decoded.
    /// Empty (and unallocated) but while a message spans chunks.
    tail: Vec<u8>,
    /// The chunk being read; dropped once its last whole message is out.
    chunk: Bytes,
    /// Bytes at the front of `chunk` already handed out or moved to
    /// `tail`.
    used: usize,
    /// Probes sent and not yet acknowledged, oldest first.
    probes: Vec<Xid>,
    stale_replies: u64,
}

impl Session {
    /// Take a chunk of channel bytes; [`Self::next_message`] hands out
    /// the messages they complete.
    pub fn push(&mut self, data: Bytes) {
        // A chunk pushed before the last one was drained queues behind
        // its unread bytes.
        if let Some(unread) = self.chunk.get(self.used..).filter(|u| !u.is_empty()) {
            self.tail.extend_from_slice(unread);
        }
        self.chunk = data;
        self.used = 0;
    }

    /// The next complete frame of the bytes pushed so far, header
    /// included, or `None` when they hold no more: the bytes of an
    /// incomplete trailing message wait for the next push. A header
    /// whose length cannot hold the header is an error, never a wait,
    /// and everything buffered from it on is discarded.
    pub fn next_frame(&mut self) -> Option<Result<Bytes>> {
        // A message split across chunks is completed in the tail first;
        // the rest are sliced from the chunk that holds them.
        let in_tail = !self.tail.is_empty();
        if in_tail {
            self.fill_tail();
        }
        let rest = if in_tail {
            &self.tail[..]
        } else {
            self.chunk.get(self.used..).unwrap_or_default()
        };
        match whole_frame_len(rest) {
            Ok(len) if !in_tail => {
                let frame = self.chunk.slice(self.used..self.used + len);
                self.used += len;
                Some(Ok(frame))
            }
            Ok(len) if self.tail.len() > len => {
                let frame = Bytes::copy_from_slice(&self.tail[..len]);
                self.tail.drain(..len);
                Some(Ok(frame))
            }
            Ok(_) => Some(Ok(Bytes::from(std::mem::take(&mut self.tail)))),
            Err(Error::Truncated) => {
                // Nothing whole is left: keep the partial message, not
                // the chunk.
                if !in_tail {
                    self.tail = rest.to_vec();
                }
                self.chunk = Bytes::new();
                self.used = 0;
                None
            }
            Err(e) => {
                self.clear_input();
                Some(Err(e))
            }
        }
    }

    /// The next complete message of the bytes pushed so far, decoded and
    /// owned: [`Self::next_frame`] and [`Message::decode`]. A frame that
    /// does not decode is an error, and everything buffered behind it is
    /// discarded.
    pub fn next_message(&mut self) -> Option<Result<(Xid, Message)>> {
        let next = self.next_frame()?.and_then(|frame| {
            let (xid, msg, _) = Message::decode(&frame)?;
            Ok((xid, msg))
        });
        if next.is_err() {
            self.clear_input();
        }
        Some(next)
    }

    /// Move bytes from the chunk into the tail until the tail holds its
    /// first message whole, as far as the header's length says, or the
    /// chunk runs out.
    fn fill_tail(&mut self) {
        let mut want = HEADER_LEN;
        loop {
            let rest = self.chunk.get(self.used..).unwrap_or_default();
            let take = want.saturating_sub(self.tail.len()).min(rest.len());
            self.tail
                .extend_from_slice(rest.get(..take).unwrap_or_default());
            self.used += take;
            match frame_len(&self.tail) {
                Some(len) if len > want => want = len,
                _ => return,
            }
        }
    }

    /// Drop a half-received message: the transport under this session
    /// was torn down and whatever arrives next starts a new stream.
    pub fn clear_input(&mut self) {
        self.tail = Vec::new();
        self.chunk = Bytes::new();
        self.used = 0;
    }

    /// Bytes this session holds for the stream: the undecoded tail and
    /// the chunk it still references, whole.
    #[cfg(test)]
    pub(crate) fn buffered(&self) -> usize {
        self.tail.capacity() + self.chunk.len()
    }

    /// Build a keepalive probe under `xid` and track it until
    /// [`Self::ack`] sees the matching reply.
    pub fn probe(&mut self, xid: Xid) -> Bytes {
        self.probes.push(xid);
        Message::EchoRequest(Bytes::new()).encode(xid)
    }

    /// An echo reply arrived. If it answers an outstanding probe, that
    /// probe and all older ones stop counting against liveness;
    /// otherwise the reply is counted as stale.
    pub fn ack(&mut self, xid: Xid) {
        if self.probes.contains(&xid) {
            self.probes.retain(|&x| x > xid);
        } else {
            self.stale_replies += 1;
        }
    }

    /// Probes sent but not yet answered.
    pub fn outstanding(&self) -> usize {
        self.probes.len()
    }

    /// Echo replies that matched no outstanding probe.
    pub fn stale_replies(&self) -> u64 {
        self.stale_replies
    }

    /// True when `max_missed` probes sit unanswered: the peer is to be
    /// declared dead instead of probed again.
    pub fn peer_dead(&self, max_missed: usize) -> bool {
        self.probes.len() >= max_missed
    }

    /// The peer reconnected or was declared dead: forget the outstanding
    /// probes. Buffered input stays — a reconnect is seen in-stream (the
    /// peer's HELLO), and what follows it belongs to the new connection.
    pub fn reset(&mut self) {
        self.probes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OFP_VERSION;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    proptest! {
        /// Random probe / ack / reset histories against a set model: the
        /// outstanding probes, the stale count and the dead verdict for
        /// every threshold. Xids grow as a caller's counter does (by
        /// uneven steps: the counter is shared with other messages);
        /// acks name any xid — answered, outstanding, never sent.
        #[test]
        fn keepalive_agrees_with_set_model(
            ops in proptest::collection::vec((0u8..8, 0u32..40), 1..200),
        ) {
            let mut s = Session::default();
            let mut outstanding = BTreeSet::<Xid>::new();
            let (mut next, mut stale) = (0, 0);
            for (op, arg) in ops {
                match op {
                    0..=2 => {
                        next += 1 + arg % 3;
                        let wire = s.probe(next);
                        let (xid, msg, _) = Message::decode(&wire).unwrap();
                        prop_assert_eq!((xid, msg), (next, Message::EchoRequest(Bytes::new())));
                        outstanding.insert(next);
                    }
                    3..=6 => {
                        let xid = (next + 3).saturating_sub(arg);
                        if outstanding.contains(&xid) {
                            outstanding = outstanding.split_off(&(xid + 1));
                        } else {
                            stale += 1;
                        }
                        s.ack(xid);
                    }
                    _ => {
                        s.reset();
                        outstanding.clear();
                    }
                }
                prop_assert_eq!(s.outstanding(), outstanding.len());
                prop_assert_eq!(s.stale_replies(), stale);
                for max_missed in 1..6 {
                    prop_assert_eq!(s.peer_dead(max_missed), outstanding.len() >= max_missed);
                }
            }
        }
    }

    /// Push `data` and drain what it completes.
    fn feed(s: &mut Session, data: &[u8]) -> Vec<Result<(Xid, Message)>> {
        s.push(Bytes::copy_from_slice(data));
        std::iter::from_fn(|| s.next_message()).collect()
    }

    /// A frame whose header says it is complete (length 18) but whose
    /// body holds 10 of the 24 bytes a `FEATURES_REPLY` needs is an
    /// error, never a wait: waiting would hold up every later message
    /// until keepalive declared the peer dead.
    #[test]
    fn a_complete_frame_with_a_short_body_is_an_error_not_a_wait() {
        let mut short = Message::FeaturesReply {
            datapath_id: 1,
            n_buffers: 0,
            n_tables: 4,
            capabilities: 0,
        }
        .encode(7)
        .to_vec();
        short.truncate(18);
        short[2..4].copy_from_slice(&18u16.to_be_bytes());
        short.extend_from_slice(&Message::Hello.encode(8));

        let mut s = Session::default();
        let got = feed(&mut s, &short);
        assert!(matches!(got[..], [Err(Error::Malformed(_))]), "{got:?}");
        let echo = Message::EchoRequest(Bytes::new()).encode(9);
        assert_eq!(
            feed(&mut s, &echo),
            vec![Ok((9, Message::EchoRequest(Bytes::new())))],
            "the session dropped the bad frame and reads on"
        );
    }

    #[test]
    fn garbage_and_teardown_leave_nothing_to_misframe_the_next_message() {
        let mut s = Session::default();
        let echo = Message::EchoRequest(Bytes::from_static(b"abc")).encode(9);
        let mut bad = echo.to_vec();
        bad[0] = 0x09; // not OpenFlow 1.3
        assert_eq!(feed(&mut s, &bad), vec![Err(Error::BadVersion(9))]);
        assert_eq!(feed(&mut s, &echo).len(), 1);
        // Half a message waits for its other half, unless the transport
        // goes away in between.
        assert_eq!(feed(&mut s, &echo[..5]), vec![]);
        s.clear_input();
        assert_eq!(feed(&mut s, &echo).len(), 1);
    }

    #[test]
    fn stream_decoding_handles_coalescing_and_splits() {
        let m1 = Message::Hello.encode(1);
        let m2 = Message::EchoRequest(Bytes::from_static(b"x")).encode(2);
        let m3 = Message::BarrierRequest.encode(3);
        let mut s = Session::default();
        let stream = [&m1[..], &m2[..], &m3[..4]].concat(); // partial third message
        let msgs = feed(&mut s, &stream);
        assert_eq!(msgs.len(), 2);
        assert_eq!(msgs[0], Ok((1, Message::Hello)));
        assert_eq!(s.buffered(), 4, "only the partial message stays");
        assert_eq!(
            feed(&mut s, &m3[4..]),
            vec![Ok((3, Message::BarrierRequest))]
        );
        assert_eq!(s.buffered(), 0);
    }

    /// The messages ahead of a bad frame in a chunk are handed out before
    /// its error, whatever chunk they came in; what follows the bad frame
    /// is dropped with it.
    #[test]
    fn a_bad_frame_drains_the_messages_before_it() {
        let stream = [
            &Message::Hello.encode(1)[..],
            &[OFP_VERSION, 0, 0, 4, 0, 0, 0, 0], // length below 8
            &Message::Hello.encode(2),
        ]
        .concat();
        let mut s = Session::default();
        let got = feed(&mut s, &stream);
        assert!(
            matches!(got[..], [Ok((1, Message::Hello)), Err(Error::Malformed(_))]),
            "{got:?}"
        );
        assert_eq!(s.buffered(), 0, "the bad frame and what follows go");
    }

    /// Messages are decoded where the chunk lies: once its last whole
    /// message is out the session lets go of it, and a message split
    /// across chunks is the only thing it copies — as far as its header
    /// says it reaches, whatever follows it in the next chunk.
    #[test]
    fn a_drained_session_holds_no_bytes() {
        let flow_mod = |xid| {
            let fm = crate::message::FlowMod::add(0)
                .priority(7)
                .match_(crate::Match::new().eth_type(0x0800))
                .apply(vec![crate::Action::output(2)]);
            Message::FlowMod(fm).encode(xid)
        };
        let chunk: Vec<u8> = (0..64).flat_map(|x| flow_mod(x).to_vec()).collect();
        let mut s = Session::default();
        assert_eq!(feed(&mut s, &chunk).len(), 64);
        assert_eq!(s.buffered(), 0, "a drained chunk is released");

        let one = flow_mod(64);
        let cut = one.len() - 3;
        let next = [&one[cut..], &chunk[..]].concat();
        assert_eq!(feed(&mut s, &one[..cut]), vec![]);
        assert_eq!(s.buffered(), cut, "the split message's head, copied once");
        s.push(Bytes::from(next));
        assert!(matches!(s.next_message(), Some(Ok((64, _)))));
        assert_eq!(s.tail.capacity(), 0, "its tail is released when it decodes");
        assert_eq!(std::iter::from_fn(|| s.next_message()).count(), 64);
        assert_eq!(s.buffered(), 0);
    }
}
