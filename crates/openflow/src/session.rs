//! One end of an OpenFlow control channel.
//!
//! Both ends of the channel — the switch's agent and the controller's
//! per-switch state — keep the same two pieces of connection state, and
//! [`Session`] is the only copy of either:
//!
//! * **Framing.** The transport hands over byte chunks that may split a
//!   message or coalesce several; [`Session::feed`] reassembles them. A
//!   stream that stops decoding is dropped whole: after a framing error
//!   no later length field can be trusted.
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

use bytes::{Bytes, BytesMut};

use crate::message::{decode_stream, Message, Xid};
use crate::Result;

/// Reassembly buffer and keepalive probe list of one channel endpoint;
/// the default has nothing buffered and nothing outstanding.
#[derive(Debug, Default)]
pub struct Session {
    rx: BytesMut,
    /// Probes sent and not yet acknowledged, oldest first.
    probes: Vec<Xid>,
    stale_replies: u64,
}

impl Session {
    /// Append channel bytes and drain every complete message; the bytes
    /// of an incomplete trailing message wait for the next call. On an
    /// undecodable stream everything buffered is discarded.
    pub fn feed(&mut self, data: &[u8]) -> Result<Vec<(Xid, Message)>> {
        self.rx.extend_from_slice(data);
        let msgs = decode_stream(&mut self.rx);
        if msgs.is_err() {
            self.rx.clear();
        }
        msgs
    }

    /// Drop a half-received message: the transport under this session
    /// was torn down and whatever arrives next starts a new stream.
    pub fn clear_input(&mut self) {
        self.rx.clear();
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
        let mut stream = BytesMut::from(&short[..]);
        stream.extend_from_slice(&Message::Hello.encode(8));
        assert!(matches!(
            decode_stream(&mut stream),
            Err(crate::Error::Malformed(_))
        ));

        let mut s = Session::default();
        assert!(s.feed(&stream).is_err());
        let echo = Message::EchoRequest(Bytes::new()).encode(9);
        assert_eq!(
            s.feed(&echo).unwrap(),
            vec![(9, Message::EchoRequest(Bytes::new()))],
            "the session dropped the bad frame and reads on"
        );
    }

    #[test]
    fn garbage_and_teardown_leave_nothing_to_misframe_the_next_message() {
        let mut s = Session::default();
        let echo = Message::EchoRequest(Bytes::from_static(b"abc")).encode(9);
        let mut bad = echo.to_vec();
        bad[0] = 0x09; // not OpenFlow 1.3
        assert!(s.feed(&bad).is_err());
        assert_eq!(s.feed(&echo).unwrap().len(), 1);
        // Half a message waits for its other half, unless the transport
        // goes away in between.
        assert_eq!(s.feed(&echo[..5]).unwrap(), vec![]);
        s.clear_input();
        assert_eq!(s.feed(&echo).unwrap().len(), 1);
    }
}
