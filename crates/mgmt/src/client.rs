//! Manager-side SNMP: request construction, response correlation, and a
//! subtree walker. Transport-agnostic — callers move the produced bytes
//! over whatever channel they have (the simulator's control plane here).

use bytes::Bytes;

use crate::oid::Oid;
use crate::pdu::{MessageParts, MessageRef, PduType, Value, VarBindWriter};
use crate::{Error, Result};

/// Builds requests and correlates responses by request id.
#[derive(Debug)]
pub struct SnmpClient {
    community: String,
    next_request_id: i64,
    pending: Option<i64>,
    ops_sent: u64,
}

impl SnmpClient {
    /// A client using `community` for every request.
    pub fn new(community: impl Into<String>) -> SnmpClient {
        SnmpClient {
            community: community.into(),
            next_request_id: 1,
            pending: None,
            ops_sent: 0,
        }
    }

    /// Total requests issued (the migration experiment's op counter).
    pub fn ops_sent(&self) -> u64 {
        self.ops_sent
    }

    /// True if a request is outstanding.
    pub fn in_flight(&self) -> bool {
        self.pending.is_some()
    }

    fn issue(&mut self, ty: PduType, bindings: impl FnOnce(&mut VarBindWriter<'_>)) -> Bytes {
        let id = self.next_request_id;
        self.next_request_id += 1;
        self.pending = Some(id);
        self.ops_sent += 1;
        MessageParts::request(&self.community, ty, id).encode(bindings)
    }

    /// Encode a Get for one or more instances.
    pub fn get(&mut self, oids: &[Oid]) -> Bytes {
        self.issue(PduType::Get, |list| {
            for oid in oids {
                list.put(oid, &Value::Null);
            }
        })
    }

    /// Encode a GetNext for one instance.
    pub fn get_next(&mut self, oid: &Oid) -> Bytes {
        self.issue(PduType::GetNext, |list| list.put(oid, &Value::Null))
    }

    /// Encode a Set of the given bindings.
    pub fn set(&mut self, bindings: &[(Oid, Value)]) -> Bytes {
        self.issue(PduType::Set, |list| {
            for (oid, value) in bindings {
                list.put(oid, value);
            }
        })
    }

    /// Feed received bytes; returns the response, read where it lies, if
    /// it answers the outstanding request (stale/foreign responses yield
    /// `Ok(None)`).
    pub fn accept<'a>(&mut self, data: &'a [u8]) -> Result<Option<MessageRef<'a>>> {
        let msg = MessageRef::decode(data)?;
        if msg.ty != PduType::Response {
            return Err(Error::Malformed("expected a Response PDU"));
        }
        match self.pending {
            Some(id) if id == msg.request_id => {
                self.pending = None;
                Ok(Some(msg))
            }
            _ => Ok(None),
        }
    }
}

/// Progress of a subtree walk.
#[derive(Debug, PartialEq)]
pub enum WalkStep {
    /// One instance inside the subtree; keep feeding responses.
    Item(Oid, Value),
    /// Walk left the subtree (or hit EndOfMibView); stop.
    Done,
}

/// Drives GetNext over a subtree. Usage:
///
/// ```text
/// let mut w = Walker::new(root);
/// send(w.first_request(&mut client));
/// on response r:
///     match w.accept(&mut client, &r) {
///         (WalkStep::Item(oid, v), Some(next)) => { record; send(next) }
///         (WalkStep::Done, _) => finished,
///     }
/// ```
#[derive(Debug)]
pub struct Walker {
    root: Oid,
    cursor: Oid,
}

impl Walker {
    /// Walk the subtree rooted at `root`.
    pub fn new(root: Oid) -> Walker {
        Walker {
            cursor: root.clone(),
            root,
        }
    }

    /// The opening GetNext.
    pub fn first_request(&mut self, client: &mut SnmpClient) -> Bytes {
        client.get_next(&self.cursor)
    }

    /// Consume a response; returns the step and, when continuing, the
    /// next request to send.
    pub fn accept(
        &mut self,
        client: &mut SnmpClient,
        response: &MessageRef<'_>,
    ) -> (WalkStep, Option<Bytes>) {
        let Some((oid, value)) = response.bindings.first().map(|vb| vb.to_owned()) else {
            return (WalkStep::Done, None);
        };
        if value == Value::EndOfMibView || !self.root.contains(&oid) || oid <= self.cursor {
            return (WalkStep::Done, None);
        }
        self.cursor = oid.clone();
        let next = client.get_next(&self.cursor);
        (WalkStep::Item(oid, value), Some(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{agent_respond, MemoryMib, MibStore};

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    fn agent() -> MemoryMib {
        let mut m = MemoryMib::new();
        m.insert(
            oid("1.3.6.1.2.1.1.1.0"),
            Value::OctetString(b"dev".to_vec()),
        );
        m.insert(
            oid("1.3.6.1.2.1.2.2.1.2.1"),
            Value::OctetString(b"p1".to_vec()),
        );
        m.insert(
            oid("1.3.6.1.2.1.2.2.1.2.2"),
            Value::OctetString(b"p2".to_vec()),
        );
        m.insert(
            oid("1.3.6.1.2.1.2.2.1.2.3"),
            Value::OctetString(b"p3".to_vec()),
        );
        m.insert(oid("1.3.6.1.2.1.99.0"), Value::Integer(1));
        m.allow_writes_under(oid("1.3.6.1.2.1.99"));
        m
    }

    /// Loopback transport: agent answers synchronously.
    fn transact(store: &mut MemoryMib, req: Bytes) -> Bytes {
        let msg = MessageRef::decode(&req).unwrap();
        agent_respond(store, "public", &msg).unwrap()
    }

    /// `MibStore::get` of `name` as a request holds it.
    fn get(store: &MemoryMib, name: &Oid) -> Option<Value> {
        let wire = SnmpClient::new("public").get(std::slice::from_ref(name));
        let bindings = MessageRef::decode(&wire).unwrap().bindings;
        store.get(bindings.first().unwrap().name)
    }

    #[test]
    fn get_round_trip_through_agent() {
        let mut store = agent();
        let mut c = SnmpClient::new("public");
        let req = c.get(&[oid("1.3.6.1.2.1.1.1.0")]);
        assert!(c.in_flight());
        let resp = transact(&mut store, req);
        let pdu = c.accept(&resp).unwrap().unwrap();
        assert!(!c.in_flight());
        assert_eq!(
            pdu.bindings.first().unwrap().value,
            Value::OctetString(b"dev".to_vec())
        );
        assert_eq!(c.ops_sent(), 1);
    }

    #[test]
    fn set_round_trip_through_agent() {
        let mut store = agent();
        let mut c = SnmpClient::new("public");
        let req = c.set(&[(oid("1.3.6.1.2.1.99.0"), Value::Integer(7))]);
        let resp = transact(&mut store, req);
        let pdu = c.accept(&resp).unwrap().unwrap();
        assert_eq!(pdu.error_status, crate::pdu::ErrorStatus::NoError);
        assert_eq!(
            get(&store, &oid("1.3.6.1.2.1.99.0")),
            Some(Value::Integer(7))
        );
    }

    #[test]
    fn stale_response_ignored() {
        let mut store = agent();
        let mut c = SnmpClient::new("public");
        let req1 = c.get(&[oid("1.3.6.1.2.1.1.1.0")]);
        let resp1 = transact(&mut store, req1);
        let _req2_replaces_pending = c.get(&[oid("1.3.6.1.2.1.1.1.0")]);
        // resp1 answers request 1, but request 2 is pending now.
        assert!(c.accept(&resp1).unwrap().is_none());
    }

    #[test]
    fn walker_enumerates_exactly_the_subtree() {
        let mut store = agent();
        let mut c = SnmpClient::new("public");
        let mut w = Walker::new(oid("1.3.6.1.2.1.2.2.1.2"));
        let mut req = w.first_request(&mut c);
        let mut items = Vec::new();
        loop {
            let resp = transact(&mut store, req.clone());
            let pdu = c.accept(&resp).unwrap().unwrap();
            match w.accept(&mut c, &pdu) {
                (WalkStep::Item(o, v), Some(next)) => {
                    items.push((o, v));
                    req = next;
                }
                (WalkStep::Done, _) => break,
                _ => unreachable!(),
            }
        }
        assert_eq!(items.len(), 3);
        assert_eq!(items[0].1, Value::OctetString(b"p1".to_vec()));
        assert_eq!(items[2].0, oid("1.3.6.1.2.1.2.2.1.2.3"));
        // 1 opening request + one follow-up per item (the terminating
        // response needs no further request).
        assert_eq!(c.ops_sent(), 4);
    }

    #[test]
    fn walker_on_empty_subtree_finishes_immediately() {
        let mut store = agent();
        let mut c = SnmpClient::new("public");
        let mut w = Walker::new(oid("1.3.6.1.2.1.50"));
        let req = w.first_request(&mut c);
        let resp = transact(&mut store, req);
        let pdu = c.accept(&resp).unwrap().unwrap();
        assert_eq!(w.accept(&mut c, &pdu).0, WalkStep::Done);
    }
}
