//! Agent-side MIB dispatch: the [`MibStore`] trait a managed device
//! implements, and [`agent_respond`], which turns a request message into a
//! response against such a store.

use std::collections::BTreeMap;

use crate::oid::Oid;
use crate::pdu::{ErrorStatus, PduType, SnmpMessage, Value};

/// The view a device exposes to its SNMP agent.
///
/// `get`/`next` serve reads; `set` applies one request's writes to live
/// configuration, all or none. Implementations decide which OIDs exist
/// and which are writable.
pub trait MibStore {
    /// Exact-instance read.
    fn get(&self, oid: &Oid) -> Option<Value>;

    /// Smallest instance strictly greater than `oid`, with its value
    /// (lexicographic OID order).
    fn next(&self, oid: &Oid) -> Option<(Oid, Value)>;

    /// Write every binding, in order, as one change to device state
    /// (RFC 3416 §4.2.5): `Err((i, status))` says binding `i` was
    /// rejected, and then nothing is written.
    fn set(&mut self, bindings: &[(Oid, Value)]) -> Result<(), (usize, ErrorStatus)>;
}

/// Process one SNMP request against `store`, producing the response
/// message. Unknown communities are dropped (returns `None`), matching
/// agent behaviour on community mismatch.
pub fn agent_respond(
    store: &mut dyn MibStore,
    community: &str,
    request: &SnmpMessage,
) -> Option<SnmpMessage> {
    if request.community != community {
        return None;
    }
    let pdu = &request.pdu;
    let response = match pdu.ty {
        PduType::Get => {
            let bindings = pdu
                .bindings
                .iter()
                .map(|(oid, _)| {
                    let v = store.get(oid).unwrap_or(Value::NoSuchInstance);
                    (oid.clone(), v)
                })
                .collect();
            pdu.response(bindings)
        }
        PduType::GetNext => {
            let bindings = pdu
                .bindings
                .iter()
                .map(|(oid, _)| match store.next(oid) {
                    Some((next_oid, v)) => (next_oid, v),
                    None => (oid.clone(), Value::EndOfMibView),
                })
                .collect();
            pdu.response(bindings)
        }
        PduType::Set => match store.set(&pdu.bindings) {
            Ok(()) => pdu.response(pdu.bindings.clone()),
            Err((i, status)) => pdu.error_response(status, (i + 1) as i64),
        },
        PduType::Response => return None, // agents do not answer responses
    };
    Some(SnmpMessage::new(community, response))
}

/// A [`MibStore`] backed by an in-memory ordered map. Useful on its own for
/// tests and as the scalar portion of device agents.
#[derive(Debug, Default)]
pub struct MemoryMib {
    entries: BTreeMap<Oid, Value>,
    writable: Vec<Oid>,
}

impl MemoryMib {
    /// Empty store.
    pub fn new() -> MemoryMib {
        MemoryMib::default()
    }

    /// Insert or replace an instance.
    pub fn insert(&mut self, oid: Oid, value: Value) {
        self.entries.insert(oid, value);
    }

    /// Mark a subtree as writable via `set`.
    pub fn allow_writes_under(&mut self, prefix: Oid) {
        self.writable.push(prefix);
    }

    /// Read the underlying map.
    pub fn entries(&self) -> &BTreeMap<Oid, Value> {
        &self.entries
    }
}

impl MibStore for MemoryMib {
    fn get(&self, oid: &Oid) -> Option<Value> {
        self.entries.get(oid).cloned()
    }

    fn next(&self, oid: &Oid) -> Option<(Oid, Value)> {
        use std::ops::Bound;
        self.entries
            .range((Bound::Excluded(oid.clone()), Bound::Unbounded))
            .next()
            .map(|(k, v)| (k.clone(), v.clone()))
    }

    fn set(&mut self, bindings: &[(Oid, Value)]) -> Result<(), (usize, ErrorStatus)> {
        let writable = |oid: &Oid| self.writable.iter().any(|p| p.contains(oid));
        if let Some(i) = bindings.iter().position(|(oid, _)| !writable(oid)) {
            return Err((i, ErrorStatus::NotWritable));
        }
        for (oid, value) in bindings {
            self.entries.insert(oid.clone(), value.clone());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::Pdu;

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    fn store() -> MemoryMib {
        let mut m = MemoryMib::new();
        m.insert(
            oid("1.3.6.1.2.1.1.1.0"),
            Value::OctetString(b"test device".to_vec()),
        );
        m.insert(
            oid("1.3.6.1.2.1.1.5.0"),
            Value::OctetString(b"sw1".to_vec()),
        );
        m.insert(oid("1.3.6.1.2.1.2.1.0"), Value::Integer(8));
        m.allow_writes_under(oid("1.3.6.1.2.1.1.5"));
        m
    }

    #[test]
    fn get_known_and_unknown() {
        let mut s = store();
        let req = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Get,
                1,
                vec![
                    (oid("1.3.6.1.2.1.1.1.0"), Value::Null),
                    (oid("1.9"), Value::Null),
                ],
            ),
        );
        let resp = agent_respond(&mut s, "public", &req).unwrap();
        assert_eq!(
            resp.pdu.bindings[0].1,
            Value::OctetString(b"test device".to_vec())
        );
        assert_eq!(resp.pdu.bindings[1].1, Value::NoSuchInstance);
    }

    #[test]
    fn getnext_walks_in_order() {
        let mut s = store();
        let mut cur = oid("1.3.6.1.2.1");
        let mut seen = Vec::new();
        loop {
            let req = SnmpMessage::new(
                "public",
                Pdu::request(PduType::GetNext, 1, vec![(cur.clone(), Value::Null)]),
            );
            let resp = agent_respond(&mut s, "public", &req).unwrap();
            let (next, v) = resp.pdu.bindings[0].clone();
            if v == Value::EndOfMibView {
                break;
            }
            seen.push(next.clone());
            cur = next;
        }
        assert_eq!(
            seen,
            vec![
                oid("1.3.6.1.2.1.1.1.0"),
                oid("1.3.6.1.2.1.1.5.0"),
                oid("1.3.6.1.2.1.2.1.0")
            ]
        );
    }

    #[test]
    fn set_respects_write_permissions() {
        let mut s = store();
        let ok = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Set,
                2,
                vec![(
                    oid("1.3.6.1.2.1.1.5.0"),
                    Value::OctetString(b"renamed".to_vec()),
                )],
            ),
        );
        let resp = agent_respond(&mut s, "public", &ok).unwrap();
        assert_eq!(resp.pdu.error_status, ErrorStatus::NoError);
        assert_eq!(
            s.get(&oid("1.3.6.1.2.1.1.5.0")),
            Some(Value::OctetString(b"renamed".to_vec()))
        );

        let bad = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Set,
                3,
                vec![(
                    oid("1.3.6.1.2.1.1.1.0"),
                    Value::OctetString(b"nope".to_vec()),
                )],
            ),
        );
        let resp = agent_respond(&mut s, "public", &bad).unwrap();
        assert_eq!(resp.pdu.error_status, ErrorStatus::NotWritable);
        assert_eq!(resp.pdu.error_index, 1);
    }

    #[test]
    fn a_set_with_one_read_only_binding_writes_nothing() {
        let mut s = store();
        let req = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Set,
                4,
                vec![
                    (
                        oid("1.3.6.1.2.1.1.5.0"),
                        Value::OctetString(b"renamed".to_vec()),
                    ),
                    (oid("1.3.6.1.2.1.2.1.0"), Value::Integer(9)),
                ],
            ),
        );
        let resp = agent_respond(&mut s, "public", &req).unwrap();
        assert_eq!(resp.pdu.error_status, ErrorStatus::NotWritable);
        assert_eq!(resp.pdu.error_index, 2);
        assert_eq!(
            s.get(&oid("1.3.6.1.2.1.1.5.0")),
            Some(Value::OctetString(b"sw1".to_vec())),
            "the writable binding ahead of the rejected one is not written"
        );
    }

    #[test]
    fn wrong_community_is_dropped() {
        let mut s = store();
        let req = SnmpMessage::new(
            "wrong",
            Pdu::request(
                PduType::Get,
                1,
                vec![(oid("1.3.6.1.2.1.1.1.0"), Value::Null)],
            ),
        );
        assert!(agent_respond(&mut s, "public", &req).is_none());
    }
}
