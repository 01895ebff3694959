//! Agent-side MIB dispatch: the [`MibStore`] trait a managed device
//! implements, and [`agent_respond`], which answers a request message
//! against such a store.
//!
//! The request is read as a [`MessageRef`] and the response written
//! straight into its buffer: a Get's names as the request holds them,
//! each beside the value the store gives, and a Set's bindings, taken
//! or refused, echoed as the request's bytes.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::oid::{Oid, OidRef};
use crate::pdu::{ErrorStatus, MessageParts, MessageRef, PduType, Value, VarBinds};

/// The view a device exposes to its SNMP agent.
///
/// `get`/`next` serve reads; `set` applies one request's writes to live
/// configuration, all or none. Implementations decide which OIDs exist
/// and which are writable. Names and bindings are borrowed from the
/// request.
pub trait MibStore {
    /// Exact-instance read.
    fn get(&self, name: OidRef<'_>) -> Option<Value>;

    /// Smallest instance strictly greater than `name`, with its value
    /// (lexicographic OID order).
    fn next(&self, name: OidRef<'_>) -> Option<(Oid, Value)>;

    /// Write every binding, in order, as one change to device state
    /// (RFC 3416 §4.2.5): `Err((i, status))` says binding `i` was
    /// rejected, and then nothing is written.
    fn set(&mut self, bindings: VarBinds<'_>) -> Result<(), (usize, ErrorStatus)>;
}

/// Answer one SNMP request against `store`: the response message's
/// bytes. Unknown communities are dropped (returns `None`), matching
/// agent behaviour on community mismatch.
pub fn agent_respond(
    store: &mut dyn MibStore,
    community: &str,
    request: &MessageRef<'_>,
) -> Option<Bytes> {
    if request.community != community {
        return None;
    }
    let bindings = request.bindings;
    let answer = |status, index| MessageParts::response(community, request, status, index);
    Some(match request.ty {
        PduType::Get => answer(ErrorStatus::NoError, 0).encode(|list| {
            for vb in bindings.iter() {
                let value = store.get(vb.name).unwrap_or(Value::NoSuchInstance);
                list.put_at(vb.name, &value);
            }
        }),
        PduType::GetNext => answer(ErrorStatus::NoError, 0).encode(|list| {
            for vb in bindings.iter() {
                match store.next(vb.name) {
                    Some((name, value)) => list.put(&name, &value),
                    None => list.put_at(vb.name, &Value::EndOfMibView),
                }
            }
        }),
        PduType::Set => {
            let parts = match store.set(bindings) {
                Ok(()) => answer(ErrorStatus::NoError, 0),
                Err((i, status)) => answer(status, (i + 1) as i64),
            };
            parts.encode(|list| list.echo(bindings))
        }
        PduType::Response => return None, // agents do not answer responses
    })
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
    fn get(&self, name: OidRef<'_>) -> Option<Value> {
        self.entries.get(&name.to_owned()).cloned()
    }

    fn next(&self, name: OidRef<'_>) -> Option<(Oid, Value)> {
        use std::ops::Bound;
        self.entries
            .range((Bound::Excluded(name.to_owned()), Bound::Unbounded))
            .next()
            .map(|(k, v)| (k.clone(), v.clone()))
    }

    fn set(&mut self, bindings: VarBinds<'_>) -> Result<(), (usize, ErrorStatus)> {
        let writable = |oid: &Oid| self.writable.iter().any(|p| p.contains(oid));
        if let Some(i) = bindings
            .iter()
            .position(|vb| !writable(&vb.name.to_owned()))
        {
            return Err((i, ErrorStatus::NotWritable));
        }
        for vb in bindings.iter() {
            let (oid, value) = vb.to_owned();
            self.entries.insert(oid, value);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdu::{Pdu, SnmpMessage};

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    /// The agent's answer to `req`, sent and received as bytes.
    fn respond(s: &mut MemoryMib, req: &SnmpMessage) -> Option<SnmpMessage> {
        let wire = req.encode();
        let resp = agent_respond(s, "public", &MessageRef::decode(&wire).unwrap())?;
        Some(SnmpMessage::decode(&resp).unwrap())
    }

    /// `MibStore::get` of `name` as a request holds it.
    fn get(s: &MemoryMib, name: &Oid) -> Option<Value> {
        let req = Pdu::request(PduType::Get, 1, vec![(name.clone(), Value::Null)]);
        let wire = SnmpMessage::new("public", req).encode();
        let bindings = MessageRef::decode(&wire).unwrap().bindings;
        s.get(bindings.first().unwrap().name)
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
        let resp = respond(&mut s, &req).unwrap();
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
            let resp = respond(&mut s, &req).unwrap();
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
        let resp = respond(&mut s, &ok).unwrap();
        assert_eq!(resp.pdu.error_status, ErrorStatus::NoError);
        assert_eq!(
            get(&s, &oid("1.3.6.1.2.1.1.5.0")),
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
        let resp = respond(&mut s, &bad).unwrap();
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
        let resp = respond(&mut s, &req).unwrap();
        assert_eq!(resp.pdu.error_status, ErrorStatus::NotWritable);
        assert_eq!(resp.pdu.error_index, 2);
        assert_eq!(
            get(&s, &oid("1.3.6.1.2.1.1.5.0")),
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
        assert!(respond(&mut s, &req).is_none());
    }
}
