//! SNMPv2c messages and PDUs: the owned [`SnmpMessage`], the view
//! [`MessageRef`] a received message is read as, and [`MessageParts`],
//! the one writer.
//!
//! A message is read once, where it lies: [`MessageRef::decode`] checks
//! every TLV and leaves the bindings in place, as a [`VarBinds`] list
//! whose names and values are read again without fail.
//! [`SnmpMessage::decode`] is that view made owned. Every message is
//! written by [`MessageParts`] — the community and the PDU's fixed
//! fields, borrowed — with its bindings written into the open list:
//! owned, a name as it was read, or a received list's bytes as they are.
//! The reader accepts only the form the writer produces, so bindings
//! echoed as bytes are the bytes their owned encoding would be.

use bytes::{BufMut, Bytes, BytesMut};

use crate::ber::{self, tag};
use crate::oid::{Oid, OidRef};
use crate::{Error, Result};

/// An SMI value as carried in a variable binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// INTEGER.
    Integer(i64),
    /// OCTET STRING.
    OctetString(Vec<u8>),
    /// NULL (used in request bindings).
    Null,
    /// OBJECT IDENTIFIER.
    Oid(Oid),
    /// IpAddress.
    IpAddress([u8; 4]),
    /// Counter32.
    Counter32(u32),
    /// Gauge32 / Unsigned32.
    Gauge32(u32),
    /// TimeTicks (centiseconds).
    TimeTicks(u32),
    /// Counter64.
    Counter64(u64),
    /// v2c exception: no such object.
    NoSuchObject,
    /// v2c exception: no such instance.
    NoSuchInstance,
    /// v2c exception: end of MIB view.
    EndOfMibView,
}

impl Value {
    /// Integer accessor.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Integer(v) => Some(*v),
            Value::Counter32(v) | Value::Gauge32(v) | Value::TimeTicks(v) => Some(i64::from(*v)),
            Value::Counter64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// Octet-string accessor.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::OctetString(v) => Some(v),
            _ => None,
        }
    }

    fn encode(&self, out: &mut BytesMut) {
        match self {
            Value::Integer(v) => ber::put_integer(out, tag::INTEGER, (*v).into()),
            Value::OctetString(v) => ber::put_tlv(out, tag::OCTET_STRING, v),
            Value::Null => ber::put_tlv(out, tag::NULL, &[]),
            Value::Oid(o) => ber::put_oid(out, o),
            Value::IpAddress(a) => ber::put_tlv(out, tag::IP_ADDRESS, a),
            Value::Counter32(v) => ber::put_integer(out, tag::COUNTER32, (*v).into()),
            Value::Gauge32(v) => ber::put_integer(out, tag::GAUGE32, (*v).into()),
            Value::TimeTicks(v) => ber::put_integer(out, tag::TIMETICKS, (*v).into()),
            Value::Counter64(v) => ber::put_integer(out, tag::COUNTER64, (*v).into()),
            Value::NoSuchObject => ber::put_tlv(out, tag::NO_SUCH_OBJECT, &[]),
            Value::NoSuchInstance => ber::put_tlv(out, tag::NO_SUCH_INSTANCE, &[]),
            Value::EndOfMibView => ber::put_tlv(out, tag::END_OF_MIB_VIEW, &[]),
        }
    }
}

/// A [`Value`] where a received message holds it: scalars read, an
/// octet string or an OID left in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// INTEGER.
    Integer(i64),
    /// OCTET STRING.
    OctetString(&'a [u8]),
    /// NULL.
    Null,
    /// OBJECT IDENTIFIER.
    Oid(OidRef<'a>),
    /// IpAddress.
    IpAddress([u8; 4]),
    /// Counter32.
    Counter32(u32),
    /// Gauge32 / Unsigned32.
    Gauge32(u32),
    /// TimeTicks (centiseconds).
    TimeTicks(u32),
    /// Counter64.
    Counter64(u64),
    /// v2c exception: no such object.
    NoSuchObject,
    /// v2c exception: no such instance.
    NoSuchInstance,
    /// v2c exception: end of MIB view.
    EndOfMibView,
}

impl<'a> ValueRef<'a> {
    /// Read a value TLV's contents, tagged `t`.
    pub fn decode(t: u8, value: &'a [u8]) -> Result<ValueRef<'a>> {
        let empty = |v| match value {
            [] => Ok(v),
            _ => Err(Error::Malformed("NULL or exception with contents")),
        };
        Ok(match t {
            tag::INTEGER => ValueRef::Integer(ber::parse_integer(value)?),
            tag::OCTET_STRING => ValueRef::OctetString(value),
            tag::NULL => empty(ValueRef::Null)?,
            tag::OID => ValueRef::Oid(OidRef::new(value)?),
            tag::IP_ADDRESS => ValueRef::IpAddress(
                value
                    .try_into()
                    .map_err(|_| Error::Malformed("IpAddress must be 4 bytes"))?,
            ),
            tag::COUNTER32 => ValueRef::Counter32(ber::parse_integer(value)?),
            tag::GAUGE32 => ValueRef::Gauge32(ber::parse_integer(value)?),
            tag::TIMETICKS => ValueRef::TimeTicks(ber::parse_integer(value)?),
            tag::COUNTER64 => ValueRef::Counter64(ber::parse_integer(value)?),
            tag::NO_SUCH_OBJECT => empty(ValueRef::NoSuchObject)?,
            tag::NO_SUCH_INSTANCE => empty(ValueRef::NoSuchInstance)?,
            tag::END_OF_MIB_VIEW => empty(ValueRef::EndOfMibView)?,
            _ => return Err(Error::Malformed("unknown value tag")),
        })
    }

    /// Integer accessor, as [`Value::as_int`].
    pub fn as_int(self) -> Option<i64> {
        match self {
            ValueRef::Integer(v) => Some(v),
            ValueRef::Counter32(v) | ValueRef::Gauge32(v) | ValueRef::TimeTicks(v) => {
                Some(i64::from(v))
            }
            ValueRef::Counter64(v) => i64::try_from(v).ok(),
            _ => None,
        }
    }

    /// Octet-string accessor.
    pub fn as_bytes(self) -> Option<&'a [u8]> {
        match self {
            ValueRef::OctetString(v) => Some(v),
            _ => None,
        }
    }

    /// The owned value.
    pub fn to_owned(self) -> Value {
        match self {
            ValueRef::Integer(v) => Value::Integer(v),
            ValueRef::OctetString(v) => Value::OctetString(v.to_vec()),
            ValueRef::Null => Value::Null,
            ValueRef::Oid(o) => Value::Oid(o.to_owned()),
            ValueRef::IpAddress(a) => Value::IpAddress(a),
            ValueRef::Counter32(v) => Value::Counter32(v),
            ValueRef::Gauge32(v) => Value::Gauge32(v),
            ValueRef::TimeTicks(v) => Value::TimeTicks(v),
            ValueRef::Counter64(v) => Value::Counter64(v),
            ValueRef::NoSuchObject => Value::NoSuchObject,
            ValueRef::NoSuchInstance => Value::NoSuchInstance,
            ValueRef::EndOfMibView => Value::EndOfMibView,
        }
    }
}

/// A value compares equal to the owned value it would become, without
/// becoming it.
impl PartialEq<Value> for ValueRef<'_> {
    fn eq(&self, other: &Value) -> bool {
        use Value as V;
        use ValueRef as R;
        match (*self, other) {
            (R::Integer(a), V::Integer(b)) => a == *b,
            (R::OctetString(a), V::OctetString(b)) => a == &b[..],
            (R::Oid(a), V::Oid(b)) => a.arcs().eq(b.arcs().iter().copied()),
            (R::IpAddress(a), V::IpAddress(b)) => a == *b,
            (R::Counter32(a), V::Counter32(b))
            | (R::Gauge32(a), V::Gauge32(b))
            | (R::TimeTicks(a), V::TimeTicks(b)) => a == *b,
            (R::Counter64(a), V::Counter64(b)) => a == *b,
            (R::Null, V::Null)
            | (R::NoSuchObject, V::NoSuchObject)
            | (R::NoSuchInstance, V::NoSuchInstance)
            | (R::EndOfMibView, V::EndOfMibView) => true,
            _ => false,
        }
    }
}

/// PDU kind; the discriminant is its context tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PduType {
    /// GetRequest.
    Get = 0xa0,
    /// GetNextRequest.
    GetNext = 0xa1,
    /// Response.
    Response = 0xa2,
    /// SetRequest.
    Set = 0xa3,
}

impl PduType {
    fn from_tag(t: u8) -> Result<PduType> {
        [
            PduType::Get,
            PduType::GetNext,
            PduType::Response,
            PduType::Set,
        ]
        .into_iter()
        .find(|&ty| ty as u8 == t)
        .ok_or(Error::Malformed("unknown PDU tag"))
    }
}

/// SNMPv2 error-status codes (subset); the discriminant is the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i64)]
pub enum ErrorStatus {
    /// Success.
    NoError = 0,
    /// Response would not fit.
    TooBig = 1,
    /// Value cannot be set to that.
    BadValue = 3,
    /// General failure.
    GenErr = 5,
    /// Wrong type for a set.
    WrongType = 7,
    /// Wrong value for a set.
    WrongValue = 10,
    /// Object cannot be created.
    NoCreation = 11,
    /// Object is read-only.
    NotWritable = 17,
}

impl ErrorStatus {
    /// Wire value.
    pub fn value(&self) -> i64 {
        *self as i64
    }

    /// From wire value (unknown codes map to `GenErr`).
    pub fn from_value(v: i64) -> ErrorStatus {
        use ErrorStatus::*;
        [
            NoError,
            TooBig,
            BadValue,
            GenErr,
            WrongType,
            WrongValue,
            NoCreation,
            NotWritable,
        ]
        .into_iter()
        .find(|s| s.value() == v)
        .unwrap_or(GenErr)
    }
}

/// A protocol data unit: request id, error fields and variable bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct Pdu {
    /// Kind of PDU.
    pub ty: PduType,
    /// Request id echoed in the response.
    pub request_id: i64,
    /// Error status (responses only).
    pub error_status: ErrorStatus,
    /// 1-based index of the failed binding, 0 if none.
    pub error_index: i64,
    /// The variable bindings.
    pub bindings: Vec<(Oid, Value)>,
}

impl Pdu {
    /// A request PDU with null/provided values.
    pub fn request(ty: PduType, request_id: i64, bindings: Vec<(Oid, Value)>) -> Pdu {
        Pdu {
            ty,
            request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bindings,
        }
    }
}

/// A complete SNMPv2c message.
#[derive(Debug, Clone, PartialEq)]
pub struct SnmpMessage {
    /// Community string ("public", "private", ...).
    pub community: String,
    /// The PDU.
    pub pdu: Pdu,
}

/// SNMP version field for v2c.
pub const VERSION_2C: i64 = 1;

/// Room reserved up front in [`MessageParts::encode`]'s buffer: a
/// request or a row write fits, a longer message grows the buffer as it
/// is written.
const ENCODE_CAPACITY: usize = 128;

impl SnmpMessage {
    /// Wrap a PDU with a community.
    pub fn new(community: impl Into<String>, pdu: Pdu) -> SnmpMessage {
        SnmpMessage {
            community: community.into(),
            pdu,
        }
    }

    /// Encode to BER bytes, through [`MessageParts`].
    pub fn encode(&self) -> Bytes {
        let pdu = &self.pdu;
        let parts = MessageParts {
            community: &self.community,
            ty: pdu.ty,
            request_id: pdu.request_id,
            error_status: pdu.error_status,
            error_index: pdu.error_index,
        };
        parts.encode(|list| {
            for (name, value) in &pdu.bindings {
                list.put(name, value);
            }
        })
    }

    /// Decode from BER bytes: the [`MessageRef`] view of them, made
    /// owned.
    pub fn decode(data: &[u8]) -> Result<SnmpMessage> {
        MessageRef::decode(data).map(MessageRef::to_owned)
    }
}

/// A received message, read where it lies: the fixed fields read, the
/// community and the bindings borrowed. Whatever it accepts, an owned
/// decode would have, and its bindings read again without fail.
#[derive(Debug, Clone, Copy)]
pub struct MessageRef<'a> {
    /// Community string.
    pub community: &'a str,
    /// Kind of PDU.
    pub ty: PduType,
    /// Request id.
    pub request_id: i64,
    /// Error status; a code outside [`ErrorStatus`]'s subset reads as
    /// `GenErr`.
    pub error_status: ErrorStatus,
    /// 1-based index of the failed binding, 0 if none.
    pub error_index: i64,
    /// The variable bindings.
    pub bindings: VarBinds<'a>,
}

impl<'a> MessageRef<'a> {
    /// Check BER bytes: exactly one message, each TLV read to its end and
    /// in the form [`MessageParts`] writes it.
    pub fn decode(data: &'a [u8]) -> Result<MessageRef<'a>> {
        let mut rest = data;
        let mut msg = ber::expect(&mut rest, tag::SEQUENCE, "message must be a SEQUENCE")?;
        end(rest, "bytes after the message")?;
        if integer(&mut msg, "only SNMPv2c supported")? != VERSION_2C {
            return Err(Error::Malformed("only SNMPv2c supported"));
        }
        let community = ber::expect(
            &mut msg,
            tag::OCTET_STRING,
            "community must be an OCTET STRING",
        )?;
        let community = core::str::from_utf8(community)
            .map_err(|_| Error::Malformed("community must be UTF-8"))?;
        let (ptag, mut pdu) = ber::get_tlv(&mut msg)?;
        end(msg, "bytes after the PDU")?;
        let ty = PduType::from_tag(ptag)?;
        let request_id = integer(&mut pdu, "request-id must be INTEGER")?;
        let error_status =
            ErrorStatus::from_value(integer(&mut pdu, "error-status must be INTEGER")?);
        let error_index = integer(&mut pdu, "error-index must be INTEGER")?;
        let list = ber::expect(&mut pdu, tag::SEQUENCE, "varbind list must be a SEQUENCE")?;
        end(pdu, "bytes after the varbind list")?;
        Ok(MessageRef {
            community,
            ty,
            request_id,
            error_status,
            error_index,
            bindings: VarBinds::read(list)?,
        })
    }

    /// The owned message: what [`SnmpMessage::decode`] returns.
    pub fn to_owned(self) -> SnmpMessage {
        let mut bindings = Vec::with_capacity(self.bindings.len());
        bindings.extend(self.bindings.iter().map(VarBind::to_owned));
        SnmpMessage {
            community: self.community.to_owned(),
            pdu: Pdu {
                ty: self.ty,
                request_id: self.request_id,
                error_status: self.error_status,
                error_index: self.error_index,
                bindings,
            },
        }
    }
}

/// A checked variable-binding list where a message holds it.
#[derive(Debug, Clone, Copy)]
pub struct VarBinds<'a> {
    /// The list's contents: its bindings' TLVs.
    list: &'a [u8],
    /// How many bindings they are.
    len: usize,
}

impl<'a> VarBinds<'a> {
    /// Check a varbind list's contents, binding by binding.
    fn read(list: &'a [u8]) -> Result<VarBinds<'a>> {
        let (mut c, mut len) = (list, 0);
        while !c.is_empty() {
            binding(&mut c, OidRef::new)?;
            len += 1;
        }
        Ok(VarBinds { list, len })
    }

    /// The bindings, in order.
    pub fn iter(self) -> impl Iterator<Item = VarBind<'a>> + Clone {
        let mut c = self.list;
        core::iter::from_fn(move || binding(&mut c, |name| Ok(OidRef::checked(name))).ok())
    }

    /// The first binding, if any.
    pub fn first(self) -> Option<VarBind<'a>> {
        self.iter().next()
    }

    /// Number of bindings.
    pub fn len(self) -> usize {
        self.len
    }

    /// True if there are none.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One variable binding where a message holds it.
#[derive(Debug, Clone, Copy)]
pub struct VarBind<'a> {
    /// The instance named.
    pub name: OidRef<'a>,
    /// Its value.
    pub value: ValueRef<'a>,
}

impl VarBind<'_> {
    /// The owned binding.
    pub fn to_owned(self) -> (Oid, Value) {
        (self.name.to_owned(), self.value.to_owned())
    }
}

/// Read one variable binding, its name through `oid`: a check, or none
/// for a list checked before.
fn binding<'a>(
    c: &mut &'a [u8],
    oid: impl FnOnce(&'a [u8]) -> Result<OidRef<'a>>,
) -> Result<VarBind<'a>> {
    let mut vb = ber::expect(c, tag::SEQUENCE, "varbind must be a SEQUENCE")?;
    let name = ber::expect(&mut vb, tag::OID, "varbind name must be an OID")?;
    let (t, value) = ber::get_tlv(&mut vb)?;
    end(vb, "bytes after a varbind's value")?;
    Ok(VarBind {
        name: oid(name)?,
        value: ValueRef::decode(t, value)?,
    })
}

/// Read an INTEGER TLV; any other tag is `Malformed(what)`.
fn integer(c: &mut &[u8], what: &'static str) -> Result<i64> {
    ber::parse_integer(ber::expect(c, tag::INTEGER, what)?)
}

/// Check that a TLV's contents were read to their end.
fn end(rest: &[u8], what: &'static str) -> Result<()> {
    match rest {
        [] => Ok(()),
        _ => Err(Error::Malformed(what)),
    }
}

/// A message's fixed parts, borrowed: the community and the PDU's
/// fields but its bindings. The one writer of SNMP messages; the
/// bindings are written into the open list by the caller.
#[derive(Debug, Clone, Copy)]
pub struct MessageParts<'a> {
    /// Community string.
    pub community: &'a str,
    /// Kind of PDU.
    pub ty: PduType,
    /// Request id.
    pub request_id: i64,
    /// Error status.
    pub error_status: ErrorStatus,
    /// 1-based index of the failed binding, 0 if none.
    pub error_index: i64,
}

impl<'a> MessageParts<'a> {
    /// A request.
    pub fn request(community: &'a str, ty: PduType, request_id: i64) -> MessageParts<'a> {
        MessageParts {
            community,
            ty,
            request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
        }
    }

    /// The response to `request` in `community`, with `status` naming
    /// binding `index` (0 and `NoError` for a success).
    pub fn response(
        community: &'a str,
        request: &MessageRef<'_>,
        error_status: ErrorStatus,
        error_index: i64,
    ) -> MessageParts<'a> {
        MessageParts {
            community,
            ty: PduType::Response,
            request_id: request.request_id,
            error_status,
            error_index,
        }
    }

    /// The message in a buffer of its own; `bindings` writes the
    /// varbind list.
    pub fn encode(&self, bindings: impl FnOnce(&mut VarBindWriter<'_>)) -> Bytes {
        let mut buf = BytesMut::with_capacity(ENCODE_CAPACITY);
        let out = &mut buf;
        let msg = ber::open(out, tag::SEQUENCE);
        ber::put_integer(out, tag::INTEGER, VERSION_2C.into());
        ber::put_tlv(out, tag::OCTET_STRING, self.community.as_bytes());
        let pdu = ber::open(out, self.ty as u8);
        ber::put_integer(out, tag::INTEGER, self.request_id.into());
        ber::put_integer(out, tag::INTEGER, self.error_status.value().into());
        ber::put_integer(out, tag::INTEGER, self.error_index.into());
        let list = ber::open(out, tag::SEQUENCE);
        bindings(&mut VarBindWriter(out));
        ber::close(out, list);
        ber::close(out, pdu);
        ber::close(out, msg);
        buf.freeze()
    }
}

/// Writes bindings into a message's open varbind list.
pub struct VarBindWriter<'o>(&'o mut BytesMut);

impl VarBindWriter<'_> {
    /// One binding of an owned name and value.
    pub fn put(&mut self, name: &Oid, value: &Value) {
        let vb = ber::open(self.0, tag::SEQUENCE);
        ber::put_oid(self.0, name);
        value.encode(self.0);
        ber::close(self.0, vb);
    }

    /// One binding of a name as a message held it and an owned value.
    pub fn put_at(&mut self, name: OidRef<'_>, value: &Value) {
        let vb = ber::open(self.0, tag::SEQUENCE);
        ber::put_tlv(self.0, tag::OID, name.contents());
        value.encode(self.0);
        ber::close(self.0, vb);
    }

    /// A received list's bindings, as their bytes: what writing each
    /// one owned would write, since they were read only in that form.
    pub fn echo(&mut self, bindings: VarBinds<'_>) {
        self.0.put_slice(bindings.list);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oid(s: &str) -> Oid {
        s.parse().unwrap()
    }

    #[test]
    fn get_request_round_trip() {
        let msg = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Get,
                42,
                vec![(oid("1.3.6.1.2.1.1.1.0"), Value::Null)],
            ),
        );
        let wire = msg.encode();
        assert_eq!(SnmpMessage::decode(&wire).unwrap(), msg);
    }

    #[test]
    fn response_with_all_value_types_round_trips() {
        let bindings = vec![
            (oid("1.1.1"), Value::Integer(-42)),
            (oid("1.1.2"), Value::OctetString(b"hello".to_vec())),
            (oid("1.1.3"), Value::Oid(oid("1.3.6.1.4.1"))),
            (oid("1.1.4"), Value::IpAddress([10, 0, 0, 1])),
            (oid("1.1.5"), Value::Counter32(123456)),
            (oid("1.1.6"), Value::Gauge32(99)),
            (oid("1.1.7"), Value::TimeTicks(8_640_000)),
            (oid("1.1.8"), Value::Counter64(u64::MAX)),
            (oid("1.1.9"), Value::NoSuchObject),
            (oid("1.1.10"), Value::NoSuchInstance),
            (oid("1.1.11"), Value::EndOfMibView),
            (oid("1.1.12"), Value::Null),
        ];
        let msg = SnmpMessage::new(
            "private",
            Pdu {
                ty: PduType::Response,
                request_id: 7,
                error_status: ErrorStatus::NoError,
                error_index: 0,
                bindings,
            },
        );
        let wire = msg.encode();
        assert_eq!(SnmpMessage::decode(&wire).unwrap(), msg);
    }

    #[test]
    fn error_response_echoes_bindings() {
        let req = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Set,
                9,
                vec![(oid("1.3.6.1.2.1.1.5.0"), Value::OctetString(b"x".to_vec()))],
            ),
        );
        let wire = req.encode();
        let view = MessageRef::decode(&wire).unwrap();
        let parts = MessageParts::response("public", &view, ErrorStatus::NotWritable, 1);
        let resp = SnmpMessage::decode(&parts.encode(|w| w.echo(view.bindings))).unwrap();
        assert_eq!(resp.pdu.ty, PduType::Response);
        assert_eq!(resp.pdu.request_id, 9);
        assert_eq!(resp.pdu.error_status, ErrorStatus::NotWritable);
        assert_eq!(resp.pdu.error_index, 1);
        assert_eq!(resp.pdu.bindings, req.pdu.bindings);
    }

    #[test]
    fn known_wire_bytes() {
        // A canonical v2c get of sysDescr.0, community "public".
        let msg = SnmpMessage::new(
            "public",
            Pdu::request(
                PduType::Get,
                1,
                vec![(oid("1.3.6.1.2.1.1.1.0"), Value::Null)],
            ),
        );
        let wire = msg.encode();
        // SEQUENCE, version INTEGER 1, "public", 0xa0 PDU ...
        assert_eq!(wire[0], 0x30);
        assert_eq!(&wire[2..5], &[0x02, 0x01, 0x01]);
        assert_eq!(
            &wire[5..13],
            &[0x04, 0x06, b'p', b'u', b'b', b'l', b'i', b'c']
        );
        assert_eq!(wire[13], 0xa0);
    }

    #[test]
    fn decode_rejects_v1_and_garbage() {
        // Build a v1 message by hand: version 0.
        let msg = SnmpMessage::new("public", Pdu::request(PduType::Get, 1, vec![]));
        let mut raw = msg.encode().to_vec();
        // Patch version byte (offset 4: SEQ hdr(2) INT hdr(2) value(1)).
        raw[4] = 0;
        assert!(SnmpMessage::decode(&raw).is_err());
        assert!(SnmpMessage::decode(&[0x30]).is_err());
        assert!(SnmpMessage::decode(b"junk").is_err());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Integer(5).as_int(), Some(5));
        assert_eq!(Value::Counter64(7).as_int(), Some(7));
        assert_eq!(
            Value::OctetString(b"ab".to_vec()).as_bytes(),
            Some(&b"ab"[..])
        );
    }

    /// A response of one binding, written field by field so that a field
    /// can be what no encoder writes: `status` and `index` are the
    /// error-status and error-index TLVs, `name` the binding's OID
    /// contents and `value` its value TLV.
    fn raw(status: &[u8], index: &[u8], name: &[u8], value: &[u8]) -> Vec<u8> {
        use bytes::BufMut;
        let mut out = BytesMut::new();
        let msg = ber::open(&mut out, tag::SEQUENCE);
        out.put_slice(&[tag::INTEGER, 1, 1]);
        ber::put_tlv(&mut out, tag::OCTET_STRING, b"public");
        let pdu = ber::open(&mut out, 0xa2);
        out.put_slice(&[tag::INTEGER, 1, 7]);
        out.put_slice(status);
        out.put_slice(index);
        let list = ber::open(&mut out, tag::SEQUENCE);
        let vb = ber::open(&mut out, tag::SEQUENCE);
        ber::put_tlv(&mut out, tag::OID, name);
        out.put_slice(value);
        ber::close(&mut out, vb);
        ber::close(&mut out, list);
        ber::close(&mut out, pdu);
        ber::close(&mut out, msg);
        out.to_vec()
    }

    const ZERO: &[u8] = &[tag::INTEGER, 1, 0];
    const NULL: &[u8] = &[tag::NULL, 0];
    /// `sysUpTime.0`.
    const SYS_UPTIME_0: &[u8] = &[0x2b, 6, 1, 2, 1, 1, 3, 0];

    fn malformed(wire: &[u8]) -> bool {
        matches!(SnmpMessage::decode(wire), Err(Error::Malformed(_)))
    }

    #[test]
    fn unsigned_32_bit_values_wider_than_32_bits_are_malformed() {
        for t in [tag::COUNTER32, tag::GAUGE32, tag::TIMETICKS] {
            let widest = [t, 5, 0x00, 0xff, 0xff, 0xff, 0xff];
            assert!(SnmpMessage::decode(&raw(ZERO, ZERO, SYS_UPTIME_0, &widest)).is_ok());
            let wider = [t, 5, 0x01, 0x00, 0x00, 0x00, 0x00];
            assert!(
                malformed(&raw(ZERO, ZERO, SYS_UPTIME_0, &wider)),
                "tag {t:#04x}: 2^32"
            );
        }
    }

    #[test]
    fn oid_arcs_wider_than_32_bits_or_padded_are_malformed() {
        // 1.3.(2^32 − 1) reads; 1.3.(2^32 + 5), and 1.3.5 with a 0x80
        // pad byte, do not.
        let widest = [0x2b, 0x8f, 0xff, 0xff, 0xff, 0x7f];
        assert!(SnmpMessage::decode(&raw(ZERO, ZERO, &widest, NULL)).is_ok());
        let wider = [0x2b, 0x90, 0x80, 0x80, 0x80, 0x05];
        assert!(malformed(&raw(ZERO, ZERO, &wider, NULL)), "2^32 + 5");
        let padded = [0x2b, 0x80, 0x05];
        assert!(malformed(&raw(ZERO, ZERO, &padded, NULL)), "0x80 0x05");
    }

    #[test]
    fn error_status_and_index_must_be_integers() {
        let text = &[tag::OCTET_STRING, 1, 0];
        assert!(SnmpMessage::decode(&raw(ZERO, ZERO, SYS_UPTIME_0, NULL)).is_ok());
        assert!(
            malformed(&raw(text, ZERO, SYS_UPTIME_0, NULL)),
            "error-status"
        );
        assert!(
            malformed(&raw(ZERO, text, SYS_UPTIME_0, NULL)),
            "error-index"
        );
    }
}
