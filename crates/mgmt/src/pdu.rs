//! SNMPv2c messages and PDUs.

use bytes::{Bytes, BytesMut};

use crate::ber::{self, tag};
use crate::oid::Oid;
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

    /// True for the three v2c exception markers.
    pub fn is_exception(&self) -> bool {
        matches!(
            self,
            Value::NoSuchObject | Value::NoSuchInstance | Value::EndOfMibView
        )
    }

    fn encode(&self, out: &mut BytesMut) {
        match self {
            Value::Integer(v) => ber::put_integer(out, tag::INTEGER, *v),
            Value::OctetString(v) => ber::put_tlv(out, tag::OCTET_STRING, v),
            Value::Null => ber::put_tlv(out, tag::NULL, &[]),
            Value::Oid(o) => ber::put_oid(out, o),
            Value::IpAddress(a) => ber::put_tlv(out, tag::IP_ADDRESS, a),
            Value::Counter32(v) => ber::put_unsigned(out, tag::COUNTER32, u64::from(*v)),
            Value::Gauge32(v) => ber::put_unsigned(out, tag::GAUGE32, u64::from(*v)),
            Value::TimeTicks(v) => ber::put_unsigned(out, tag::TIMETICKS, u64::from(*v)),
            Value::Counter64(v) => ber::put_unsigned(out, tag::COUNTER64, *v),
            Value::NoSuchObject => ber::put_tlv(out, tag::NO_SUCH_OBJECT, &[]),
            Value::NoSuchInstance => ber::put_tlv(out, tag::NO_SUCH_INSTANCE, &[]),
            Value::EndOfMibView => ber::put_tlv(out, tag::END_OF_MIB_VIEW, &[]),
        }
    }

    fn decode(t: u8, value: &[u8]) -> Result<Value> {
        Ok(match t {
            tag::INTEGER => Value::Integer(ber::parse_integer(value)?),
            tag::OCTET_STRING => Value::OctetString(value.to_vec()),
            tag::NULL => Value::Null,
            tag::OID => Value::Oid(ber::parse_oid(value)?),
            tag::IP_ADDRESS => {
                if value.len() != 4 {
                    return Err(Error::Malformed("IpAddress must be 4 bytes"));
                }
                Value::IpAddress([value[0], value[1], value[2], value[3]])
            }
            tag::COUNTER32 => Value::Counter32(ber::parse_unsigned(value)? as u32),
            tag::GAUGE32 => Value::Gauge32(ber::parse_unsigned(value)? as u32),
            tag::TIMETICKS => Value::TimeTicks(ber::parse_unsigned(value)? as u32),
            tag::COUNTER64 => Value::Counter64(ber::parse_unsigned(value)?),
            tag::NO_SUCH_OBJECT => Value::NoSuchObject,
            tag::NO_SUCH_INSTANCE => Value::NoSuchInstance,
            tag::END_OF_MIB_VIEW => Value::EndOfMibView,
            _ => return Err(Error::Malformed("unknown value tag")),
        })
    }
}

/// PDU kind (the context tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PduType {
    /// GetRequest (0xa0).
    Get,
    /// GetNextRequest (0xa1).
    GetNext,
    /// Response (0xa2).
    Response,
    /// SetRequest (0xa3).
    Set,
}

impl PduType {
    fn tag(&self) -> u8 {
        match self {
            PduType::Get => 0xa0,
            PduType::GetNext => 0xa1,
            PduType::Response => 0xa2,
            PduType::Set => 0xa3,
        }
    }

    fn from_tag(t: u8) -> Result<PduType> {
        Ok(match t {
            0xa0 => PduType::Get,
            0xa1 => PduType::GetNext,
            0xa2 => PduType::Response,
            0xa3 => PduType::Set,
            _ => return Err(Error::Malformed("unknown PDU tag")),
        })
    }
}

/// SNMPv2 error-status codes (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorStatus {
    /// Success.
    NoError,
    /// Response would not fit.
    TooBig,
    /// Value cannot be set to that.
    BadValue,
    /// General failure.
    GenErr,
    /// Object cannot be created.
    NoCreation,
    /// Wrong type for a set.
    WrongType,
    /// Wrong value for a set.
    WrongValue,
    /// Object is read-only.
    NotWritable,
}

impl ErrorStatus {
    /// Wire value.
    pub fn value(&self) -> i64 {
        match self {
            ErrorStatus::NoError => 0,
            ErrorStatus::TooBig => 1,
            ErrorStatus::BadValue => 3,
            ErrorStatus::GenErr => 5,
            ErrorStatus::NoCreation => 11,
            ErrorStatus::WrongType => 7,
            ErrorStatus::WrongValue => 10,
            ErrorStatus::NotWritable => 17,
        }
    }

    /// From wire value (unknown codes map to `GenErr`).
    pub fn from_value(v: i64) -> ErrorStatus {
        match v {
            0 => ErrorStatus::NoError,
            1 => ErrorStatus::TooBig,
            3 => ErrorStatus::BadValue,
            7 => ErrorStatus::WrongType,
            10 => ErrorStatus::WrongValue,
            11 => ErrorStatus::NoCreation,
            17 => ErrorStatus::NotWritable,
            _ => ErrorStatus::GenErr,
        }
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

    /// The success response mirroring this request with new bindings.
    pub fn response(&self, bindings: Vec<(Oid, Value)>) -> Pdu {
        Pdu {
            ty: PduType::Response,
            request_id: self.request_id,
            error_status: ErrorStatus::NoError,
            error_index: 0,
            bindings,
        }
    }

    /// An error response mirroring this request (bindings echoed back, as
    /// the RFC requires).
    pub fn error_response(&self, status: ErrorStatus, index: i64) -> Pdu {
        Pdu {
            ty: PduType::Response,
            request_id: self.request_id,
            error_status: status,
            error_index: index,
            bindings: self.bindings.clone(),
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

/// Room reserved up front in [`SnmpMessage::encode`]'s buffer: a request
/// or a row write fits, a longer message grows the buffer as it is
/// written.
const ENCODE_CAPACITY: usize = 128;

impl SnmpMessage {
    /// Wrap a PDU with a community.
    pub fn new(community: impl Into<String>, pdu: Pdu) -> SnmpMessage {
        SnmpMessage {
            community: community.into(),
            pdu,
        }
    }

    /// Encode to BER bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(ENCODE_CAPACITY);
        let out = &mut buf;
        let msg = ber::open(out, tag::SEQUENCE);
        ber::put_integer(out, tag::INTEGER, VERSION_2C);
        ber::put_tlv(out, tag::OCTET_STRING, self.community.as_bytes());
        let pdu = ber::open(out, self.pdu.ty.tag());
        ber::put_integer(out, tag::INTEGER, self.pdu.request_id);
        ber::put_integer(out, tag::INTEGER, self.pdu.error_status.value());
        ber::put_integer(out, tag::INTEGER, self.pdu.error_index);
        let varbinds = ber::open(out, tag::SEQUENCE);
        for (oid, val) in &self.pdu.bindings {
            let vb = ber::open(out, tag::SEQUENCE);
            ber::put_oid(out, oid);
            val.encode(out);
            ber::close(out, vb);
        }
        ber::close(out, varbinds);
        ber::close(out, pdu);
        ber::close(out, msg);
        buf.freeze()
    }

    /// Decode from BER bytes.
    pub fn decode(data: &[u8]) -> Result<SnmpMessage> {
        let mut s = data;
        let (t, mut body) = ber::get_tlv(&mut s)?;
        if t != tag::SEQUENCE {
            return Err(Error::Malformed("message must be a SEQUENCE"));
        }
        let (t, v) = ber::get_tlv(&mut body)?;
        if t != tag::INTEGER || ber::parse_integer(v)? != VERSION_2C {
            return Err(Error::Malformed("only SNMPv2c supported"));
        }
        let (t, v) = ber::get_tlv(&mut body)?;
        if t != tag::OCTET_STRING {
            return Err(Error::Malformed("community must be an OCTET STRING"));
        }
        let community = String::from_utf8_lossy(v).into_owned();
        let (ptag, mut pdu_body) = ber::get_tlv(&mut body)?;
        let ty = PduType::from_tag(ptag)?;
        let (t, v) = ber::get_tlv(&mut pdu_body)?;
        if t != tag::INTEGER {
            return Err(Error::Malformed("request-id must be INTEGER"));
        }
        let request_id = ber::parse_integer(v)?;
        let (_, v) = ber::get_tlv(&mut pdu_body)?;
        let error_status = ErrorStatus::from_value(ber::parse_integer(v)?);
        let (_, v) = ber::get_tlv(&mut pdu_body)?;
        let error_index = ber::parse_integer(v)?;
        let (t, mut vbs) = ber::get_tlv(&mut pdu_body)?;
        if t != tag::SEQUENCE {
            return Err(Error::Malformed("varbind list must be a SEQUENCE"));
        }
        let mut bindings = Vec::new();
        while !vbs.is_empty() {
            let (t, mut vb) = ber::get_tlv(&mut vbs)?;
            if t != tag::SEQUENCE {
                return Err(Error::Malformed("varbind must be a SEQUENCE"));
            }
            let (t, v) = ber::get_tlv(&mut vb)?;
            if t != tag::OID {
                return Err(Error::Malformed("varbind name must be an OID"));
            }
            let oid = ber::parse_oid(v)?;
            let (t, v) = ber::get_tlv(&mut vb)?;
            bindings.push((oid, Value::decode(t, v)?));
        }
        Ok(SnmpMessage {
            community,
            pdu: Pdu {
                ty,
                request_id,
                error_status,
                error_index,
                bindings,
            },
        })
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
        let req = Pdu::request(
            PduType::Set,
            9,
            vec![(oid("1.3.6.1.2.1.1.5.0"), Value::OctetString(b"x".to_vec()))],
        );
        let resp = req.error_response(ErrorStatus::NotWritable, 1);
        assert_eq!(resp.request_id, 9);
        assert_eq!(resp.error_status, ErrorStatus::NotWritable);
        assert_eq!(resp.error_index, 1);
        assert_eq!(resp.bindings, req.bindings);
        // And it survives the wire.
        let msg = SnmpMessage::new("public", resp);
        assert_eq!(SnmpMessage::decode(&msg.encode()).unwrap(), msg);
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
        assert!(Value::EndOfMibView.is_exception());
        assert!(!Value::Null.is_exception());
    }
}
