//! EUI-48 MAC addresses.

use core::fmt;
use core::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// Stored big-endian, exactly as it appears on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero address, used as "unspecified".
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Construct from raw octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Construct a locally-administered unicast address from a 32-bit host
    /// id. Useful for deterministic test topologies: `MacAddr::host(7)` is
    /// `02:00:00:00:00:07`.
    pub const fn host(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Raw octets, wire order.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// True when the group bit (I/G, least-significant bit of the first
    /// octet) is set; broadcast is also multicast.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for addresses that are neither multicast nor broadcast.
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }

    /// The address as a `u64` with the two high octets zero. Handy as a map
    /// key or for OXM encoding.
    pub fn to_u64(&self) -> u64 {
        let [a, b, c, d, e, f] = self.0;
        u64::from_be_bytes([0, 0, a, b, c, d, e, f])
    }

    /// Inverse of [`MacAddr::to_u64`]; the top 16 bits are ignored.
    pub fn from_u64(v: u64) -> Self {
        let [_, _, a, b, c, d, e, f] = v.to_be_bytes();
        MacAddr([a, b, c, d, e, f])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// Error returned by [`MacAddr::from_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseMacError;

impl fmt::Display for ParseMacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address syntax")
    }
}

impl std::error::Error for ParseMacError {}

impl FromStr for MacAddr {
    type Err = ParseMacError;

    /// Accepts `aa:bb:cc:dd:ee:ff` and `aa-bb-cc-dd-ee-ff`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split([':', '-']);
        for octet in &mut out {
            let part = parts.next().filter(|p| p.len() == 2).ok_or(ParseMacError)?;
            *octet = u8::from_str_radix(part, 16).map_err(|_| ParseMacError)?;
        }
        if parts.next().is_some() {
            return Err(ParseMacError);
        }
        Ok(MacAddr(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trip() {
        let m: MacAddr = "02:1a:ff:00:9c:7e".parse().unwrap();
        assert_eq!(m.to_string(), "02:1a:ff:00:9c:7e");
    }

    #[test]
    fn parse_dash_form() {
        let m: MacAddr = "aa-bb-cc-dd-ee-ff".parse().unwrap();
        assert_eq!(m, MacAddr([0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff]));
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee:ff:00".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee:fg".parse::<MacAddr>().is_err());
        assert!("aabb:cc:dd:ee:ff".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_is_multicast() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::BROADCAST.is_unicast());
    }

    #[test]
    fn host_addresses_are_local_unicast() {
        let m = MacAddr::host(42);
        assert!(m.is_unicast());
        assert!(m.0[0] & 0x02 != 0, "the locally administered bit");
        assert_eq!(m.octets()[5], 42);
    }

    #[test]
    fn u64_round_trip() {
        let m = MacAddr([0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc]);
        assert_eq!(MacAddr::from_u64(m.to_u64()), m);
        assert_eq!(m.to_u64(), 0x1234_5678_9abc);
    }
}
