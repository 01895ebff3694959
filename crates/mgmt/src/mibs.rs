//! Well-known MIB columns (MIB-II and a Q-BRIDGE-MIB subset), each
//! named once by its arcs, and the `PortList` bitmap encoding used by
//! 802.1Q VLAN tables. An instance is a column's arcs and one index arc
//! ([`Oid::instance`](crate::Oid::instance)): 0 for a scalar, else a
//! port number or a VLAN id.

/// `sysDescr` (scalar).
pub const SYS_DESCR: &[u32] = &[1, 3, 6, 1, 2, 1, 1, 1];
/// `sysUpTime` (scalar, TimeTicks).
pub const SYS_UPTIME: &[u32] = &[1, 3, 6, 1, 2, 1, 1, 3];
/// `sysName` (scalar).
pub const SYS_NAME: &[u32] = &[1, 3, 6, 1, 2, 1, 1, 5];
/// `ifNumber` (scalar).
pub const IF_NUMBER: &[u32] = &[1, 3, 6, 1, 2, 1, 2, 1];
/// `ifDescr.<ifIndex>`.
pub const IF_DESCR: &[u32] = &[1, 3, 6, 1, 2, 1, 2, 2, 1, 2];
/// `ifOperStatus.<ifIndex>` (1 = up, 2 = down).
pub const IF_OPER_STATUS: &[u32] = &[1, 3, 6, 1, 2, 1, 2, 2, 1, 8];
/// `ifInOctets.<ifIndex>`.
pub const IF_IN_OCTETS: &[u32] = &[1, 3, 6, 1, 2, 1, 2, 2, 1, 10];
/// `ifOutOctets.<ifIndex>`.
pub const IF_OUT_OCTETS: &[u32] = &[1, 3, 6, 1, 2, 1, 2, 2, 1, 16];
/// `dot1qVlanStaticEntry`: the static VLAN table, whose columns follow.
pub const VLAN_STATIC_ENTRY: &[u32] = &[1, 3, 6, 1, 2, 1, 17, 7, 1, 4, 3, 1];
/// `dot1qVlanStaticEgressPorts.<vid>` — PortList of member ports.
pub const VLAN_STATIC_EGRESS_PORTS: &[u32] = &[1, 3, 6, 1, 2, 1, 17, 7, 1, 4, 3, 1, 2];
/// `dot1qVlanStaticUntaggedPorts.<vid>` — PortList of untagged members.
pub const VLAN_STATIC_UNTAGGED_PORTS: &[u32] = &[1, 3, 6, 1, 2, 1, 17, 7, 1, 4, 3, 1, 4];
/// `dot1qVlanStaticRowStatus.<vid>` — 4 = createAndGo, 6 = destroy.
pub const VLAN_STATIC_ROW_STATUS: &[u32] = &[1, 3, 6, 1, 2, 1, 17, 7, 1, 4, 3, 1, 5];
/// `dot1qPvid.<basePort>`.
pub const PVID: &[u32] = &[1, 3, 6, 1, 2, 1, 17, 7, 1, 4, 5, 1, 1];

/// RowStatus `createAndGo`.
pub const ROW_CREATE_AND_GO: i64 = 4;
/// RowStatus `active` (read-back value of existing rows).
pub const ROW_ACTIVE: i64 = 1;
/// RowStatus `destroy`.
pub const ROW_DESTROY: i64 = 6;

/// Encode a Q-BRIDGE `PortList`: bit for port N is bit `(8 - N % 8)` of
/// octet `(N-1)/8`, i.e. port 1 is the MSB of the first octet.
pub fn encode_portlist(ports: &[u16], n_ports: u16) -> Vec<u8> {
    let mut out = vec![0u8; usize::from(n_ports).div_ceil(8)];
    for &p in ports.iter().filter(|&&p| (1..=n_ports).contains(&p)) {
        let i = usize::from(p - 1);
        if let Some(octet) = out.get_mut(i / 8) {
            *octet |= 0x80 >> (i % 8);
        }
    }
    out
}

/// The highest port number a Q-BRIDGE `PortList` names, if any (beyond
/// `u16` too).
pub fn portlist_max(bytes: &[u8]) -> Option<usize> {
    let (i, b) = bytes.iter().enumerate().rev().find(|(_, &b)| b != 0)?;
    Some(i * 8 + 8 - b.trailing_zeros() as usize)
}

/// The port numbers a Q-BRIDGE `PortList` names, ascending; read where
/// the list lies, as wide as its bits reach (beyond `u16` too).
pub fn portlist_ports(bytes: &[u8]) -> impl Iterator<Item = usize> + Clone + '_ {
    bytes.iter().enumerate().flat_map(|(i, &b)| {
        let mut rest = b;
        core::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.leading_zeros() as usize;
                rest &= !(0x80 >> bit);
                i * 8 + bit + 1
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portlist_round_trip() {
        let enc = encode_portlist(&[1, 3, 8, 9, 24], 24);
        assert_eq!(enc.len(), 3);
        let read: Vec<usize> = portlist_ports(&enc).collect();
        assert_eq!(read, [1, 3, 8, 9, 24]);
        // Port 65535, the last a u16 names, is bit 6 of octet 8191; the
        // bit after it is 65536.
        let mut long = vec![0u8; 8192];
        long[8191] = 0x03;
        assert_eq!(portlist_ports(&long).collect::<Vec<_>>(), [65535, 65536]);
        assert_eq!(portlist_max(&long), Some(65536));
        assert_eq!(portlist_max(&enc), Some(24));
        assert_eq!(portlist_max(&[0, 0]), None);
    }

    #[test]
    fn portlist_bit_positions_match_qbridge() {
        // Port 1 = MSB of first octet per the PortList TEXTUAL-CONVENTION.
        assert_eq!(encode_portlist(&[1], 8), vec![0b1000_0000]);
        assert_eq!(encode_portlist(&[8], 8), vec![0b0000_0001]);
        assert_eq!(encode_portlist(&[9], 16), vec![0, 0b1000_0000]);
    }

    #[test]
    fn portlist_ignores_out_of_range() {
        assert_eq!(encode_portlist(&[0, 99], 8), vec![0]);
    }

    #[test]
    fn oid_shapes() {
        use crate::Oid;
        assert_eq!(
            Oid::instance(PVID, 3).to_string(),
            "1.3.6.1.2.1.17.7.1.4.5.1.1.3"
        );
        assert_eq!(
            Oid::instance(VLAN_STATIC_ROW_STATUS, 101).to_string(),
            "1.3.6.1.2.1.17.7.1.4.3.1.5.101"
        );
        let entry = Oid::new(VLAN_STATIC_ENTRY);
        assert!(entry.contains(&Oid::instance(VLAN_STATIC_EGRESS_PORTS, 5)));
        assert!(entry.contains(&Oid::instance(VLAN_STATIC_ROW_STATUS, 5)));
    }
}
