//! The legacy switch's MIB: a [`MibStore`] view over a live [`Bridge`].
//!
//! Reads serve MIB-II system/interfaces plus the Q-BRIDGE static VLAN
//! table; writes apply Q-BRIDGE sets directly to the bridge, which is
//! exactly the path the HARMLESS Manager's NAPALM dialects use.
//! Each request is answered from the bridge itself — an OID splits into
//! a column of `COLUMNS` and one index arc — not from a built table.

use mgmt::oid::Oid;
use mgmt::pdu::{ErrorStatus, Value};
use mgmt::{mibs, MibStore};

use netpkt::vlan::VlanTag;

use crate::bridge::{Bridge, BridgeConfigError, PortSet};

/// Identity strings advertised by the agent.
#[derive(Debug, Clone)]
pub struct SysInfo {
    /// `sysDescr.0` — the NAPALM dialects sniff this.
    pub descr: String,
    /// `sysName.0`.
    pub name: String,
}

impl Default for SysInfo {
    fn default() -> Self {
        SysInfo {
            descr: "Acme EtherFabric 4100 generic-l2 Q-BRIDGE switch".into(),
            name: "legacy-sw".into(),
        }
    }
}

/// A mutable MIB view over a bridge. Construct one per request.
pub struct BridgeMib<'a> {
    /// The live bridge.
    pub bridge: &'a mut Bridge,
    /// Identity strings.
    pub sys: &'a SysInfo,
    /// Uptime in centiseconds.
    pub uptime_cs: u32,
}

/// A column of the MIB: one object type, instantiated per [`Index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Column {
    SysDescr,
    SysUpTime,
    SysName,
    IfNumber,
    IfDescr,
    IfOperStatus,
    IfInOctets,
    IfOutOctets,
    VlanEgress,
    VlanUntagged,
    VlanRowStatus,
    Pvid,
}

/// What the instance arc after a column's OID is: 0 for a scalar, else
/// a port number or a VLAN id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Index {
    Scalar,
    Port,
    Vlan,
}

impl Column {
    fn index(self) -> Index {
        match self {
            Column::SysDescr | Column::SysUpTime | Column::SysName | Column::IfNumber => {
                Index::Scalar
            }
            Column::VlanEgress | Column::VlanUntagged | Column::VlanRowStatus => Index::Vlan,
            _ => Index::Port,
        }
    }
}

/// The columns served, in OID order; none is a prefix of another. An
/// instance is a column's OID plus its one index arc.
const COLUMNS: [(&[u32], Column); 12] = [
    (mibs::SYS_DESCR, Column::SysDescr),
    (mibs::SYS_UPTIME, Column::SysUpTime),
    (mibs::SYS_NAME, Column::SysName),
    (mibs::IF_NUMBER, Column::IfNumber),
    (mibs::IF_DESCR, Column::IfDescr),
    (mibs::IF_OPER_STATUS, Column::IfOperStatus),
    (mibs::IF_IN_OCTETS, Column::IfInOctets),
    (mibs::IF_OUT_OCTETS, Column::IfOutOctets),
    (mibs::VLAN_STATIC_EGRESS_PORTS, Column::VlanEgress),
    (mibs::VLAN_STATIC_UNTAGGED_PORTS, Column::VlanUntagged),
    (mibs::VLAN_STATIC_ROW_STATUS, Column::VlanRowStatus),
    (mibs::PVID, Column::Pvid),
];

impl BridgeMib<'_> {
    /// Split an instance OID into its column and index arc.
    fn decompose(oid: &Oid) -> Option<(Column, u32)> {
        let (&instance, column) = oid.arcs().split_last()?;
        let (_, c) = COLUMNS.iter().find(|(prefix, _)| *prefix == column)?;
        Some((*c, instance))
    }

    /// The value of one instance, if it exists. The arc is narrowed
    /// checked: one beyond a port or VLAN id never aliases a real one.
    fn value(&self, column: Column, instance: u32) -> Option<Value> {
        let b = &*self.bridge;
        let n = b.n_ports();
        let id = u16::try_from(instance).ok()?;
        let vlan = || b.vlan(id);
        let exists = match column.index() {
            Index::Scalar => id == 0,
            Index::Port => (1..=n).contains(&id),
            Index::Vlan => vlan().is_some(),
        };
        if !exists {
            return None;
        }
        let text = |s: &str| Value::OctetString(s.as_bytes().to_vec());
        let portlist = |ports: &PortSet| {
            let ports: Vec<u16> = ports.iter().collect();
            Value::OctetString(mibs::encode_portlist(&ports, n))
        };
        Some(match column {
            Column::SysDescr => text(&self.sys.descr),
            Column::SysUpTime => Value::TimeTicks(self.uptime_cs),
            Column::SysName => text(&self.sys.name),
            Column::IfNumber => Value::Integer(i64::from(n)),
            Column::IfDescr => text(&format!("port{id}")),
            Column::IfOperStatus => Value::Integer(1),
            Column::IfInOctets => Value::Counter32(b.counters(id).rx_octets as u32),
            Column::IfOutOctets => Value::Counter32(b.counters(id).tx_octets as u32),
            Column::VlanEgress => portlist(&vlan()?.egress),
            Column::VlanUntagged => portlist(&vlan()?.untagged),
            Column::VlanRowStatus => Value::Integer(mibs::ROW_ACTIVE),
            Column::Pvid => Value::Gauge32(u32::from(b.pvid(id))),
        })
    }

    /// The smallest index arc of `column` above `after` (`None`: the
    /// smallest of all).
    fn next_instance(&self, column: Column, after: Option<u32>) -> Option<u32> {
        let from = match after {
            None => 0,
            Some(arc) => arc.checked_add(1)?,
        };
        match column.index() {
            Index::Scalar => (from == 0).then_some(0),
            Index::Port => {
                let port = from.max(1);
                (port <= u32::from(self.bridge.n_ports())).then_some(port)
            }
            Index::Vlan => {
                let from = u16::try_from(from).ok()?;
                let table = self.bridge.vlans();
                let (vid, _) = table.get(table.partition_point(|(vid, _)| *vid < from))?;
                Some(u32::from(*vid))
            }
        }
    }
}

impl MibStore for BridgeMib<'_> {
    fn get(&self, oid: &Oid) -> Option<Value> {
        let (column, instance) = Self::decompose(oid)?;
        self.value(column, instance)
    }

    fn next(&self, oid: &Oid) -> Option<(Oid, Value)> {
        let arcs = oid.arcs();
        COLUMNS.iter().find_map(|&(prefix, column)| {
            // Inside the column's subtree the arc after the prefix says
            // where to resume — a longer OID sorts between that instance
            // and the next; before the subtree, at its first instance;
            // past it, in a later column.
            let after = if arcs.starts_with(prefix) {
                arcs.get(prefix.len()).copied()
            } else if arcs < prefix {
                None
            } else {
                return None;
            };
            let instance = self.next_instance(column, after)?;
            let value = self.value(column, instance)?;
            Some((Oid::instance(prefix, instance), value))
        })
    }

    fn set(&mut self, bindings: &[(Oid, Value)]) -> Result<(), (usize, ErrorStatus)> {
        // Every binding is checked before any is written, against the
        // bridge as the bindings before it would leave it — which differs
        // from the bridge only in which VLANs exist.
        let mut changes: Vec<Change> = Vec::with_capacity(bindings.len());
        for (i, (oid, value)) in bindings.iter().enumerate() {
            let change = Change::decode(oid, value).map_err(|status| (i, status))?;
            let exists = |vid| {
                let earlier = changes.iter().rev().find_map(|c| c.row(vid));
                earlier.unwrap_or_else(|| self.bridge.vlan(vid).is_some())
            };
            if !change.accepted(self.bridge.n_ports(), exists) {
                return Err((i, ErrorStatus::WrongValue));
            }
            changes.push(change);
        }
        for change in changes {
            change
                .apply(self.bridge)
                .expect("every change was checked before any was written");
        }
        Ok(())
    }
}

/// One SET binding, decoded: the change it asks of the bridge.
enum Change {
    /// A VLAN's egress ports, creating the VLAN if it does not exist.
    Egress(u16, Vec<u16>),
    /// A VLAN's untagged ports, likewise.
    Untagged(u16, Vec<u16>),
    /// `createAndGo` of a VLAN.
    Create(u16),
    /// `destroy` of a VLAN.
    Destroy(u16),
    /// `(port, vid)`: a port's PVID.
    Pvid(u16, u16),
}

impl Change {
    /// Decode one binding. Only the VLAN table and PVIDs are writable;
    /// everything else, sysName included, keeps its identity.
    fn decode(oid: &Oid, value: &Value) -> Result<Change, ErrorStatus> {
        fn wrong<E>(_: E) -> ErrorStatus {
            ErrorStatus::WrongValue
        }
        let (column, instance) = BridgeMib::decompose(oid)
            .filter(|(c, _)| *c == Column::Pvid || c.index() == Index::Vlan)
            .ok_or(ErrorStatus::NotWritable)?;
        let index = u16::try_from(instance).map_err(wrong)?;
        Ok(match column {
            Column::VlanEgress | Column::VlanUntagged => {
                let bytes = value.as_bytes().ok_or(ErrorStatus::WrongType)?;
                let ports = mibs::decode_portlist(bytes).ok_or(ErrorStatus::WrongValue)?;
                if column == Column::VlanEgress {
                    Change::Egress(index, ports)
                } else {
                    Change::Untagged(index, ports)
                }
            }
            Column::VlanRowStatus => match value.as_int() {
                Some(mibs::ROW_CREATE_AND_GO) => Change::Create(index),
                Some(mibs::ROW_DESTROY) => Change::Destroy(index),
                Some(_) => return Err(ErrorStatus::WrongValue),
                None => return Err(ErrorStatus::WrongType),
            },
            _ => {
                let vid = value.as_int().ok_or(ErrorStatus::WrongType)?;
                Change::Pvid(index, u16::try_from(vid).map_err(wrong)?)
            }
        })
    }

    /// Whether VLAN `vid` exists after this change, if the change
    /// decides it.
    fn row(&self, vid: u16) -> Option<bool> {
        match *self {
            Change::Egress(v, _) | Change::Untagged(v, _) | Change::Create(v) => {
                (v == vid).then_some(true)
            }
            Change::Destroy(v) => (v == vid).then_some(false),
            Change::Pvid(..) => None,
        }
    }

    /// Whether a bridge of `n_ports` ports, with the VLANs `exists`
    /// names, takes the change: [`Bridge`]'s own rules, which ask only
    /// for valid VLAN ids, ports it has and VLANs that exist.
    fn accepted(&self, n_ports: u16, exists: impl Fn(u16) -> bool) -> bool {
        let port = |p: &u16| (1..=n_ports).contains(p);
        match self {
            Change::Egress(vid, ports) | Change::Untagged(vid, ports) => {
                VlanTag::vid_is_valid(*vid) && ports.iter().all(port)
            }
            Change::Create(vid) => VlanTag::vid_is_valid(*vid),
            Change::Destroy(vid) => exists(*vid),
            Change::Pvid(p, vid) => port(p) && exists(*vid),
        }
    }

    fn apply(self, bridge: &mut Bridge) -> Result<(), BridgeConfigError> {
        match self {
            Change::Egress(vid, ports) => bridge
                .create_vlan(vid)
                .and_then(|()| bridge.set_egress(vid, &ports)),
            Change::Untagged(vid, ports) => bridge
                .create_vlan(vid)
                .and_then(|()| bridge.set_untagged(vid, &ports)),
            Change::Create(vid) => bridge.create_vlan(vid),
            Change::Destroy(vid) => bridge.destroy_vlan(vid),
            Change::Pvid(port, vid) => bridge.set_pvid(port, vid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgmt::pdu::{Pdu, PduType, SnmpMessage};
    use mgmt::store::agent_respond;

    /// The oracle: every instance this agent serves with its current
    /// value, enumerated from the bridge and sorted — what `get` and
    /// `next` used to build per request and search.
    fn snapshot(mib: &BridgeMib) -> Vec<(Oid, Value)> {
        let b = &mib.bridge;
        let n = b.n_ports();
        let mut out: Vec<(Oid, Value)> = vec![
            (
                Oid::instance(mibs::SYS_DESCR, 0),
                Value::OctetString(mib.sys.descr.clone().into_bytes()),
            ),
            (
                Oid::instance(mibs::SYS_UPTIME, 0),
                Value::TimeTicks(mib.uptime_cs),
            ),
            (
                Oid::instance(mibs::SYS_NAME, 0),
                Value::OctetString(mib.sys.name.clone().into_bytes()),
            ),
            (
                Oid::instance(mibs::IF_NUMBER, 0),
                Value::Integer(i64::from(n)),
            ),
        ];
        for p in 1..=n {
            let c = b.counters(p);
            out.push((
                Oid::instance(mibs::IF_DESCR, p.into()),
                Value::OctetString(format!("port{p}").into_bytes()),
            ));
            out.push((
                Oid::instance(mibs::IF_OPER_STATUS, p.into()),
                Value::Integer(1),
            ));
            out.push((
                Oid::instance(mibs::IF_IN_OCTETS, p.into()),
                Value::Counter32(c.rx_octets as u32),
            ));
            out.push((
                Oid::instance(mibs::IF_OUT_OCTETS, p.into()),
                Value::Counter32(c.tx_octets as u32),
            ));
        }
        for &(vid, ref entry) in b.vlans() {
            let egress: Vec<u16> = entry.egress.iter().collect();
            let untagged: Vec<u16> = entry.untagged.iter().collect();
            out.push((
                Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, vid.into()),
                Value::OctetString(mibs::encode_portlist(&egress, n)),
            ));
            out.push((
                Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, vid.into()),
                Value::OctetString(mibs::encode_portlist(&untagged, n)),
            ));
            out.push((
                Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, vid.into()),
                Value::Integer(mibs::ROW_ACTIVE),
            ));
        }
        for p in 1..=n {
            out.push((
                Oid::instance(mibs::PVID, p.into()),
                Value::Gauge32(u32::from(b.pvid(p))),
            ));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// `get` and `next` answer `oid` as a search of the snapshot would.
    fn assert_agrees(mib: &BridgeMib, rows: &[(Oid, Value)], oid: &Oid) {
        let row = rows.iter().find(|(o, _)| o == oid);
        assert_eq!(mib.get(oid), row.map(|(_, v)| v.clone()), "get {oid}");
        let after = rows.iter().find(|(o, _)| o > oid);
        assert_eq!(mib.next(oid), after.cloned(), "next {oid}");
    }

    #[test]
    fn columns_are_the_mibs_oids_in_getnext_order() {
        // Sorted, and none a prefix of the next (so of any later one): an
        // instance names one column, and a walk visits them in order.
        for w in COLUMNS.windows(2) {
            let [(a, _), (b, _)] = [w[0], w[1]];
            assert!(a < b && !b.starts_with(a), "{a:?} before {b:?}");
        }
    }

    #[test]
    fn get_and_next_agree_with_the_snapshot_on_random_bridges() {
        // xorshift: bridge shapes and probes repeat from run to run.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rand = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..40 {
            let n = 1 + rand(20) as u16;
            let mut b = Bridge::new(n);
            for _ in 0..rand(12) {
                let port = 1 + rand(u64::from(n)) as u16;
                let vid = 2 + rand(300) as u16;
                match rand(4) {
                    0 => b.make_access_port(port, vid).unwrap(),
                    1 => b.make_trunk_port(port, &[vid, vid + 1000]).unwrap(),
                    2 => b.create_vlan(vid).unwrap(),
                    // Refused while a port's PVID still names the VLAN.
                    _ => drop(b.destroy_vlan(vid)),
                }
            }
            with_mib(&mut b, |mib| {
                let rows = snapshot(mib);
                // A walk from the root visits the snapshot, in its order.
                let mut cur: Oid = "1".parse().unwrap();
                for row in &rows {
                    assert_eq!(mib.next(&cur).as_ref(), Some(row));
                    cur = row.0.clone();
                }
                assert_eq!(mib.next(&cur), None);
                for (oid, _) in &rows {
                    let (last, stem) = oid.arcs().split_last().unwrap();
                    // The row, its column, a longer OID under it, the
                    // gap after it, and its neighbours' columns.
                    let mut probes = vec![oid.clone(), Oid::new(stem), oid.child(0), oid.child(7)];
                    probes.push(Oid::new(stem).child(last + 1));
                    probes.push(Oid::new(stem).child(u32::MAX));
                    let (col, table) = stem.split_last().unwrap();
                    probes.push(Oid::new(table).child(col + 1));
                    probes.push(Oid::new(table).child(col.saturating_sub(1)).child(*last));
                    for probe in &probes {
                        assert_agrees(mib, &rows, probe);
                    }
                }
                // Before the first column, between subtrees, past the
                // last, arcs that only fit a u32, and random ones.
                for text in [
                    "0",
                    "1.3",
                    "1.3.6.1.2.1.1",
                    "1.3.6.1.2.1.1.1",
                    "1.3.6.1.2.1.1.2.0",
                    "1.3.6.1.2.1.1.9",
                    "1.3.6.1.2.1.2.2.1.1.1",
                    "1.3.6.1.2.1.2.2.1.9.1",
                    "1.3.6.1.2.1.2.2.1.99",
                    "1.3.6.1.2.1.17.7.1.4.3.1.258.1",
                    "1.3.6.1.2.1.17.7.1.4.3.1.2.65537",
                    "1.3.6.1.2.1.17.7.1.4.4",
                    "1.3.6.1.2.1.17.7.1.4.5.1.1.65537",
                    "1.3.6.1.2.1.17.7.1.4.5.1.1.4294967295",
                    "1.3.6.1.2.1.17.7.1.4.5.1.2",
                    "1.3.6.1.4.1",
                    "2",
                ] {
                    assert_agrees(mib, &rows, &text.parse().unwrap());
                }
                for _ in 0..200 {
                    let (oid, _) = &rows[rand(rows.len() as u64) as usize];
                    let mut arcs = oid.arcs().to_vec();
                    let at = rand(arcs.len() as u64) as usize;
                    arcs[at] = rand(400) as u32;
                    arcs.truncate(at + 1 + rand(3) as usize);
                    assert_agrees(mib, &rows, &Oid(arcs));
                }
            });
        }
    }

    #[test]
    fn oid_arcs_beyond_a_vlan_id_do_not_alias_one() {
        let mut b = Bridge::new(4);
        b.make_access_port(1, 5).unwrap();
        let before = format!("{:?}", b.vlans());
        with_mib(&mut b, |mib| {
            // 65541 = 65536 + 5.
            let oid: Oid = "1.3.6.1.2.1.17.7.1.4.3.1.2.65541".parse().unwrap();
            let ports = Value::OctetString(mibs::encode_portlist(&[2, 3], 4));
            assert_eq!(set1(mib, &oid, &ports), Err(ErrorStatus::WrongValue));
            assert_eq!(mib.get(&oid), None);
        });
        assert_eq!(format!("{:?}", b.vlans()), before, "VLAN 5 untouched");
    }

    #[test]
    fn column_arcs_beyond_a_byte_do_not_alias_a_column() {
        let mut b = Bridge::new(4);
        b.make_access_port(1, 5).unwrap();
        let before = format!("{:?}", b.vlans());
        with_mib(&mut b, |mib| {
            // 258 = 256 + 2, dot1qVlanStaticEgressPorts.
            let oid: Oid = "1.3.6.1.2.1.17.7.1.4.3.1.258.5".parse().unwrap();
            let ports = Value::OctetString(mibs::encode_portlist(&[2, 3], 4));
            assert_eq!(set1(mib, &oid, &ports), Err(ErrorStatus::NotWritable));
            assert_eq!(mib.get(&oid), None);
        });
        assert_eq!(format!("{:?}", b.vlans()), before, "VLAN 5 untouched");
    }

    #[test]
    fn portlist_bits_beyond_a_port_number_do_not_alias_a_port() {
        let mut b = Bridge::new(4);
        b.make_access_port(1, 5).unwrap();
        let before = format!("{:?}", b.vlans());
        with_mib(&mut b, |mib| {
            // Port 65537 = 65536 + 1: the top bit of octet 8192.
            let mut ports = vec![0u8; 8192];
            ports.push(0x80);
            let oid: Oid = "1.3.6.1.2.1.17.7.1.4.3.1.2.5".parse().unwrap();
            assert_eq!(
                set1(mib, &oid, &Value::OctetString(ports)),
                Err(ErrorStatus::WrongValue)
            );
        });
        assert_eq!(format!("{:?}", b.vlans()), before, "VLAN 5 untouched");
    }

    #[test]
    fn pvid_arcs_beyond_a_port_number_do_not_alias_a_port() {
        let mut b = Bridge::new(4);
        b.create_vlan(7).unwrap();
        with_mib(&mut b, |mib| {
            // 65537 = 65536 + 1.
            let oid = Oid::instance(mibs::PVID, 65537);
            assert_eq!(
                set1(mib, &oid, &Value::Gauge32(7)),
                Err(ErrorStatus::WrongValue)
            );
            assert_eq!(mib.get(&oid), None);
        });
        assert_eq!(b.pvid(1), 1, "port 1 untouched");
    }

    /// One binding through the store's all-or-nothing `set`.
    fn set1(mib: &mut BridgeMib, oid: &Oid, value: &Value) -> Result<(), ErrorStatus> {
        mib.set(&[(oid.clone(), value.clone())])
            .map_err(|(_, status)| status)
    }

    fn with_mib<R>(bridge: &mut Bridge, f: impl FnOnce(&mut BridgeMib) -> R) -> R {
        let sys = SysInfo::default();
        let mut mib = BridgeMib {
            bridge,
            sys: &sys,
            uptime_cs: 100,
        };
        f(&mut mib)
    }

    #[test]
    fn reads_reflect_bridge_state() {
        let mut b = Bridge::new(4);
        b.make_access_port(1, 101).unwrap();
        with_mib(&mut b, |mib| {
            let v = mib.get(&Oid::instance(mibs::PVID, 1)).unwrap();
            assert_eq!(v, Value::Gauge32(101));
            let v = mib
                .get(&Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 101))
                .unwrap();
            assert_eq!(v, Value::Integer(mibs::ROW_ACTIVE));
            let v = mib.get(&Oid::instance(mibs::IF_NUMBER, 0)).unwrap();
            assert_eq!(v, Value::Integer(4));
            assert!(mib
                .get(&Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 999))
                .is_none());
        });
    }

    #[test]
    fn qbridge_sets_reconfigure_the_bridge() {
        let mut b = Bridge::new(5);
        with_mib(&mut b, |mib| {
            // The QBridgeDialect plan for VLAN 101, egress {1,5}, untagged {1}.
            set1(
                mib,
                &Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, 101),
                &Value::OctetString(mibs::encode_portlist(&[1, 5], 5)),
            )
            .unwrap();
            set1(
                mib,
                &Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, 101),
                &Value::OctetString(mibs::encode_portlist(&[1], 5)),
            )
            .unwrap();
            set1(
                mib,
                &Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 101),
                &Value::Integer(mibs::ROW_CREATE_AND_GO),
            )
            .unwrap();
            set1(mib, &Oid::instance(mibs::PVID, 1), &Value::Gauge32(101)).unwrap();
        });
        assert_eq!(b.pvid(1), 101);
        let v = b.vlan(101).unwrap();
        assert_eq!(v.egress.iter().collect::<Vec<_>>(), vec![1, 5]);
        assert_eq!(v.untagged.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn destroy_via_rowstatus() {
        let mut b = Bridge::new(4);
        b.make_access_port(2, 102).unwrap();
        with_mib(&mut b, |mib| {
            set1(
                mib,
                &Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 102),
                &Value::Integer(mibs::ROW_DESTROY),
            )
            .unwrap();
        });
        assert!(b.vlan(102).is_none());
    }

    #[test]
    fn bad_writes_rejected() {
        let mut b = Bridge::new(4);
        with_mib(&mut b, |mib| {
            // PVID to a nonexistent VLAN.
            assert_eq!(
                set1(mib, &Oid::instance(mibs::PVID, 1), &Value::Gauge32(999)),
                Err(ErrorStatus::WrongValue)
            );
            // Wrong type.
            assert_eq!(
                set1(
                    mib,
                    &Oid::instance(mibs::PVID, 1),
                    &Value::OctetString(vec![1])
                ),
                Err(ErrorStatus::WrongType)
            );
            // Read-only scalar.
            assert_eq!(
                set1(
                    mib,
                    &Oid::instance(mibs::SYS_DESCR, 0),
                    &Value::OctetString(b"nope".to_vec())
                ),
                Err(ErrorStatus::NotWritable)
            );
        });
    }

    /// RFC 3416 §4.2.5: a SET is all or nothing. A rejected binding
    /// leaves the bridge as it was, whatever bindings before it, or the
    /// rejected one itself, would have written.
    #[test]
    fn a_rejected_set_leaves_the_bridge_unchanged() {
        let mut b = Bridge::new(4);
        b.make_access_port(2, 102).unwrap();
        let before = (format!("{:?}", b.vlans()), b.pvid(1));
        let sys = SysInfo::default();
        let mut mib = BridgeMib {
            bridge: &mut b,
            sys: &sys,
            uptime_cs: 1,
        };
        let requests = [
            // The row is created first; the PVID names a VLAN that does
            // not exist.
            vec![
                (
                    Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 101),
                    Value::Integer(mibs::ROW_CREATE_AND_GO),
                ),
                (Oid::instance(mibs::PVID, 1), Value::Gauge32(999)),
            ],
            // A VLAN destroyed, then a write to a read-only scalar.
            vec![
                (
                    Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 102),
                    Value::Integer(mibs::ROW_DESTROY),
                ),
                (
                    Oid::instance(mibs::SYS_NAME, 0),
                    Value::OctetString(b"renamed".to_vec()),
                ),
            ],
        ];
        for (id, bindings) in (1..).zip(requests) {
            let req = SnmpMessage::new("public", Pdu::request(PduType::Set, id, bindings));
            let resp = agent_respond(&mut mib, "public", &req).unwrap();
            assert_ne!(resp.pdu.error_status, ErrorStatus::NoError);
            assert_eq!(resp.pdu.error_index, 2, "the second binding is named");
        }
        // One binding that creates its row before it fails on a port the
        // bridge does not have.
        assert_eq!(
            set1(
                &mut mib,
                &Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, 103),
                &Value::OctetString(mibs::encode_portlist(&[1, 9], 9)),
            ),
            Err(ErrorStatus::WrongValue)
        );
        assert_eq!((format!("{:?}", b.vlans()), b.pvid(1)), before);
    }

    /// The oracle of an all-or-nothing SET: `Change::accepted` restates
    /// `Bridge`'s rules, and `set` writes only what it accepted. Two
    /// bridges are built from one seed (a `Bridge` has no `Clone`). One
    /// takes a random request's changes one at a time through `Bridge`'s
    /// own setters, up to the first it refuses, and `accepted` must have
    /// called every one before it was tried. The other takes the whole
    /// request through `set`: the same state if every change was taken,
    /// its own state and the refused binding's index if one was not. A
    /// rule added to `Bridge` and not to `accepted` fails here, not in a
    /// SET's `expect`.
    #[test]
    fn a_set_is_accepted_exactly_when_the_bridge_takes_every_change() {
        fn xorshift(mut state: u64) -> impl FnMut(u64) -> u64 {
            move |n| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % n
            }
        }
        // VLAN ids around both ends of the valid range, few enough that
        // rows are created, destroyed and named again within a request.
        const VIDS: [u16; 8] = [0, 1, 2, 3, 5, 4094, 4095, 4096];
        let bridge = |seed: u64| {
            let mut rand = xorshift(seed | 1);
            let mut b = Bridge::new(1 + rand(6) as u16);
            for _ in 0..rand(6) {
                let port = 1 + rand(u64::from(b.n_ports())) as u16;
                let vid = VIDS[1 + rand(5) as usize];
                // Refusals leave the shape random too.
                let _ = match rand(4) {
                    0 => b.make_access_port(port, vid),
                    1 => b.make_trunk_port(port, &[vid, VIDS[1 + rand(5) as usize]]),
                    2 => b.create_vlan(vid),
                    _ => b.destroy_vlan(vid),
                };
            }
            b
        };
        let state = |b: &Bridge| {
            let pvids: Vec<u16> = (1..=b.n_ports()).map(|p| b.pvid(p)).collect();
            format!("{:?} {pvids:?}", b.vlans())
        };
        let mut rand = xorshift(0x2545_f491_4f6c_dd1d);
        let sys = SysInfo::default();
        let (mut taken_all, mut refused_some) = (0, 0);
        for case in 0..4_000 {
            let seed = rand(u64::MAX);
            let (mut a, mut b) = (bridge(seed), bridge(seed));
            let n = b.n_ports();
            // Ports one past the bridge's either way; only writable,
            // well-typed bindings, so every one decodes.
            let bindings: Vec<(Oid, Value)> = (0..1 + rand(4))
                .map(|_| {
                    let vid = VIDS[rand(8) as usize];
                    let ports: Vec<u16> = (1..=n + 1).filter(|_| rand(3) == 0).collect();
                    let portlist = Value::OctetString(mibs::encode_portlist(&ports, n + 1));
                    match rand(5) {
                        0 => (
                            Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, vid.into()),
                            portlist,
                        ),
                        1 => (
                            Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, vid.into()),
                            portlist,
                        ),
                        2 => (
                            Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, vid.into()),
                            Value::Integer(mibs::ROW_CREATE_AND_GO),
                        ),
                        3 => (
                            Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, vid.into()),
                            Value::Integer(mibs::ROW_DESTROY),
                        ),
                        _ => (
                            Oid::instance(mibs::PVID, rand(u64::from(n) + 2) as u32),
                            Value::Gauge32(vid.into()),
                        ),
                    }
                })
                .collect();
            let mut refused = None;
            for (i, (oid, value)) in bindings.iter().enumerate() {
                let change = Change::decode(oid, value).expect("a writable, well-typed binding");
                let accepted = change.accepted(n, |vid| b.vlan(vid).is_some());
                let taken = change.apply(&mut b).is_ok();
                assert_eq!(
                    accepted, taken,
                    "case {case}, binding {i}: {oid} = {value:?}"
                );
                if !taken {
                    refused = Some(i);
                    break;
                }
            }
            let before = state(&a);
            let mut mib = BridgeMib {
                bridge: &mut a,
                sys: &sys,
                uptime_cs: 1,
            };
            let result = mib.set(&bindings);
            match refused {
                None => {
                    assert_eq!(result, Ok(()), "case {case}");
                    assert_eq!(state(&a), state(&b), "case {case}");
                    taken_all += 1;
                }
                Some(i) => {
                    assert_eq!(result, Err((i, ErrorStatus::WrongValue)), "case {case}");
                    assert_eq!(state(&a), before, "case {case}");
                    refused_some += 1;
                }
            }
        }
        // Both outcomes are common, so neither side goes untested.
        assert!(
            taken_all > 500 && refused_some > 500,
            "{taken_all} / {refused_some}"
        );
    }

    #[test]
    fn full_walk_via_agent() {
        let mut b = Bridge::new(2);
        b.make_access_port(1, 101).unwrap();
        let sys = SysInfo::default();
        let mut mib = BridgeMib {
            bridge: &mut b,
            sys: &sys,
            uptime_cs: 1,
        };
        // GetNext from the root enumerates something and terminates.
        let mut cur: Oid = "1".parse().unwrap();
        let mut count = 0;
        loop {
            let req = SnmpMessage::new(
                "public",
                Pdu::request(PduType::GetNext, count, vec![(cur.clone(), Value::Null)]),
            );
            let resp = agent_respond(&mut mib, "public", &req).unwrap();
            let (oid, val) = resp.pdu.bindings[0].clone();
            if val == Value::EndOfMibView {
                break;
            }
            assert!(oid > cur, "GetNext must advance");
            cur = oid;
            count += 1;
            assert!(count < 200, "walk must terminate");
        }
        // 4 scalars + 2 ports × 4 if-columns + 2 VLANs × 3 columns
        // (default VLAN 1 + 101) + 2 PVIDs = 20
        assert_eq!(count, 20);
    }
}
