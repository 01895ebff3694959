//! The VLAN-aware learning bridge (IEEE 802.1Q forwarding process).
//!
//! Configuration follows the Q-BRIDGE-MIB data model exactly, because
//! that is what the SNMP agent exposes: a static VLAN table (per-VLAN
//! egress and untagged port sets) plus a per-port PVID for ingress
//! classification of untagged frames. "Access port of VLAN v" is then
//! `pvid = v`, `v.egress ∋ p`, `v.untagged ∋ p` — precisely the state the
//! HARMLESS Manager writes.

use bytes::Bytes;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use netpkt::vlan::{self, VlanTag};
use netpkt::{frame, EtherType, FrameBuf, MacAddr};

/// Per-port traffic counters (feeds `ifInOctets`/`ifOutOctets`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Frames received.
    pub rx_frames: u64,
    /// Octets received.
    pub rx_octets: u64,
    /// Frames sent.
    pub tx_frames: u64,
    /// Octets sent.
    pub tx_octets: u64,
    /// Ingress drops (VLAN filtering, unknown VLAN).
    pub rx_filtered: u64,
}

/// A set of port numbers as a bitmap — what a Q-BRIDGE `PortList`
/// encodes. It is as long as its highest member ever needed (a bridge's
/// sets: `n_ports` bits) and answers `false` for any port beyond that.
#[derive(Clone, Default)]
pub struct PortSet {
    /// Bit `p % 64` of word `p / 64` is port `p`.
    words: Vec<u64>,
}

impl PortSet {
    /// True if `port` is a member.
    pub fn contains(&self, port: u16) -> bool {
        self.words
            .get(usize::from(port / 64))
            .is_some_and(|w| w >> (port % 64) & 1 == 1)
    }

    /// Add `port`.
    pub fn insert(&mut self, port: u16) {
        let word = usize::from(port / 64);
        if self.words.len() <= word {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (port % 64);
    }

    /// Remove `port`.
    pub fn remove(&mut self, port: u16) {
        if let Some(w) = self.words.get_mut(usize::from(port / 64)) {
            *w &= !(1 << (port % 64));
        }
    }

    /// Keep only the members `other` has too.
    pub fn intersect(&mut self, other: &PortSet) {
        for (i, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(i).copied().unwrap_or(0);
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no port is a member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    (i * 64) as u16 + bit as u16
                })
            })
        })
    }
}

impl FromIterator<u16> for PortSet {
    fn from_iter<I: IntoIterator<Item = u16>>(ports: I) -> PortSet {
        let mut set = PortSet::default();
        ports.into_iter().for_each(|p| set.insert(p));
        set
    }
}

impl core::fmt::Debug for PortSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// One VLAN's membership.
#[derive(Debug, Clone, Default)]
pub struct VlanEntry {
    /// Ports that carry this VLAN at all.
    pub egress: PortSet,
    /// Subset of `egress` that send it untagged.
    pub untagged: PortSet,
}

#[derive(Debug, Clone, Copy)]
struct FdbEntry {
    port: u16,
    learned_ns: u64,
}

/// FDB key: VLAN id above the 48 address bits.
fn fdb_key(vid: u16, mac: MacAddr) -> u64 {
    (u64::from(vid) << 48) | mac.to_u64()
}

/// Multiply-shift hash of one [`fdb_key`]. The halves are folded before
/// and after the multiply so that the VLAN id reaches the low bits a
/// `HashMap` picks its bucket from. The addresses hashed are those of
/// simulated stations, not an adversary's.
#[derive(Debug, Default, Clone, Copy)]
struct FdbHasher(u64);

impl Hasher for FdbHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = (key ^ (key >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// Index of 1-based `port` in the per-port vectors; port 0 maps past
/// their end.
fn slot(port: u16) -> usize {
    usize::from(port).wrapping_sub(1)
}

/// Errors from configuration operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeConfigError {
    /// VLAN id outside 1..=4094.
    BadVlanId,
    /// Port number outside 1..=n_ports.
    BadPort,
    /// Operation referenced a VLAN that does not exist.
    NoSuchVlan,
}

impl core::fmt::Display for BridgeConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BridgeConfigError::BadVlanId => write!(f, "VLAN id out of range"),
            BridgeConfigError::BadPort => write!(f, "port out of range"),
            BridgeConfigError::NoSuchVlan => write!(f, "no such VLAN"),
        }
    }
}

impl std::error::Error for BridgeConfigError {}

/// How the forwarding process classified one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// The VLAN the frame was classified into.
    pub vlan: u16,
    /// True if ingress filtering dropped it.
    pub filtered: bool,
}

/// What [`Bridge::forward`] decided for one borrowed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Forwarded {
    /// `(egress port, frame as it leaves that port)`.
    pub outputs: Vec<(u16, Bytes)>,
    /// The VLAN the frame was classified into.
    pub vlan: u16,
    /// True if ingress filtering dropped it.
    pub filtered: bool,
}

/// What egress tagging does to a frame on its way out of one port.
#[derive(Debug, Clone, Copy)]
enum Retag {
    /// It leaves in the form it arrived in.
    Keep,
    /// Tagged in, untagged out.
    Pop,
    /// Untagged in, tagged out with this VLAN.
    Push(u16),
}

/// How the forwarding engine holds the frame it forwards: by value
/// ([`Bytes`]: a frame nobody else holds is re-tagged where it lies,
/// through [`FrameBuf`]) or borrowed (`&Bytes`: the caller keeps it, so
/// a re-tag is a copy — and no uniqueness check is paid to learn that).
trait Held {
    /// The frame, to read and to share.
    fn bytes(&self) -> &Bytes;
    /// The frame as it leaves a port that `op` describes. A frame the
    /// operation cannot edit leaves as it is (parsing a VLAN view has
    /// already ruled that out).
    fn retag(self, op: Retag) -> Bytes;
}

impl Held for Bytes {
    fn bytes(&self) -> &Bytes {
        self
    }

    fn retag(self, op: Retag) -> Bytes {
        let mut buf = FrameBuf::from_bytes(self);
        let _ = match op {
            Retag::Keep => Ok(()),
            Retag::Pop => buf.pop_vlan(),
            Retag::Push(vid) => buf.push_vlan(EtherType::VLAN.0, VlanTag::new(vid).to_tci()),
        };
        buf.into_bytes()
    }
}

impl Held for &Bytes {
    fn bytes(&self) -> &Bytes {
        self
    }

    fn retag(self, op: Retag) -> Bytes {
        match op {
            Retag::Keep => self.clone(),
            Retag::Pop => vlan::pop_vlan(self).unwrap_or_else(|_| self.clone()),
            Retag::Push(vid) => {
                vlan::push_vlan(self, VlanTag::new(vid)).unwrap_or_else(|_| self.clone())
            }
        }
    }
}

/// A VLAN-aware learning bridge with `n_ports` ports (1-based).
#[derive(Debug)]
pub struct Bridge {
    n_ports: u16,
    /// The static VLAN table, ascending by VLAN id.
    vlans: Vec<(u16, VlanEntry)>,
    /// Position in `vlans` of each VLAN id up to the highest ever
    /// created ([`NO_VLAN`]: not in the table), so that the frame path
    /// finds a frame's VLAN without a search.
    vlan_index: Vec<u16>,
    /// PVID of each port, by [`slot`].
    pvid: Vec<u16>,
    fdb: HashMap<u64, FdbEntry, BuildHasherDefault<FdbHasher>>,
    aging_ns: u64,
    /// Counters of each port, by [`slot`].
    counters: Vec<PortCounters>,
    flood_frames: u64,
}

/// [`Bridge::vlan_index`] of a VLAN id that is not in the table; past
/// the end of any table, since VLAN ids number fewer.
const NO_VLAN: u16 = u16::MAX;

/// Default MAC aging time (302 s, the 802.1D default is 300 s ± margin).
pub const DEFAULT_AGING_NS: u64 = 300 * 1_000_000_000;

impl Bridge {
    /// Factory-default bridge: all ports untagged members of VLAN 1 with
    /// PVID 1 — the "dumb switch" the paper starts from.
    pub fn new(n_ports: u16) -> Bridge {
        let all: PortSet = (1..=n_ports).collect();
        let default_vlan = VlanEntry {
            egress: all.clone(),
            untagged: all,
        };
        Bridge {
            n_ports,
            vlans: vec![(1, default_vlan)],
            vlan_index: vec![NO_VLAN, 0],
            pvid: vec![1; usize::from(n_ports)],
            fdb: HashMap::default(),
            aging_ns: DEFAULT_AGING_NS,
            counters: vec![PortCounters::default(); usize::from(n_ports)],
            flood_frames: 0,
        }
    }

    /// Number of ports.
    pub fn n_ports(&self) -> u16 {
        self.n_ports
    }

    /// The VLAN table, ascending by VLAN id (MIB walks).
    pub fn vlans(&self) -> &[(u16, VlanEntry)] {
        &self.vlans
    }

    /// One VLAN's membership, if the VLAN exists.
    pub fn vlan(&self, vid: u16) -> Option<&VlanEntry> {
        self.vlan_at(vid).map(|at| &self.vlans[at].1)
    }

    /// Position of VLAN `vid` in the table.
    fn vlan_at(&self, vid: u16) -> Option<usize> {
        let at = usize::from(*self.vlan_index.get(usize::from(vid))?);
        (at < self.vlans.len()).then_some(at)
    }

    fn vlan_mut(&mut self, vid: u16) -> Result<&mut VlanEntry, BridgeConfigError> {
        let at = self.vlan_at(vid).ok_or(BridgeConfigError::NoSuchVlan)?;
        Ok(&mut self.vlans[at].1)
    }

    /// Point `vlan_index` at the table's entries from position `from` on.
    fn reindex_vlans(&mut self, from: usize) {
        for (at, (vid, _)) in self.vlans.iter().enumerate().skip(from) {
            self.vlan_index[usize::from(*vid)] = at as u16;
        }
    }

    /// A port's PVID (1 if unset).
    pub fn pvid(&self, port: u16) -> u16 {
        self.pvid.get(slot(port)).copied().unwrap_or(1)
    }

    /// Per-port counters.
    pub fn counters(&self, port: u16) -> PortCounters {
        self.counters.get(slot(port)).copied().unwrap_or_default()
    }

    /// Frames that had to be flooded (unknown destination).
    pub fn flood_frames(&self) -> u64 {
        self.flood_frames
    }

    /// Current FDB size.
    pub fn fdb_len(&self) -> usize {
        self.fdb.len()
    }

    /// The learned port for `(vlan, mac)`, if any.
    pub fn fdb_lookup(&self, vlan: u16, mac: MacAddr) -> Option<u16> {
        self.fdb.get(&fdb_key(vlan, mac)).map(|e| e.port)
    }

    /// Set the MAC aging time.
    pub fn set_aging_ns(&mut self, ns: u64) {
        self.aging_ns = ns;
    }

    fn check_port(&self, port: u16) -> Result<(), BridgeConfigError> {
        if port == 0 || port > self.n_ports {
            return Err(BridgeConfigError::BadPort);
        }
        Ok(())
    }

    fn check_ports(&self, ports: &PortSet) -> Result<(), BridgeConfigError> {
        ports.iter().try_for_each(|p| self.check_port(p))
    }

    /// Create an (empty) VLAN; idempotent for existing VLANs.
    pub fn create_vlan(&mut self, vid: u16) -> Result<(), BridgeConfigError> {
        if !VlanTag::vid_is_valid(vid) {
            return Err(BridgeConfigError::BadVlanId);
        }
        if self.vlan_at(vid).is_none() {
            let at = self.vlans.partition_point(|(v, _)| *v < vid);
            self.vlans.insert(at, (vid, VlanEntry::default()));
            if self.vlan_index.len() <= usize::from(vid) {
                self.vlan_index.resize(usize::from(vid) + 1, NO_VLAN);
            }
            self.reindex_vlans(at);
        }
        Ok(())
    }

    /// Destroy a VLAN and flush its FDB entries.
    pub fn destroy_vlan(&mut self, vid: u16) -> Result<(), BridgeConfigError> {
        let at = self.vlan_at(vid).ok_or(BridgeConfigError::NoSuchVlan)?;
        self.vlans.remove(at);
        self.vlan_index[usize::from(vid)] = NO_VLAN;
        self.reindex_vlans(at);
        self.fdb.retain(|k, _| k >> 48 != u64::from(vid));
        Ok(())
    }

    /// Replace a VLAN's egress port set.
    pub fn set_egress(
        &mut self,
        vid: u16,
        ports: impl IntoIterator<Item = u16>,
    ) -> Result<(), BridgeConfigError> {
        let egress: PortSet = ports.into_iter().collect();
        self.check_ports(&egress)?;
        let e = self.vlan_mut(vid)?;
        e.untagged.intersect(&egress);
        e.egress = egress;
        Ok(())
    }

    /// Replace a VLAN's untagged port set (must be ⊆ egress; enforced by
    /// intersection, as real agents do).
    pub fn set_untagged(
        &mut self,
        vid: u16,
        ports: impl IntoIterator<Item = u16>,
    ) -> Result<(), BridgeConfigError> {
        let mut untagged: PortSet = ports.into_iter().collect();
        self.check_ports(&untagged)?;
        let e = self.vlan_mut(vid)?;
        untagged.intersect(&e.egress);
        e.untagged = untagged;
        Ok(())
    }

    /// Set a port's PVID. The VLAN must exist.
    pub fn set_pvid(&mut self, port: u16, vid: u16) -> Result<(), BridgeConfigError> {
        self.check_port(port)?;
        self.vlan_at(vid).ok_or(BridgeConfigError::NoSuchVlan)?;
        self.pvid[slot(port)] = vid;
        Ok(())
    }

    /// Convenience: make `port` an access port of `vid` (creates the VLAN,
    /// sets membership, untagged egress and PVID).
    pub fn make_access_port(&mut self, port: u16, vid: u16) -> Result<(), BridgeConfigError> {
        self.check_port(port)?;
        self.create_vlan(vid)?;
        let e = self.vlan_mut(vid)?;
        e.egress.insert(port);
        e.untagged.insert(port);
        self.set_pvid(port, vid)
    }

    /// Convenience: make `port` a tagged member of every VLAN in `vids`
    /// (a trunk carrying those VLANs).
    pub fn make_trunk_port(&mut self, port: u16, vids: &[u16]) -> Result<(), BridgeConfigError> {
        self.check_port(port)?;
        for &vid in vids {
            self.create_vlan(vid)?;
            let e = self.vlan_mut(vid)?;
            e.egress.insert(port);
            e.untagged.remove(port);
        }
        Ok(())
    }

    /// Age out stale FDB entries.
    pub fn age_fdb(&mut self, now_ns: u64) -> usize {
        let aging = self.aging_ns;
        let before = self.fdb.len();
        self.fdb
            .retain(|_, e| now_ns.saturating_sub(e.learned_ns) < aging);
        before - self.fdb.len()
    }

    /// The 802.1Q forwarding process for one received frame, which the
    /// bridge takes over: `(egress port, frame as it leaves that port)`
    /// pairs are appended to `out`, a buffer the caller lends pass after
    /// pass.
    ///
    /// A frame leaves in the form it arrived in wherever the egress port
    /// wants that form (tagged in → tagged out keeps the received tag,
    /// PCP and DEI included). A pass with one egress port — a learned
    /// destination, or a flood in a VLAN of two members, which is every
    /// HARMLESS access VLAN — sends the received frame itself, re-tagged
    /// in place if nobody else holds it. A flood to several ports builds
    /// the other form at most once, and only if some port needs it, and
    /// shares each form among the ports that want it.
    pub fn forward_into(
        &mut self,
        in_port: u16,
        frame: Bytes,
        now_ns: u64,
        out: &mut Vec<(u16, Bytes)>,
    ) -> Verdict {
        self.pass(in_port, frame, now_ns, out)
    }

    /// [`Bridge::forward_into`] of a frame the caller keeps, into a
    /// vector of its own: every re-tag is a copy, as it is for any
    /// frame somebody else holds. The borrowed entry of the `hbench` pod
    /// rig and of tests; it goes once the rig moves its frames (ROADMAP
    /// 1(b)).
    pub fn forward(&mut self, in_port: u16, frame: &Bytes, now_ns: u64) -> Forwarded {
        let mut outputs = Vec::new();
        let Verdict { vlan, filtered } = self.pass(in_port, frame, now_ns, &mut outputs);
        Forwarded {
            outputs,
            vlan,
            filtered,
        }
    }

    /// The one engine behind [`Bridge::forward_into`] and
    /// [`Bridge::forward`]; the two differ only in what a re-tag of the
    /// frame costs ([`Held`]).
    fn pass(
        &mut self,
        in_port: u16,
        frame: impl Held,
        now_ns: u64,
        out: &mut Vec<(u16, Bytes)>,
    ) -> Verdict {
        let dropped = |vlan| Verdict {
            vlan,
            filtered: true,
        };
        // A port this bridge does not have receives nothing.
        let Some(rx) = self.counters.get_mut(slot(in_port)) else {
            return dropped(0);
        };
        rx.rx_frames += 1;
        rx.rx_octets += frame.bytes().len() as u64;
        let Ok(eth) = frame::Header::parse(&mut &frame.bytes()[..]) else {
            return dropped(0);
        };
        // Ingress classification + filtering: a tagged frame must arrive
        // on a member port of its VLAN, an untagged one needs its PVID's
        // VLAN to exist.
        let arrived_tagged = eth.outer.is_some();
        let vid = eth.outer.map_or(self.pvid[slot(in_port)], |tag| tag.vid);
        let entry = match self.vlan_at(vid).map(|at| &self.vlans[at].1) {
            Some(e) if !arrived_tagged || e.egress.contains(in_port) => e,
            _ => {
                self.counters[slot(in_port)].rx_filtered += 1;
                return dropped(vid);
            }
        };

        let (src, dst) = (eth.src, eth.dst);

        // Learning.
        if src.is_unicast() {
            self.fdb.insert(
                fdb_key(vid, src),
                FdbEntry {
                    port: in_port,
                    learned_ns: now_ns,
                },
            );
        }

        // Forwarding decision: one learned port, or a flood.
        let learned = dst
            .is_unicast()
            .then(|| self.fdb.get(&fdb_key(vid, dst)))
            .flatten();
        let verdict = Verdict {
            vlan: vid,
            filtered: false,
        };
        let target = match learned {
            Some(e) if e.port != in_port && entry.egress.contains(e.port) => Some(e.port),
            // The destination is behind the ingress port.
            Some(_) => return verdict,
            None => None,
        };

        // Egress tagging.
        let egress_op = |p: u16| match (arrived_tagged, entry.untagged.contains(p)) {
            (true, true) => Retag::Pop,
            (false, false) => Retag::Push(vid),
            _ => Retag::Keep,
        };
        let flood = || entry.egress.iter().filter(move |&p| p != in_port);
        let sole = match target {
            Some(p) => Some(p),
            None => {
                self.flood_frames += 1;
                let mut ports = flood();
                ports.next().filter(|_| ports.next().is_none())
            }
        };
        out.reserve(if sole.is_some() {
            1
        } else {
            entry.egress.len()
        });
        let counters = &mut self.counters;
        let mut send = |p: u16, f: Bytes| {
            if let Some(c) = counters.get_mut(slot(p)) {
                c.tx_frames += 1;
                c.tx_octets += f.len() as u64;
            }
            out.push((p, f));
        };
        if let Some(p) = sole {
            send(p, frame.retag(egress_op(p)));
            return verdict;
        }
        let frame = frame.bytes();
        let (mut tagged, mut untagged) = (None, None);
        for p in flood() {
            let form: &mut Option<Bytes> = if entry.untagged.contains(p) {
                &mut untagged
            } else {
                &mut tagged
            };
            send(
                p,
                form.get_or_insert_with(|| frame.retag(egress_op(p)))
                    .clone(),
            );
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mib::tests::next;
    use crate::mib::{BridgeMib, SysInfo};
    use mgmt::mibs;
    use mgmt::oid::Oid;
    use mgmt::pdu::Value;
    use netpkt::builder;
    use netpkt::EtherType;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::net::Ipv4Addr;

    fn frame(src: u32, dst: u32) -> Bytes {
        builder::udp_packet(
            MacAddr::host(src),
            MacAddr::host(dst),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            b"x",
        )
    }

    fn bcast(src: u32) -> Bytes {
        builder::ethernet(
            MacAddr::BROADCAST,
            MacAddr::host(src),
            EtherType::ARP,
            &[0u8; 46],
        )
    }

    #[test]
    fn default_config_floods_then_learns() {
        let mut b = Bridge::new(4);
        // Unknown dst: flood to all other ports.
        let out = b.forward(1, &frame(1, 2), 0);
        assert_eq!(out.vlan, 1);
        let mut ports: Vec<u16> = out.outputs.iter().map(|(p, _)| *p).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![2, 3, 4]);
        // Reply from port 2 teaches the bridge; traffic to host 1 is now unicast.
        let out = b.forward(2, &frame(2, 1), 1);
        assert_eq!(out.outputs.len(), 1);
        assert_eq!(out.outputs[0].0, 1);
        // And now 1→2 is unicast too.
        let out = b.forward(1, &frame(1, 2), 2);
        assert_eq!(out.outputs.len(), 1);
        assert_eq!(out.outputs[0].0, 2);
        assert_eq!(b.fdb_len(), 2);
    }

    #[test]
    fn vlan_isolation() {
        let mut b = Bridge::new(4);
        b.make_access_port(1, 10).unwrap();
        b.make_access_port(2, 10).unwrap();
        b.make_access_port(3, 20).unwrap();
        b.make_access_port(4, 20).unwrap();
        // Flood from port 1 stays within VLAN 10.
        let out = b.forward(1, &bcast(1), 0);
        let ports: Vec<u16> = out.outputs.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![2]);
        assert_eq!(out.vlan, 10);
    }

    #[test]
    fn harmless_tagging_and_hairpinning_shape() {
        // The exact configuration HARMLESS installs: port i in VLAN
        // 100+i, trunk on port 5 carrying all of them.
        let mut b = Bridge::new(5);
        for p in 1..=4u16 {
            b.make_access_port(p, 100 + p).unwrap();
        }
        b.make_trunk_port(5, &[101, 102, 103, 104]).unwrap();

        // Host on port 1 sends untagged; the only member beside port 1 is
        // the trunk, which gets it tagged with VLAN 101.
        let out = b.forward(1, &frame(1, 2), 0);
        assert_eq!(out.outputs.len(), 1);
        let (p, f) = &out.outputs[0];
        assert_eq!(*p, 5);
        let tag = vlan::outer_tag(f).expect("trunk egress must be tagged");
        assert_eq!(tag.vid, 101);

        // The soft switch hairpins it back tagged 102; the bridge must
        // deliver it untagged on access port 2.
        let hairpinned = vlan::push_vlan(&frame(1, 2), VlanTag::new(102)).unwrap();
        let out = b.forward(5, &hairpinned, 1);
        // dst host(2) unknown in VLAN 102 -> floods to port 2 only.
        assert_eq!(out.outputs.len(), 1);
        let (p, f) = &out.outputs[0];
        assert_eq!(*p, 2);
        assert!(
            vlan::outer_tag(f).is_none(),
            "access egress must be untagged"
        );
    }

    #[test]
    fn tagged_to_tagged_forwards_the_received_frame() {
        // Two trunks carrying VLAN 7: the tag a frame arrived with,
        // priority bits included, is the tag it leaves with.
        let mut b = Bridge::new(2);
        b.make_trunk_port(1, &[7]).unwrap();
        b.make_trunk_port(2, &[7]).unwrap();
        let tag = VlanTag {
            vid: 7,
            pcp: 5,
            dei: true,
        };
        let tagged = vlan::push_vlan(&frame(1, 2), tag).unwrap();
        let out = b.forward(1, &tagged, 0);
        assert_eq!(out.vlan, 7);
        assert_eq!(out.outputs.len(), 1);
        let (p, f) = &out.outputs[0];
        assert_eq!(*p, 2);
        assert_eq!(vlan::outer_tag(f), Some(tag));
        assert_eq!(f.as_ptr(), tagged.as_ptr(), "forwarded without a copy");
    }

    #[test]
    fn same_mac_in_two_vlans_learns_two_entries() {
        let mut b = Bridge::new(4);
        b.make_access_port(1, 10).unwrap();
        b.make_access_port(2, 20).unwrap();
        b.forward(1, &frame(1, 9), 0);
        b.forward(2, &frame(1, 9), 0);
        assert_eq!(b.fdb_len(), 2);
        assert_eq!(b.fdb_lookup(10, MacAddr::host(1)), Some(1));
        assert_eq!(b.fdb_lookup(20, MacAddr::host(1)), Some(2));
        b.destroy_vlan(10).unwrap();
        assert_eq!(b.fdb_lookup(10, MacAddr::host(1)), None);
        assert_eq!(b.fdb_lookup(20, MacAddr::host(1)), Some(2));
    }

    #[test]
    fn port_zero_and_out_of_range_ports_have_no_state() {
        let mut b = Bridge::new(2);
        b.forward(0, &frame(1, 2), 0);
        b.forward(3, &frame(1, 2), 0);
        assert_eq!(b.counters(0), PortCounters::default());
        assert_eq!(b.counters(3), PortCounters::default());
        assert_eq!(b.pvid(0), 1);
        assert_eq!(b.pvid(3), 1);
    }

    #[test]
    fn a_port_the_bridge_does_not_have_receives_nothing() {
        let mut b = Bridge::new(2);
        for port in [0, 3, u16::MAX] {
            let out = b.forward(port, &frame(1, 2), 0);
            assert!(out.filtered, "port {port}");
            assert!(out.outputs.is_empty(), "port {port} floods nothing");
        }
        assert_eq!(b.fdb_len(), 0, "nothing learned behind such a port");
        assert_eq!(b.flood_frames(), 0);
        assert_eq!(b.counters(1).tx_frames + b.counters(2).tx_frames, 0);
    }

    #[test]
    fn ingress_filtering_drops_foreign_tags() {
        let mut b = Bridge::new(4);
        b.make_access_port(1, 10).unwrap();
        // Port 1 is not a member of VLAN 99.
        let tagged = vlan::push_vlan(&frame(1, 2), VlanTag::new(99)).unwrap();
        let out = b.forward(1, &tagged, 0);
        assert!(out.filtered);
        assert!(out.outputs.is_empty());
        assert_eq!(b.counters(1).rx_filtered, 1);
    }

    #[test]
    fn no_hairpin_to_ingress_port() {
        let mut b = Bridge::new(2);
        // Learn host 2 behind port 1, then send to it from port 1.
        b.forward(1, &frame(2, 9), 0);
        let out = b.forward(1, &frame(1, 2), 1);
        assert!(
            out.outputs.is_empty(),
            "frames never exit their ingress port"
        );
    }

    #[test]
    fn aging_expires_entries() {
        let mut b = Bridge::new(2);
        b.set_aging_ns(1_000);
        b.forward(1, &frame(1, 2), 0);
        assert_eq!(b.fdb_len(), 1);
        assert_eq!(b.age_fdb(500), 0);
        assert_eq!(b.age_fdb(1_500), 1);
        assert_eq!(b.fdb_len(), 0);
    }

    #[test]
    fn destroy_vlan_flushes_fdb() {
        let mut b = Bridge::new(2);
        b.make_access_port(1, 10).unwrap();
        b.make_access_port(2, 10).unwrap();
        b.forward(1, &frame(1, 2), 0);
        assert_eq!(b.fdb_len(), 1);
        b.destroy_vlan(10).unwrap();
        assert_eq!(b.fdb_len(), 0);
        // Ports whose PVID points at the dead VLAN now filter ingress.
        let out = b.forward(1, &frame(1, 2), 1);
        assert!(out.filtered);
    }

    #[test]
    fn config_validation() {
        let mut b = Bridge::new(2);
        assert_eq!(b.create_vlan(0).unwrap_err(), BridgeConfigError::BadVlanId);
        assert_eq!(
            b.create_vlan(4095).unwrap_err(),
            BridgeConfigError::BadVlanId
        );
        assert_eq!(b.set_pvid(9, 1).unwrap_err(), BridgeConfigError::BadPort);
        assert_eq!(
            b.set_pvid(1, 99).unwrap_err(),
            BridgeConfigError::NoSuchVlan
        );
        assert_eq!(
            b.set_egress(99, [1]).unwrap_err(),
            BridgeConfigError::NoSuchVlan
        );
        assert_eq!(
            b.set_egress(1, [7]).unwrap_err(),
            BridgeConfigError::BadPort
        );
    }

    #[test]
    fn untagged_set_clamped_to_egress() {
        let mut b = Bridge::new(4);
        b.create_vlan(10).unwrap();
        b.set_egress(10, [1, 2]).unwrap();
        b.set_untagged(10, [1, 3]).unwrap(); // 3 is not a member
        assert_eq!(
            b.vlan(10).unwrap().untagged.iter().collect::<Vec<_>>(),
            vec![1]
        );
        // Shrinking egress shrinks untagged too.
        b.set_egress(10, [2]).unwrap();
        assert!(b.vlan(10).unwrap().untagged.is_empty());
    }

    #[test]
    fn counters_track_octets() {
        let mut b = Bridge::new(2);
        let f = frame(1, 2);
        b.forward(1, &f, 0);
        assert_eq!(b.counters(1).rx_octets, f.len() as u64);
        assert_eq!(b.counters(2).tx_frames, 1);
    }

    /// The bridge written with ordered sets and an ordered VLAN table —
    /// the model the bitmaps and the VLAN index are checked against.
    struct Model {
        n_ports: u16,
        vlans: BTreeMap<u16, (BTreeSet<u16>, BTreeSet<u16>)>,
        pvid: Vec<u16>,
        fdb: HashMap<(u16, MacAddr), u16>,
    }

    impl Model {
        fn new(n_ports: u16) -> Model {
            let all: BTreeSet<u16> = (1..=n_ports).collect();
            Model {
                n_ports,
                vlans: BTreeMap::from([(1, (all.clone(), all))]),
                pvid: vec![1; usize::from(n_ports)],
                fdb: HashMap::new(),
            }
        }

        fn ports_ok(&self, ports: &[u16]) -> Result<(), BridgeConfigError> {
            let ok = ports.iter().all(|p| (1..=self.n_ports).contains(p));
            ok.then_some(()).ok_or(BridgeConfigError::BadPort)
        }

        fn vlan(
            &mut self,
            vid: u16,
        ) -> Result<&mut (BTreeSet<u16>, BTreeSet<u16>), BridgeConfigError> {
            self.vlans
                .get_mut(&vid)
                .ok_or(BridgeConfigError::NoSuchVlan)
        }

        fn create_vlan(&mut self, vid: u16) -> Result<(), BridgeConfigError> {
            if !(1..=4094).contains(&vid) {
                return Err(BridgeConfigError::BadVlanId);
            }
            self.vlans.entry(vid).or_default();
            Ok(())
        }

        fn destroy_vlan(&mut self, vid: u16) -> Result<(), BridgeConfigError> {
            self.vlans
                .remove(&vid)
                .ok_or(BridgeConfigError::NoSuchVlan)?;
            self.fdb.retain(|(v, _), _| *v != vid);
            Ok(())
        }

        fn set_egress(
            &mut self,
            vid: u16,
            ports: impl IntoIterator<Item = u16>,
        ) -> Result<(), BridgeConfigError> {
            let ports: Vec<u16> = ports.into_iter().collect();
            self.ports_ok(&ports)?;
            let (egress, untagged) = self.vlan(vid)?;
            *egress = ports.iter().copied().collect();
            untagged.retain(|p| egress.contains(p));
            Ok(())
        }

        fn set_untagged(
            &mut self,
            vid: u16,
            ports: impl IntoIterator<Item = u16>,
        ) -> Result<(), BridgeConfigError> {
            let ports: Vec<u16> = ports.into_iter().collect();
            self.ports_ok(&ports)?;
            let (egress, untagged) = self.vlan(vid)?;
            *untagged = ports
                .iter()
                .copied()
                .filter(|p| egress.contains(p))
                .collect();
            Ok(())
        }

        fn make_access_port(&mut self, port: u16, vid: u16) -> Result<(), BridgeConfigError> {
            self.ports_ok(&[port])?;
            self.create_vlan(vid)?;
            let (egress, untagged) = self.vlan(vid)?;
            egress.insert(port);
            untagged.insert(port);
            self.pvid[slot(port)] = vid;
            Ok(())
        }

        fn make_trunk_port(&mut self, port: u16, vids: &[u16]) -> Result<(), BridgeConfigError> {
            self.ports_ok(&[port])?;
            for &vid in vids {
                self.create_vlan(vid)?;
                let (egress, untagged) = self.vlan(vid)?;
                egress.insert(port);
                untagged.remove(&port);
            }
            Ok(())
        }

        fn forward(&mut self, in_port: u16, frame: &Bytes) -> Forwarded {
            let mut out = Forwarded {
                outputs: Vec::new(),
                vlan: 0,
                filtered: true,
            };
            if self.ports_ok(&[in_port]).is_err() {
                return out;
            }
            let Ok(eth) = frame::Header::parse(&mut &frame[..]) else {
                return out;
            };
            let tag = eth.outer;
            out.vlan = tag.map_or(self.pvid[slot(in_port)], |t| t.vid);
            let Some((egress, untagged)) = self.vlans.get(&out.vlan) else {
                return out;
            };
            if tag.is_some() && !egress.contains(&in_port) {
                return out;
            }
            out.filtered = false;
            self.fdb.insert((out.vlan, eth.src), in_port);
            let to: Vec<u16> = match self.fdb.get(&(out.vlan, eth.dst)) {
                Some(&p) if p != in_port && egress.contains(&p) => vec![p],
                Some(_) => vec![],
                None => egress.iter().copied().filter(|&p| p != in_port).collect(),
            };
            for p in to {
                let f = match (untagged.contains(&p), tag.is_some()) {
                    (true, true) => vlan::pop_vlan(frame).unwrap(),
                    (false, false) => vlan::push_vlan(frame, VlanTag::new(out.vlan)).unwrap(),
                    _ => frame.clone(),
                };
                out.outputs.push((p, f));
            }
            out
        }

        /// The three static-VLAN-table columns as a walk returns them.
        fn vlan_rows(&self) -> Vec<(Oid, Value)> {
            let list = |ports: &BTreeSet<u16>| {
                let ports: Vec<u16> = ports.iter().copied().collect();
                Value::OctetString(mibs::encode_portlist(&ports, self.n_ports))
            };
            let mut rows = Vec::new();
            for (&vid, (egress, _)) in &self.vlans {
                rows.push((
                    Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, vid.into()),
                    list(egress),
                ));
            }
            for (&vid, (_, untagged)) in &self.vlans {
                rows.push((
                    Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, vid.into()),
                    list(untagged),
                ));
            }
            for &vid in self.vlans.keys() {
                let active = Value::Integer(mibs::ROW_ACTIVE);
                rows.push((
                    Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, vid.into()),
                    active,
                ));
            }
            rows
        }
    }

    /// The whole FDB, in key order.
    fn fdb(b: &Bridge) -> Vec<(u64, u16, u64)> {
        let mut rows: Vec<_> = b
            .fdb
            .iter()
            .map(|(&k, e)| (k, e.port, e.learned_ns))
            .collect();
        rows.sort_unstable();
        rows
    }

    /// The static VLAN table as an SNMP walk returns it.
    fn vlan_walk(bridge: &mut Bridge) -> Vec<(Oid, Value)> {
        let sys = SysInfo::default();
        let mib = BridgeMib {
            bridge,
            sys: &sys,
            uptime_cs: 0,
        };
        let table = Oid::new(mibs::VLAN_STATIC_ENTRY);
        let mut walked = Vec::new();
        let mut cur = table.clone();
        while let Some(row) = next(&mib, &cur).filter(|(oid, _)| table.contains(oid)) {
            cur = row.0.clone();
            walked.push(row);
        }
        walked
    }

    proptest! {
        /// Random reconfigurations and frames through three bridges: the
        /// bitmap bridge driven by value (`forward_into`) with frames it
        /// is the sole holder of — now and then one somebody else keeps
        /// too — its twin driven through the borrowed `forward`, and the
        /// ordered-set model. Every call answers the same, every frame
        /// leaves on the same ports in the same order with the same
        /// bytes, and after every step the twins hold the same counters,
        /// FDB and flood count and all three walk the same static VLAN
        /// table. A pass of a sole holder with one egress port sends the
        /// received storage itself, re-tagged in place: never a copy.
        /// Ports 0 and `n_ports + 1` and VLAN 0 are in range of the
        /// generators.
        #[test]
        fn bitmap_bridge_agrees_with_the_ordered_set_model(
            n_ports in 1u16..70,
            ops in proptest::collection::vec((0u8..12, 0u16..72, 0u16..9, any::<u64>()), 1..80),
        ) {
            let (mut b, mut m) = (Bridge::new(n_ports), Model::new(n_ports));
            let mut owned = Bridge::new(n_ports);
            let mut out = Vec::new();
            for (op, port, vid, bits) in ops {
                let port = port % (n_ports + 2);
                // Mostly valid ports, now and then one beyond the last.
                let ports: Vec<u16> = (1..=n_ports + 1)
                    .filter(|p| bits >> (p % 64) & 1 == 1 && (*p <= n_ports || bits % 16 == 0))
                    .collect();
                let vids = [vid, (bits % 9) as u16];
                macro_rules! configure {
                    ($x:expr) => {
                        match op {
                            0 => $x.set_egress(vid, ports.iter().copied()),
                            1 => $x.set_untagged(vid, ports.iter().copied()),
                            2 => $x.make_access_port(port, vid),
                            3 => $x.make_trunk_port(port, &vids),
                            4 => $x.destroy_vlan(vid),
                            _ => $x.create_vlan(vid),
                        }
                    };
                }
                if op < 6 {
                    let want = configure!(m);
                    prop_assert_eq!(configure!(b), want);
                    prop_assert_eq!(configure!(owned), want);
                } else {
                    let (src, dst) = ((bits % 5) as u32, (bits >> 8) as u32 % 5);
                    // Built afresh for each bridge, as a generator builds
                    // it (tagged, if at all, in the room it was built
                    // with), so that the by-value bridge is the sole
                    // holder of its copy.
                    let make = || {
                        let f = if dst == 0 { bcast(src) } else { frame(src, dst) };
                        let mut buf = FrameBuf::from_bytes(f);
                        if op % 2 == 0 {
                            buf.push_vlan(0x8100, VlanTag::new(vid).to_tci()).unwrap();
                        }
                        buf.into_bytes()
                    };
                    let f = make();
                    let want = m.forward(port, &f);
                    prop_assert_eq!(&b.forward(port, &f, 0), &want);

                    let mine = make();
                    let (ptr, len) = (mine.as_ptr(), mine.len());
                    let held = (bits % 3 == 0).then(|| mine.clone());
                    out.clear();
                    let verdict = owned.forward_into(port, mine, 0, &mut out);
                    prop_assert_eq!(verdict, Verdict { vlan: want.vlan, filtered: want.filtered });
                    prop_assert_eq!(&out, &want.outputs);
                    match (&held, &out[..]) {
                        (Some(held), _) => prop_assert_eq!(held, &f, "a kept frame never changes"),
                        (None, [(p, sent)]) => {
                            // A pop moves the view's start up by a tag, a
                            // push down into the room in front.
                            let at = ptr.wrapping_offset(len as isize - sent.len() as isize);
                            prop_assert!(sent.as_ptr() == at, "port {} got a copy", p);
                        }
                        _ => {}
                    }
                }
                let ports = 0..=n_ports + 1;
                let counters = |x: &Bridge| ports.clone().map(|p| x.counters(p)).collect::<Vec<_>>();
                prop_assert_eq!(counters(&owned), counters(&b));
                prop_assert_eq!(fdb(&owned), fdb(&b));
                prop_assert_eq!(owned.flood_frames(), b.flood_frames());
                let rows = m.vlan_rows();
                prop_assert_eq!(vlan_walk(&mut b), rows.clone());
                prop_assert_eq!(vlan_walk(&mut owned), rows);
            }
        }
    }
}
