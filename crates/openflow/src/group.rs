//! Group table (OF 1.3 §5.6.1): all / select / indirect groups.
//!
//! `select` buckets are chosen by a deterministic weighted hash of the flow
//! key, matching how hardware and OVS pin a flow to one bucket so a
//! connection never flaps between backends — this is what the HARMLESS
//! load-balancer use case leans on.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use netpkt::FlowKey;

use crate::action::Action;
use crate::wire::{layout, wire_enum, ListItem};
use crate::{group_no, port_no, Error, Result};

wire_enum! {
    /// `ofp_group_type` subset (fast-failover is out of scope).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum GroupType: u8 {
        /// Execute every bucket (multicast).
        All = 0,
        /// Execute one bucket chosen by flow hash (load balancing).
        Select = 1,
        /// Single-bucket indirection.
        Indirect = 2,
    } else Error::BadGroup("unsupported group type")
}

/// One action bucket.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bucket {
    /// Relative weight for `select` groups (ignored otherwise).
    pub weight: u16,
    /// Actions executed when the bucket fires.
    pub actions: Vec<Action>,
}

// The length counts itself; this subset watches no port or group.
layout! { Bucket {
    weight: u16, _: u32 = port_no::ANY, _: u32 = group_no::ANY, pad 4, actions: Vec<Action>,
} sized 2, |len| len >= 16, "bucket too short" }

impl ListItem for Bucket {
    const MIN_LEN: usize = 16;
}

impl Bucket {
    /// A weight-1 bucket.
    pub fn new(actions: Vec<Action>) -> Bucket {
        Bucket { weight: 1, actions }
    }

    /// Builder-style weight.
    pub fn with_weight(mut self, w: u16) -> Bucket {
        self.weight = w;
        self
    }
}

/// An installed group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Group id.
    pub id: u32,
    /// Behaviour.
    pub type_: GroupType,
    /// Buckets (non-empty except for `All`).
    pub buckets: Vec<Bucket>,
    /// Packets processed.
    pub packets: u64,
    /// Bytes processed.
    pub bytes: u64,
}

impl Group {
    /// Pick the buckets to execute for a packet with flow key `key`.
    ///
    /// * `All` — every bucket.
    /// * `Indirect` — the single bucket.
    /// * `Select` — one bucket by deterministic weighted hash.
    pub fn select_buckets<'a>(&'a self, key: &FlowKey) -> Vec<&'a Bucket> {
        match self.type_ {
            GroupType::All => self.buckets.iter().collect(),
            GroupType::Indirect => self.buckets.first().into_iter().collect(),
            GroupType::Select => {
                let total: u32 = self
                    .buckets
                    .iter()
                    .map(|b| u32::from(b.weight.max(1)))
                    .sum();
                if total == 0 {
                    return Vec::new();
                }
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                // Hash the L3/L4 5-tuple only, so a flow sticks to a bucket
                // regardless of in_port or metadata.
                (
                    key.ipv4_src,
                    key.ipv4_dst,
                    key.ip_proto,
                    key.tcp_src,
                    key.tcp_dst,
                    key.udp_src,
                    key.udp_dst,
                    key.ipv6_src,
                    key.ipv6_dst,
                )
                    .hash(&mut hasher);
                let mut point = (hasher.finish() % u64::from(total)) as u32;
                for b in &self.buckets {
                    let w = u32::from(b.weight.max(1));
                    if point < w {
                        return vec![b];
                    }
                    point -= w;
                }
                self.buckets.last().into_iter().collect()
            }
        }
    }
}

wire_enum! {
    /// `ofp_group_mod_command`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum GroupModCommand: u16 {
        /// Create a new group.
        Add = 0,
        /// Replace the buckets of an existing group.
        Modify = 1,
        /// Remove a group (or all with `group_no::ALL`).
        Delete = 2,
    } else Error::Malformed("bad group-mod command")
}

/// The group table of one switch.
#[derive(Debug, Default)]
pub struct GroupTable {
    groups: BTreeMap<u32, Group>,
}

impl GroupTable {
    /// Empty table.
    pub fn new() -> GroupTable {
        GroupTable::default()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if no groups exist.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Look up a group.
    pub fn get(&self, id: u32) -> Option<&Group> {
        self.groups.get(&id)
    }

    /// Record traffic against a group.
    pub fn account(&mut self, id: u32, bytes: u64) {
        if let Some(g) = self.groups.get_mut(&id) {
            g.packets += 1;
            g.bytes += bytes;
        }
    }

    /// Add a group; fails if the id exists, the type needs buckets and has
    /// none, or a bucket chains to an unknown group (forward references and
    /// loops are rejected as in the spec).
    pub fn add(&mut self, id: u32, type_: GroupType, buckets: Vec<Bucket>) -> Result<()> {
        if self.groups.contains_key(&id) {
            return Err(Error::BadGroup("group exists"));
        }
        if matches!(type_, GroupType::Indirect) && buckets.len() != 1 {
            return Err(Error::BadGroup("indirect group needs exactly one bucket"));
        }
        if matches!(type_, GroupType::Select) && buckets.is_empty() {
            return Err(Error::BadGroup("select group needs buckets"));
        }
        self.check_chains(id, &buckets)?;
        self.groups.insert(
            id,
            Group {
                id,
                type_,
                buckets,
                packets: 0,
                bytes: 0,
            },
        );
        Ok(())
    }

    /// Replace buckets/type of an existing group.
    pub fn modify(&mut self, id: u32, type_: GroupType, buckets: Vec<Bucket>) -> Result<()> {
        if !self.groups.contains_key(&id) {
            return Err(Error::BadGroup("no such group"));
        }
        self.check_chains(id, &buckets)?;
        let g = self.groups.get_mut(&id).unwrap();
        g.type_ = type_;
        g.buckets = buckets;
        Ok(())
    }

    /// Delete a group (`group_no::ALL` deletes everything). Returns the
    /// deleted ids.
    pub fn delete(&mut self, id: u32) -> Vec<u32> {
        if id == crate::group_no::ALL {
            let ids: Vec<u32> = self.groups.keys().copied().collect();
            self.groups.clear();
            return ids;
        }
        if self.groups.remove(&id).is_some() {
            vec![id]
        } else {
            Vec::new()
        }
    }

    /// Reject buckets that reference `self_id` or an unknown group —
    /// this forbids both loops and forward references.
    fn check_chains(&self, self_id: u32, buckets: &[Bucket]) -> Result<()> {
        for b in buckets {
            for a in &b.actions {
                if let Action::Group(g) = a {
                    if *g == self_id {
                        return Err(Error::BadGroup("group chains to itself"));
                    }
                    if !self.groups.contains_key(g) {
                        return Err(Error::BadGroup("chained group does not exist"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netpkt::{builder, MacAddr};
    use std::net::Ipv4Addr;

    fn key_for_src(src: u32) -> FlowKey {
        let f = builder::udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            Ipv4Addr::from(src),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            80,
            b"x",
        );
        FlowKey::extract(1, &f).unwrap()
    }

    #[test]
    fn all_group_fires_every_bucket() {
        let mut gt = GroupTable::new();
        gt.add(
            1,
            GroupType::All,
            vec![
                Bucket::new(vec![Action::output(1)]),
                Bucket::new(vec![Action::output(2)]),
            ],
        )
        .unwrap();
        let g = gt.get(1).unwrap();
        assert_eq!(g.select_buckets(&key_for_src(1)).len(), 2);
    }

    #[test]
    fn select_group_is_deterministic_and_covers_buckets() {
        let mut gt = GroupTable::new();
        gt.add(
            1,
            GroupType::Select,
            (0..4)
                .map(|i| Bucket::new(vec![Action::output(i + 1)]))
                .collect(),
        )
        .unwrap();
        let g = gt.get(1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for src in 0..1000u32 {
            let k = key_for_src(0x0a00_0000 + src);
            let b1 = g.select_buckets(&k);
            let b2 = g.select_buckets(&k);
            assert_eq!(b1, b2, "same flow must pick the same bucket");
            assert_eq!(b1.len(), 1);
            seen.insert(b1[0].actions.clone());
        }
        assert_eq!(seen.len(), 4, "1000 flows must cover all 4 buckets");
    }

    #[test]
    fn select_group_respects_weights_roughly() {
        let mut gt = GroupTable::new();
        gt.add(
            1,
            GroupType::Select,
            vec![
                Bucket::new(vec![Action::output(1)]).with_weight(3),
                Bucket::new(vec![Action::output(2)]).with_weight(1),
            ],
        )
        .unwrap();
        let g = gt.get(1).unwrap();
        let mut heavy = 0;
        let n = 4000;
        for src in 0..n {
            let k = key_for_src(0x0a00_0000 + src);
            if g.select_buckets(&k)[0].actions == vec![Action::output(1)] {
                heavy += 1;
            }
        }
        let share = heavy as f64 / n as f64;
        assert!(
            (share - 0.75).abs() < 0.05,
            "weight-3 bucket share = {share}"
        );
    }

    #[test]
    fn indirect_group_needs_one_bucket() {
        let mut gt = GroupTable::new();
        assert!(gt.add(1, GroupType::Indirect, vec![]).is_err());
        assert!(gt
            .add(
                1,
                GroupType::Indirect,
                vec![Bucket::new(vec![]), Bucket::new(vec![])]
            )
            .is_err());
        gt.add(
            1,
            GroupType::Indirect,
            vec![Bucket::new(vec![Action::output(5)])],
        )
        .unwrap();
    }

    #[test]
    fn chain_validation() {
        let mut gt = GroupTable::new();
        gt.add(
            1,
            GroupType::All,
            vec![Bucket::new(vec![Action::output(1)])],
        )
        .unwrap();
        // Chaining to an existing group is fine.
        gt.add(2, GroupType::All, vec![Bucket::new(vec![Action::Group(1)])])
            .unwrap();
        // Forward reference rejected.
        assert!(gt
            .add(3, GroupType::All, vec![Bucket::new(vec![Action::Group(9)])])
            .is_err());
        // Self reference rejected.
        assert!(gt
            .add(4, GroupType::All, vec![Bucket::new(vec![Action::Group(4)])])
            .is_err());
        // Duplicate id rejected.
        assert!(gt.add(1, GroupType::All, vec![]).is_err());
    }

    #[test]
    fn delete_all_clears() {
        let mut gt = GroupTable::new();
        gt.add(1, GroupType::All, vec![]).unwrap();
        gt.add(2, GroupType::All, vec![]).unwrap();
        let ids = gt.delete(crate::group_no::ALL);
        assert_eq!(ids, vec![1, 2]);
        assert!(gt.is_empty());
    }

    #[test]
    fn accounting() {
        let mut gt = GroupTable::new();
        gt.add(1, GroupType::All, vec![]).unwrap();
        gt.account(1, 100);
        gt.account(1, 50);
        let g = gt.get(1).unwrap();
        assert_eq!(g.packets, 2);
        assert_eq!(g.bytes, 150);
    }
}
