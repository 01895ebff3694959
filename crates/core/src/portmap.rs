//! The access-port ↔ VLAN-id mapping at the heart of "Tagging and
//! Hairpinning".
//!
//! Each managed access port `p` of the legacy switch gets a dedicated
//! VLAN `base + p` that identifies it on the trunk. The map enforces the
//! 802.1Q budget (ids 1..=4094, one per port, no collisions with
//! VLANs reserved for other uses).

/// A validated, bijective access-port → VLAN-id mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortMap {
    base: u16,
    n_ports: u16,
}

/// Errors constructing a [`PortMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortMapError {
    /// No ports requested.
    NoPorts,
    /// `base + n_ports` would exceed VLAN id 4094.
    VlanSpaceExhausted,
    /// The base must leave VLAN 1 (the default VLAN) alone.
    BaseTooLow,
}

impl core::fmt::Display for PortMapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PortMapError::NoPorts => write!(f, "need at least one access port"),
            PortMapError::VlanSpaceExhausted => {
                write!(f, "mapping exceeds the 4094 usable VLAN ids")
            }
            PortMapError::BaseTooLow => write!(f, "VLAN base must be at least 2"),
        }
    }
}

impl std::error::Error for PortMapError {}

impl PortMap {
    /// The default VLAN base used across the workspace (port 1 ↔ VLAN 101,
    /// as in the paper's figure).
    pub const DEFAULT_BASE: u16 = 100;

    /// Map ports `1..=n_ports` to VLANs `base+1..=base+n_ports`.
    pub fn new(base: u16, n_ports: u16) -> Result<PortMap, PortMapError> {
        if n_ports == 0 {
            return Err(PortMapError::NoPorts);
        }
        if base < 1 {
            return Err(PortMapError::BaseTooLow);
        }
        if u32::from(base) + u32::from(n_ports) > 4094 {
            return Err(PortMapError::VlanSpaceExhausted);
        }
        Ok(PortMap { base, n_ports })
    }

    /// The default mapping for `n_ports` ports.
    pub fn with_defaults(n_ports: u16) -> Result<PortMap, PortMapError> {
        Self::new(Self::DEFAULT_BASE, n_ports)
    }

    /// Number of managed access ports.
    pub fn n_ports(&self) -> u16 {
        self.n_ports
    }

    /// VLAN id of access port `port` (1-based).
    pub fn vlan_of(&self, port: u16) -> Option<u16> {
        (1..=self.n_ports).contains(&port).then(|| self.base + port)
    }

    /// Access port of VLAN `vid`, if it belongs to this map.
    pub fn port_of(&self, vid: u16) -> Option<u16> {
        let p = vid.checked_sub(self.base)?;
        (1..=self.n_ports).contains(&p).then_some(p)
    }

    /// Iterate `(port, vlan)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, u16)> + '_ {
        (1..=self.n_ports).map(|p| (p, self.base + p))
    }

    /// All VLAN ids used by this map.
    pub fn vlans(&self) -> Vec<u16> {
        self.iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_a_bijection() {
        let m = PortMap::with_defaults(48).unwrap();
        for (p, v) in m.iter() {
            assert_eq!(m.vlan_of(p), Some(v));
            assert_eq!(m.port_of(v), Some(p));
        }
        assert_eq!(m.vlan_of(1), Some(101));
        assert_eq!(m.vlan_of(48), Some(148));
        assert_eq!(m.vlan_of(0), None);
        assert_eq!(m.vlan_of(49), None);
        assert_eq!(m.port_of(100), None);
        assert_eq!(m.port_of(149), None);
    }

    #[test]
    fn vlan_budget_enforced() {
        assert!(PortMap::new(100, 3994).is_ok()); // 100+3994 = 4094
        assert_eq!(
            PortMap::new(100, 3995).unwrap_err(),
            PortMapError::VlanSpaceExhausted
        );
        assert_eq!(PortMap::new(0, 4).unwrap_err(), PortMapError::BaseTooLow);
        assert_eq!(PortMap::new(100, 0).unwrap_err(), PortMapError::NoPorts);
    }

    #[test]
    fn proptest_like_sweep() {
        for base in [1u16, 2, 100, 1000, 4000] {
            for n in [1u16, 8, 48, 94] {
                if let Ok(m) = PortMap::new(base, n) {
                    let vlans = m.vlans();
                    assert_eq!(vlans.len(), usize::from(n));
                    let unique: std::collections::BTreeSet<_> = vlans.iter().collect();
                    assert_eq!(unique.len(), vlans.len(), "vlan ids must be unique");
                    assert!(vlans.iter().all(|&v| (2..=4094).contains(&v)));
                }
            }
        }
    }
}
