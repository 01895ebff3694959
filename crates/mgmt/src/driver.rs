//! NAPALM-like vendor-neutral configuration driver.
//!
//! NAPALM's value proposition is one API over many network OSes; each
//! driver translates intents into device-specific operations. Here the
//! intent vocabulary is exactly what the HARMLESS Manager needs — VLAN
//! creation, access-port assignment, trunk membership — and two
//! [`VendorDialect`]s compile it into different SNMP operation plans, the
//! way an `ios` and an `eos` driver would differ in real NAPALM.
//!
//! Plans use candidate/commit/rollback semantics: the driver holds a
//! candidate [`DesiredVlanConfig`], [`Driver::commit_plan`] emits the
//! ordered operations, and [`Driver::rollback_plan`] emits the inverse.

use crate::mibs;
use crate::oid::Oid;
use crate::pdu::Value;

/// One VLAN's membership in the desired state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VlanDef {
    /// VLAN id.
    pub vid: u16,
    /// Ports that carry the VLAN tagged or untagged (egress set).
    pub egress: Vec<u16>,
    /// Subset of `egress` that send it untagged (access side).
    pub untagged: Vec<u16>,
}

/// The desired end state the Manager wants on a legacy switch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DesiredVlanConfig {
    /// Ports on the device (for PortList sizing).
    pub n_ports: u16,
    /// VLANs to create.
    pub vlans: Vec<VlanDef>,
    /// `(port, pvid)` assignments for access ports.
    pub pvids: Vec<(u16, u16)>,
}

/// One step in a compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub enum SnmpOp {
    /// A Set of the given bindings (executed atomically by the agent).
    Set(Vec<(Oid, Value)>),
    /// A Get that must return `expect` for the plan to be considered
    /// applied (the Manager's post-commit verification).
    Verify(Oid, Value),
}

/// A vendor dialect: compiles intents into SNMP operations.
pub trait VendorDialect: Send {
    /// Dialect name, e.g. `"qbridge"`.
    fn name(&self) -> &str;

    /// Whether this dialect drives the device with this sysDescr.
    fn matches_sys_descr(&self, descr: &str) -> bool;

    /// Compile the configuration into an ordered operation plan.
    fn compile(&self, cfg: &DesiredVlanConfig) -> Vec<SnmpOp>;

    /// Compile the inverse plan (tear down what `compile` built).
    fn rollback(&self, cfg: &DesiredVlanConfig) -> Vec<SnmpOp>;
}

/// Standards-based dialect: batches each VLAN row into a single Set using
/// Q-BRIDGE-MIB columns, like a modern fully-compliant device.
#[derive(Debug, Default)]
pub struct QBridgeDialect;

impl VendorDialect for QBridgeDialect {
    fn name(&self) -> &str {
        "qbridge"
    }

    fn matches_sys_descr(&self, descr: &str) -> bool {
        descr.contains("Q-BRIDGE") || descr.contains("generic-l2")
    }

    fn compile(&self, cfg: &DesiredVlanConfig) -> Vec<SnmpOp> {
        let mut ops = Vec::new();
        for v in &cfg.vlans {
            // One atomic row create with all columns.
            ops.push(SnmpOp::Set(vec![
                (
                    Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, v.vid.into()),
                    Value::OctetString(mibs::encode_portlist(&v.egress, cfg.n_ports)),
                ),
                (
                    Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, v.vid.into()),
                    Value::OctetString(mibs::encode_portlist(&v.untagged, cfg.n_ports)),
                ),
                (
                    Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, v.vid.into()),
                    Value::Integer(mibs::ROW_CREATE_AND_GO),
                ),
            ]));
        }
        for &(port, pvid) in &cfg.pvids {
            ops.push(SnmpOp::Set(vec![(
                Oid::instance(mibs::PVID, port.into()),
                Value::Gauge32(u32::from(pvid)),
            )]));
        }
        // Verification reads: row status of each VLAN and each PVID.
        for v in &cfg.vlans {
            ops.push(SnmpOp::Verify(
                Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, v.vid.into()),
                Value::Integer(mibs::ROW_ACTIVE),
            ));
        }
        for &(port, pvid) in &cfg.pvids {
            ops.push(SnmpOp::Verify(
                Oid::instance(mibs::PVID, port.into()),
                Value::Gauge32(u32::from(pvid)),
            ));
        }
        ops
    }

    fn rollback(&self, cfg: &DesiredVlanConfig) -> Vec<SnmpOp> {
        let mut ops = Vec::new();
        // Reset PVIDs to the default VLAN first, then destroy rows.
        for &(port, _) in &cfg.pvids {
            ops.push(SnmpOp::Set(vec![(
                Oid::instance(mibs::PVID, port.into()),
                Value::Gauge32(1),
            )]));
        }
        for v in &cfg.vlans {
            ops.push(SnmpOp::Set(vec![(
                Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, v.vid.into()),
                Value::Integer(mibs::ROW_DESTROY),
            )]));
        }
        ops
    }
}

/// A crusty legacy dialect: its SNMP agent rejects multi-binding sets, so
/// every column write is its own operation and rows must be created before
/// their columns are populated — roughly triple the operation count. This
/// is the "old IOS-ish box" case NAPALM exists to paper over.
#[derive(Debug, Default)]
pub struct LegacyCliDialect;

impl VendorDialect for LegacyCliDialect {
    fn name(&self) -> &str {
        "legacy-cli"
    }

    fn matches_sys_descr(&self, descr: &str) -> bool {
        descr.contains("LegacyOS") || descr.contains("vintage")
    }

    fn compile(&self, cfg: &DesiredVlanConfig) -> Vec<SnmpOp> {
        let mut ops = Vec::new();
        for v in &cfg.vlans {
            ops.push(SnmpOp::Set(vec![(
                Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, v.vid.into()),
                Value::Integer(mibs::ROW_CREATE_AND_GO),
            )]));
            ops.push(SnmpOp::Set(vec![(
                Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, v.vid.into()),
                Value::OctetString(mibs::encode_portlist(&v.egress, cfg.n_ports)),
            )]));
            ops.push(SnmpOp::Set(vec![(
                Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, v.vid.into()),
                Value::OctetString(mibs::encode_portlist(&v.untagged, cfg.n_ports)),
            )]));
            ops.push(SnmpOp::Verify(
                Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, v.vid.into()),
                Value::Integer(mibs::ROW_ACTIVE),
            ));
        }
        for &(port, pvid) in &cfg.pvids {
            ops.push(SnmpOp::Set(vec![(
                Oid::instance(mibs::PVID, port.into()),
                Value::Gauge32(u32::from(pvid)),
            )]));
            ops.push(SnmpOp::Verify(
                Oid::instance(mibs::PVID, port.into()),
                Value::Gauge32(u32::from(pvid)),
            ));
        }
        ops
    }

    fn rollback(&self, cfg: &DesiredVlanConfig) -> Vec<SnmpOp> {
        QBridgeDialect.rollback(cfg)
    }
}

/// Pick the dialect for a device by its sysDescr (NAPALM's driver
/// auto-detection). Falls back to the standards-based dialect.
pub fn detect_dialect(sys_descr: &str) -> Box<dyn VendorDialect> {
    let candidates: Vec<Box<dyn VendorDialect>> =
        vec![Box::new(LegacyCliDialect), Box::new(QBridgeDialect)];
    for c in candidates {
        if c.matches_sys_descr(sys_descr) {
            return c;
        }
    }
    Box::new(QBridgeDialect)
}

/// The NAPALM-like facade holding a candidate configuration.
pub struct Driver {
    dialect: Box<dyn VendorDialect>,
    candidate: Option<DesiredVlanConfig>,
    committed: Option<DesiredVlanConfig>,
}

impl Driver {
    /// Wrap a dialect.
    pub fn new(dialect: Box<dyn VendorDialect>) -> Driver {
        Driver {
            dialect,
            candidate: None,
            committed: None,
        }
    }

    /// The active dialect's name.
    pub fn dialect_name(&self) -> &str {
        self.dialect.name()
    }

    /// Stage a candidate configuration (NAPALM `load_merge_candidate`).
    pub fn load_merge_candidate(&mut self, cfg: DesiredVlanConfig) {
        self.candidate = Some(cfg);
    }

    /// The plan that applies the candidate (NAPALM `commit_config`). The
    /// candidate becomes the committed config.
    pub fn commit_plan(&mut self) -> Vec<SnmpOp> {
        match self.candidate.take() {
            Some(cfg) => {
                let plan = self.dialect.compile(&cfg);
                self.committed = Some(cfg);
                plan
            }
            None => Vec::new(),
        }
    }

    /// The plan that reverts the last committed config (NAPALM
    /// `rollback`).
    pub fn rollback_plan(&mut self) -> Vec<SnmpOp> {
        match self.committed.take() {
            Some(cfg) => self.dialect.rollback(&cfg),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harmless_style_config() -> DesiredVlanConfig {
        // 4 access ports on a 5-port switch; port 5 is the trunk.
        let trunk = 5u16;
        let vlans = (1..=4u16)
            .map(|p| VlanDef {
                vid: 100 + p,
                egress: vec![p, trunk],
                untagged: vec![p],
            })
            .collect();
        DesiredVlanConfig {
            n_ports: 5,
            vlans,
            pvids: (1..=4).map(|p| (p, 100 + p)).collect(),
        }
    }

    #[test]
    fn qbridge_plan_is_batched() {
        let cfg = harmless_style_config();
        let plan = QBridgeDialect.compile(&cfg);
        // 4 VLAN sets + 4 pvid sets + 8 verifies
        assert_eq!(plan.len(), 16);
        let sets = plan.iter().filter(|o| matches!(o, SnmpOp::Set(_))).count();
        assert_eq!(sets, 8);
        // The first set has all three VLAN columns in one operation.
        match &plan[0] {
            SnmpOp::Set(b) => assert_eq!(b.len(), 3),
            other => panic!("expected Set, got {other:?}"),
        }
    }

    #[test]
    fn legacy_plan_is_per_column() {
        let cfg = harmless_style_config();
        let plan = LegacyCliDialect.compile(&cfg);
        // 4 VLANs × (3 sets + 1 verify) + 4 pvids × (1 set + 1 verify)
        assert_eq!(plan.len(), 24);
        for op in &plan {
            if let SnmpOp::Set(b) = op {
                assert_eq!(b.len(), 1, "legacy dialect must not batch bindings");
            }
        }
    }

    #[test]
    fn plans_encode_correct_portlists() {
        let cfg = harmless_style_config();
        let plan = QBridgeDialect.compile(&cfg);
        let SnmpOp::Set(bindings) = &plan[0] else {
            panic!()
        };
        // VLAN 101: egress = {1, 5}, untagged = {1}.
        assert_eq!(
            bindings[0].0,
            Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, 101)
        );
        assert_eq!(
            bindings[0].1,
            Value::OctetString(mibs::encode_portlist(&[1, 5], 5))
        );
        assert_eq!(
            bindings[1].1,
            Value::OctetString(mibs::encode_portlist(&[1], 5))
        );
    }

    #[test]
    fn dialect_detection() {
        assert_eq!(
            detect_dialect("Acme generic-l2 Q-BRIDGE switch").name(),
            "qbridge"
        );
        assert_eq!(
            detect_dialect("AcmeOS LegacyOS 9.1 vintage").name(),
            "legacy-cli"
        );
        assert_eq!(detect_dialect("who knows").name(), "qbridge");
    }

    #[test]
    fn candidate_commit_rollback_lifecycle() {
        let mut d = Driver::new(Box::new(QBridgeDialect));
        assert!(d.commit_plan().is_empty());
        d.load_merge_candidate(harmless_style_config());
        let plan = d.commit_plan();
        assert!(!plan.is_empty());
        assert!(d.commit_plan().is_empty(), "the candidate was committed");
        let rb = d.rollback_plan();
        // 4 pvid resets + 4 row destroys
        assert_eq!(rb.len(), 8);
        // Second rollback is a no-op.
        assert!(d.rollback_plan().is_empty());
    }

    #[test]
    fn rollback_resets_pvids_before_destroying_rows() {
        let cfg = harmless_style_config();
        let rb = QBridgeDialect.rollback(&cfg);
        let first_destroy = rb
            .iter()
            .position(
                |o| matches!(o, SnmpOp::Set(b) if b[0].1 == Value::Integer(mibs::ROW_DESTROY)),
            )
            .unwrap();
        let last_pvid = rb
            .iter()
            .rposition(|o| matches!(o, SnmpOp::Set(b) if matches!(b[0].1, Value::Gauge32(1))))
            .unwrap();
        assert!(
            last_pvid < first_destroy,
            "PVIDs must move off a VLAN before it is destroyed"
        );
    }
}
