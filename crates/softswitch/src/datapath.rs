//! The multi-table OpenFlow 1.3 dataplane, structured as an explicit
//! run-to-completion pipeline.
//!
//! [`Datapath::process_batch_into`] is the one way a frame enters: a
//! [`FrameBatch`] goes in, a flat caller-owned [`BatchResult`] arena of
//! outputs / packet-ins / [`ProcessingTrace`]s comes out. Each batch
//! runs through staged processing:
//!
//! 1. **Parse** — every frame's [`FlowKey`] is extracted, and hashed
//!    if the mode has an exact-match layer, up front into per-batch
//!    scratch (reused across batches, no per-batch Vec churn);
//!    consecutive identical frames — packet trains — share one parse
//!    and one hash.
//! 2. **Probe + execute, run-to-completion per frame** — each frame
//!    resolves through microflow → megaflow → slow path, checking the
//!    epoch itself, and runs its actions immediately, emitting into the
//!    result arena. Frames are *not* pre-resolved as a separate stage,
//!    and nothing resolved for one frame is held for the next outside
//!    the caches: an action can mutate datapath state mid-batch (a NAT
//!    eviction bumps the epoch), so later frames must observe it.
//! 3. **Emit** — results land in the flat arena in input order, ready
//!    for the node's TX stage to walk without re-grouping.
//!
//! There is one action interpreter, the crate-private `Stepper` in
//! [`actions`](crate::actions). The slow path (and
//! [`Datapath::packet_out`]) only *lowers* OpenFlow instructions to
//! concrete [`CAction`]s — FLOOD to ports, a select group to its
//! bucket, NAT to set-fields, group buckets to scope markers — and
//! hands each one to the stepper as it is produced, recording it; a
//! cache hit hands the stepper the recording. One tail
//! (`Datapath::finish`) closes the frame either way, so a cached
//! frame is indistinguishable from the walk that recorded it.
//!
//! Frames travel as refcounted [`Bytes`] wrapped in a copy-on-write
//! [`FrameBuf`]: pure-forward and flood paths never copy payloads, a
//! byte-rewriting action (NAT, TTL, VLAN) works in place on a frame
//! nobody else holds and pays exactly one copy otherwise. Forward and
//! tag-and-forward programs — all a HARMLESS translator runs — replay
//! from a precompiled [`Plan`] without the interpreter. Depending on
//! [`PipelineMode`], lookups are served by the microflow cache, the
//! megaflow cache, tuple-space indexes, or a plain linear walk — the
//! ablation axis of the E11 experiment.

use bytes::Bytes;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use netpkt::flowkey::FieldMask;
use netpkt::{builder, icmp, EtherType, FlowKey, FrameBuf, IpProto, Layers, MacAddr};
use openflow::message::{FlowModSource, PacketInReason, PortDesc, PortStatsEntry};
use openflow::table::{FlowEntry, FlowModCommand, RemovedReason, Selector, TableId};
use openflow::{
    port_no, Action, Error, FlowTable, GroupTable, InstructionRef, MeterTable, NatDir, OxmField,
    Result,
};

use crate::actions::{pushed_tci, CAction, Halt, Stepper};
use crate::batch::{BatchResult, FrameBatch, FrameMark};
use crate::cache::{CachedPath, MegaflowCache, MicroflowCache, Plan, TagOp};
use crate::nat::{NatConfig, NatProto, NatTable};
use crate::trace::{LookupPath, ProcessingTrace};

/// Which lookup machinery is active — the ablation axis. The three
/// constructors are the only values: each adds to the one before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineMode {
    /// Use the tables' tuple-space index on the slow path (vs. linear
    /// scan).
    tss: bool,
    /// Put the microflow and megaflow caches in front of the tables.
    caches: bool,
}

impl PipelineMode {
    /// Linear scan only — the naive baseline.
    pub fn linear() -> Self {
        PipelineMode {
            tss: false,
            caches: false,
        }
    }

    /// TSS-indexed tables, no caches — an ESwitch-style specialised
    /// pipeline.
    pub fn tss() -> Self {
        PipelineMode {
            tss: true,
            caches: false,
        }
    }

    /// The full OVS-style hierarchy: micro → mega → TSS slow path.
    pub fn full() -> Self {
        PipelineMode {
            tss: true,
            caches: true,
        }
    }
}

impl Default for PipelineMode {
    fn default() -> Self {
        PipelineMode::full()
    }
}

/// A snapshot of a [`Datapath`]'s counters ([`Datapath::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DatapathStats {
    /// Packets processed (including those credited by the flow-level
    /// engine).
    pub packets: u64,
    /// Microflow cache hits.
    pub micro_hits: u64,
    /// Microflow cache misses.
    pub micro_misses: u64,
    /// Megaflow cache hits.
    pub mega_hits: u64,
    /// Megaflow cache misses — the slow-path walks when the cache is on.
    pub mega_misses: u64,
    /// Packets expired by `DecNwTtl` (answered with time-exceeded when
    /// a router identity is configured).
    pub ttl_expired: u64,
    /// Packets dropped by the NAT stage (no live connection, or an
    /// untranslatable protocol).
    pub nat_dropped: u64,
    /// Mutation epoch: bumps whenever tables, groups, meters, NAT state
    /// or the router identity change.
    pub epoch: u64,
}

/// Datapath construction parameters.
#[derive(Debug, Clone)]
pub struct DpConfig {
    /// OpenFlow datapath id.
    pub datapath_id: u64,
    /// Number of pipeline tables.
    pub n_tables: u8,
    /// Lookup machinery.
    pub mode: PipelineMode,
    /// Microflow cache capacity (8-byte slots; also bounds the path
    /// store of a mode without the megaflow layer).
    pub micro_capacity: usize,
    /// Megaflow cache capacity.
    pub mega_capacity: usize,
    /// Per-table entry capacity (`usize::MAX` = software, small = TCAM).
    pub table_capacity: usize,
}

impl DpConfig {
    /// A software switch: 4 tables, full caching, effectively unbounded
    /// rule space.
    pub fn software(datapath_id: u64) -> DpConfig {
        DpConfig {
            datapath_id,
            n_tables: 4,
            mode: PipelineMode::full(),
            micro_capacity: 65_536,
            mega_capacity: 8_192,
            table_capacity: usize::MAX,
        }
    }

    /// Builder-style mode override.
    pub fn with_mode(mut self, mode: PipelineMode) -> Self {
        self.mode = mode;
        self
    }
}

/// One switch port.
#[derive(Debug, Clone)]
pub struct PortInfo {
    /// OpenFlow port number (1-based).
    pub no: u32,
    /// Name, e.g. `"trunk0"` or `"patch3"`.
    pub name: String,
    /// Link state.
    pub up: bool,
    /// Advertised speed, kb/s.
    pub speed_kbps: u32,
}

/// The dataplane state of one software (or modelled hardware) switch.
pub struct Datapath {
    config: DpConfig,
    ports: BTreeMap<u32, PortInfo>,
    tables: Vec<FlowTable>,
    groups: GroupTable,
    meters: MeterTable,
    /// Mutation epoch: bumped by any table/group/meter/port change;
    /// flushes both caches.
    epoch: u64,
    caches: Caches,
    /// Per-port counters, dense-indexed by port number so hot-path
    /// accounting is an array index, not a map probe. Slots for
    /// unregistered ports carry `port_no == u32::MAX`.
    port_stats: Vec<PortStatsEntry>,
    packets_processed: u64,
    /// Router identity `(interface IP, MAC)` — the source of ICMP
    /// time-exceeded replies. `None` = pure L2 device, expired packets
    /// drop silently.
    router: Option<(Ipv4Addr, MacAddr)>,
    nat: NatTable,
    ttl_expired_total: u64,
    nat_dropped_total: u64,
    /// Per-batch scratch (the parsed keys and their hashes), reused
    /// across batches so steady-state service periods allocate nothing.
    keys: Vec<(FlowKey, u32)>,
}

/// Recursion bound for group chains.
const MAX_GROUP_DEPTH: u32 = 4;

/// The two lookup layers in front of the tables. Taken out of the
/// datapath for the duration of one batch and put back after, so a
/// hit's path is *borrowed* from the store across the replay (which
/// needs `&mut self`), never cloned.
#[derive(Default)]
struct Caches {
    micro: MicroflowCache,
    mega: MegaflowCache,
}

impl Caches {
    fn new(config: &DpConfig) -> Caches {
        Caches {
            micro: MicroflowCache::new(config.micro_capacity),
            mega: MegaflowCache::new(config.mega_capacity),
        }
    }
}

/// Slow-path state of one frame: the stepper executing it, plus what
/// only the lowering knows.
struct Lowering<'a> {
    fr: Stepper,
    /// Every action handed to `fr`, in order — the cacheable program.
    recorded: Vec<CAction>,
    /// Fields the walk consulted: the megaflow mask.
    unwild: FieldMask,
    now_ns: u64,
    /// The batch arena this frame emits into.
    out: &'a mut BatchResult,
}

/// Unwildcard the IPv4 5-tuple: decisions that hash or translate by it
/// (select groups, NAT) must not be replayed for other flows.
fn unwild_five_tuple(m: &mut FieldMask) {
    m.ipv4_src = u32::MAX;
    m.ipv4_dst = u32::MAX;
    m.ip_proto = u8::MAX;
    m.tcp_src = u16::MAX;
    m.tcp_dst = u16::MAX;
    m.udp_src = u16::MAX;
    m.udp_dst = u16::MAX;
}

/// The OF 1.3 action set: one slot per action kind, executed in spec
/// order at pipeline end.
#[derive(Debug, Default, Clone)]
struct ActionSet {
    pop_vlan: bool,
    push_vlan: Option<u16>,
    set_fields: Vec<openflow::OxmField>,
    group: Option<u32>,
    output: Option<u32>,
}

impl ActionSet {
    fn write<'a>(&mut self, actions: impl IntoIterator<Item = &'a Action>) {
        for a in actions {
            match a {
                Action::PopVlan => self.pop_vlan = true,
                Action::PushVlan(tpid) => self.push_vlan = Some(*tpid),
                Action::SetField(f) => {
                    self.set_fields.retain(|g| g.number() != f.number());
                    self.set_fields.push(*f);
                }
                Action::Group(g) => self.group = Some(*g),
                Action::Output { port, .. } => self.output = Some(*port),
                // TTL/NAT stages are apply-actions constructs in this
                // pipeline; a write-actions occurrence is ignored.
                Action::SetQueue(_) | Action::DecNwTtl | Action::Nat(_) => {}
            }
        }
    }

    fn clear(&mut self) {
        *self = ActionSet::default();
    }

    fn is_empty(&self) -> bool {
        !self.pop_vlan
            && self.push_vlan.is_none()
            && self.set_fields.is_empty()
            && self.group.is_none()
            && self.output.is_none()
    }
}

/// The empty flow tables of a datapath built per `config`.
fn empty_tables(config: &DpConfig) -> Vec<FlowTable> {
    (0..config.n_tables.max(1))
        .map(|i| FlowTable::with_capacity(config.datapath_id, TableId(i), config.table_capacity))
        .collect()
}

impl Datapath {
    /// Build an empty datapath per `config`.
    pub fn new(config: DpConfig) -> Datapath {
        Datapath {
            caches: Caches::new(&config),
            tables: empty_tables(&config),
            config,
            ports: BTreeMap::new(),
            groups: GroupTable::new(),
            meters: MeterTable::new(),
            epoch: 1,
            port_stats: Vec::new(),
            packets_processed: 0,
            router: None,
            nat: NatTable::new(),
            ttl_expired_total: 0,
            nat_dropped_total: 0,
            keys: Vec::new(),
        }
    }

    /// The datapath id.
    pub fn datapath_id(&self) -> u64 {
        self.config.datapath_id
    }

    /// Number of pipeline tables.
    pub fn n_tables(&self) -> u8 {
        self.tables.len() as u8
    }

    /// Current mutation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Drop every piece of dataplane state a power cycle would lose:
    /// all flow tables, groups, meters and both caches.
    /// Ports (hardware) and their counters survive. The epoch is bumped
    /// so any cached path that somehow survived is invalidated.
    pub fn reset_tables(&mut self) {
        self.tables = empty_tables(&self.config);
        self.groups = GroupTable::new();
        self.meters = MeterTable::new();
        self.caches = Caches::new(&self.config);
        self.epoch += 1;
    }

    /// Total packets processed.
    pub fn packets_processed(&self) -> u64 {
        self.packets_processed
    }

    /// Always 0: there is no batch memo. Kept only because the frozen
    /// `hbench/` reads it; goes with ROADMAP 1(b).
    pub fn batch_memo_hits(&self) -> u64 {
        0
    }

    /// Credit `frames` packets that the flow-level engine advanced
    /// analytically: the throughput counter moves as if the pipeline had
    /// processed them, without touching tables, caches or statistics
    /// that feed the quiescence signal.
    pub fn credit_modeled(&mut self, frames: u64) {
        self.packets_processed += frames;
    }

    /// Give the datapath a router identity: the interface address and
    /// MAC it answers ICMP time-exceeded from when a `DecNwTtl` expires
    /// a packet. Without one, expired packets drop silently.
    pub fn set_router(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.router = Some((ip, mac));
        self.epoch += 1;
    }

    /// Configure (or reconfigure) the stateful NAT stage. Drops all
    /// connection state and flushes the caches.
    pub fn configure_nat(&mut self, config: NatConfig) {
        self.nat.configure(config);
        self.epoch += 1;
    }

    /// The NAT connection table (stats, tests).
    pub fn nat(&self) -> &NatTable {
        &self.nat
    }

    /// Reclaim NAT connections idle past their timeout. A non-zero
    /// return flushed the caches (their recorded rewrites died with the
    /// connections).
    pub fn sweep_nat(&mut self, now_ns: u64) -> usize {
        let evicted = self.nat.sweep(now_ns);
        if evicted > 0 {
            self.epoch += 1;
        }
        evicted
    }

    /// Every counter of the datapath, read at once.
    pub fn stats(&self) -> DatapathStats {
        DatapathStats {
            packets: self.packets_processed,
            micro_hits: self.caches.micro.hits(),
            micro_misses: self.caches.micro.misses(),
            mega_hits: self.caches.mega.hits(),
            mega_misses: self.caches.mega.misses(),
            ttl_expired: self.ttl_expired_total,
            nat_dropped: self.nat_dropped_total,
            epoch: self.epoch,
        }
    }

    /// Register a port.
    pub fn add_port(&mut self, no: u32, name: impl Into<String>, speed_kbps: u32) {
        self.ports.insert(
            no,
            PortInfo {
                no,
                name: name.into(),
                up: true,
                speed_kbps,
            },
        );
        let idx = no as usize;
        debug_assert!(
            idx < 1 << 16,
            "dense port-stats index assumes small port numbers"
        );
        if self.port_stats.len() <= idx {
            self.port_stats.resize(
                idx + 1,
                PortStatsEntry {
                    port_no: u32::MAX,
                    ..Default::default()
                },
            );
        }
        self.port_stats[idx] = PortStatsEntry {
            port_no: no,
            ..Default::default()
        };
        self.epoch += 1;
    }

    /// The registered ports.
    pub fn ports(&self) -> impl Iterator<Item = &PortInfo> {
        self.ports.values()
    }

    /// OpenFlow port descriptions.
    pub fn port_descs(&self) -> Vec<PortDesc> {
        self.ports
            .values()
            .map(|p| PortDesc {
                port_no: p.no,
                hw_addr: netpkt::MacAddr::host(0xd000 + p.no),
                name: p.name.clone(),
                config: 0,
                state: if p.up { 0 } else { 1 },
                curr_speed: p.speed_kbps,
                max_speed: p.speed_kbps,
            })
            .collect()
    }

    /// Per-port counters.
    pub fn port_stats(&self) -> Vec<PortStatsEntry> {
        self.port_stats
            .iter()
            .filter(|s| s.port_no != u32::MAX)
            .copied()
            .collect()
    }

    /// Mutable per-port counters, `None` for unregistered ports.
    #[inline]
    fn pstat(&mut self, port: u32) -> Option<&mut PortStatsEntry> {
        self.port_stats
            .get_mut(port as usize)
            .filter(|s| s.port_no != u32::MAX)
    }

    /// Table accessor (stats, tests).
    pub fn table(&self, id: u8) -> Option<&FlowTable> {
        self.tables.get(usize::from(id))
    }

    /// Microflow cache stats accessor.
    pub fn micro_cache(&self) -> &MicroflowCache {
        &self.caches.micro
    }

    /// Megaflow cache stats accessor.
    pub fn mega_cache(&self) -> &MegaflowCache {
        &self.caches.mega
    }

    /// Flow-residency probe for the hybrid flow-level engine: would
    /// `frame`, arriving on `in_port`, be served entirely from this
    /// datapath's caches right now? Purely observational — no counters
    /// move, no cache is flushed, no slow-path walk happens.
    ///
    /// Returns `None` when the pipeline mode has no cache to consult
    /// (pure linear/TSS switches forward deterministically from their
    /// tables, so residency is not a meaningful signal there) and
    /// `Some(false)` for frames no [`FlowKey`] can be extracted from.
    pub fn flow_resident(&self, in_port: u32, frame: &[u8]) -> Option<bool> {
        if !self.config.mode.caches {
            return None;
        }
        let Ok(key) = FlowKey::extract(in_port, frame) else {
            return Some(false);
        };
        // One probe: every microflow slot is covered by a megaflow of
        // the same epoch.
        Some(self.caches.mega.contains(&key, self.epoch))
    }

    /// Monotonic disturbance counter for the hybrid flow-level engine:
    /// moves whenever something happens that could change how an
    /// established flow is forwarded. Folds together the mutation epoch
    /// (table/group/meter mods, NAT sweeps, resets), slow-path entries
    /// (cache misses of the outermost cache layer), NAT drops and TTL
    /// expiries. Cache *hits* and steady-state forwarding leave it
    /// still.
    ///
    /// The outermost cache layer is the megaflow cache when present:
    /// its misses are exactly the slow-path walks. Microflow misses are
    /// deliberately excluded in that configuration — a busy switch
    /// overflows the exact-match cache with emergency flushes forever
    /// (every post-flush refill is a micro miss served by the megaflow
    /// layer), which would keep a perfectly converged fabric "noisy".
    pub fn quiescence(&self) -> u64 {
        let s = self.stats();
        let slow_path = if self.config.mode.caches {
            s.mega_misses
        } else {
            0
        };
        s.epoch + slow_path + s.nat_dropped + s.ttl_expired
    }

    /// Apply a flow-mod, owned ([`openflow::message::FlowMod`]) or read
    /// where its frame holds it ([`openflow::message::FlowModRef`]);
    /// returns entries removed by delete commands (for `FLOW_REMOVED`
    /// generation). The match is read once, here: checked, keyed and,
    /// for an add, kept in the same walk of its fields. An add allocates
    /// the rule's match and program and nothing else; a modify or a
    /// delete allocates no match, and a delete nothing but the list it
    /// returns.
    pub fn apply_flow_mod(
        &mut self,
        fm: &impl FlowModSource,
        now_ns: u64,
    ) -> Result<Vec<(u8, FlowEntry)>> {
        let h = fm.header();
        let add = matches!(h.command, FlowModCommand::Add);
        let (key, mask, kept) = fm.checked_match(add)?;
        let tid = usize::from(h.table_id);
        // OFPTT_ALL names every table only in a delete; an add or a
        // modify for it is a bad table like any other out of range.
        let all_tables = h.table_id == 0xff
            && matches!(
                h.command,
                FlowModCommand::Delete | FlowModCommand::DeleteStrict
            );
        if !all_tables && tid >= self.tables.len() {
            return Err(Error::BadTable(h.table_id));
        }
        let sel = Selector {
            key,
            mask,
            priority: h.priority,
            strict: matches!(
                h.command,
                FlowModCommand::ModifyStrict | FlowModCommand::DeleteStrict
            ),
            cookie: h.cookie,
            cookie_mask: h.cookie_mask,
            out_port: h.out_port,
            out_group: h.out_group,
        };
        let mut removed = Vec::new();
        match h.command {
            FlowModCommand::Add => {
                // Kept, since this is an add.
                let match_ = kept.unwrap_or_default();
                let entry = FlowEntry::new(h.priority, match_, fm.to_program(), now_ns)
                    .with_cookie(h.cookie)
                    .with_timeouts(h.idle_timeout, h.hard_timeout)
                    .with_flags(h.flags);
                self.tables[tid].add(entry, key, mask)?;
            }
            FlowModCommand::Modify | FlowModCommand::ModifyStrict => {
                self.tables[tid].modify(&sel, &fm.to_program());
            }
            FlowModCommand::Delete | FlowModCommand::DeleteStrict => {
                let range = if all_tables {
                    0..self.tables.len()
                } else {
                    tid..tid + 1
                };
                for t in range {
                    self.tables[t].delete(&sel, |e| removed.push((t as u8, e)));
                }
            }
        }
        self.epoch += 1;
        Ok(removed)
    }

    /// Apply a group-mod.
    pub fn apply_group_mod(
        &mut self,
        command: openflow::group::GroupModCommand,
        type_: openflow::GroupType,
        group_id: u32,
        buckets: Vec<openflow::Bucket>,
    ) -> Result<()> {
        use openflow::group::GroupModCommand as C;
        match command {
            C::Add => self.groups.add(group_id, type_, buckets)?,
            C::Modify => self.groups.modify(group_id, type_, buckets)?,
            C::Delete => {
                self.groups.delete(group_id);
            }
        }
        self.epoch += 1;
        Ok(())
    }

    /// Apply a meter-mod.
    pub fn apply_meter_mod(
        &mut self,
        command: openflow::meter::MeterModCommand,
        meter_id: u32,
        pktps: bool,
        band: Option<openflow::MeterBand>,
        now_ns: u64,
    ) -> Result<()> {
        use openflow::meter::MeterModCommand as C;
        match command {
            C::Add => {
                let band = band.ok_or(Error::BadMeter("add needs a band"))?;
                self.meters.add(meter_id, band, pktps, now_ns)?;
            }
            C::Modify => {
                let band = band.ok_or(Error::BadMeter("modify needs a band"))?;
                self.meters.modify(meter_id, band, pktps)?;
            }
            C::Delete => {
                self.meters.delete(meter_id);
            }
        }
        self.epoch += 1;
        Ok(())
    }

    /// Remove timed-out flows; returns `(table, entry, reason)` for
    /// `FLOW_REMOVED` generation.
    pub fn expire_flows(&mut self, now_ns: u64) -> Vec<(u8, FlowEntry, RemovedReason)> {
        let mut out = Vec::new();
        for (t, table) in self.tables.iter_mut().enumerate() {
            for (e, r) in table.expire(now_ns) {
                out.push((t as u8, e, r));
            }
        }
        if !out.is_empty() {
            self.epoch += 1;
        }
        out
    }

    /// Execute a controller `PACKET_OUT`: apply `actions` to `data` with
    /// `in_port` as the ingress context, appending one frame's results
    /// to `out` (whatever `out` already holds stays).
    pub fn packet_out(
        &mut self,
        in_port: u32,
        actions: &[Action],
        data: Bytes,
        now_ns: u64,
        out: &mut BatchResult,
    ) {
        let key = FlowKey::extract_lossy(in_port, &data);
        let mark = out.mark();
        let trace = ProcessingTrace::new(data.len());
        let mut ctx = Lowering {
            fr: Stepper::new(data, key, trace),
            recorded: Vec::new(),
            unwild: FieldMask::default(),
            now_ns,
            out,
        };
        self.lower_actions(actions, &mut ctx, false, 0);
        self.finish(ctx.fr, mark, ctx.out);
    }

    /// Process a whole batch of frames into a caller-owned (reusable)
    /// result arena, draining `batch`.
    ///
    /// Staged, DPDK burst style:
    ///
    /// 1. **Parse** — every frame's [`FlowKey`] is extracted (and hashed,
    ///    if the mode has an exact-match layer) up front into per-batch
    ///    scratch; a frame bit-identical to its predecessor (a packet
    ///    train) copies the previous key and hash instead;
    /// 2. **Probe + execute** — each frame runs to completion: its key
    ///    resolves through the cache hierarchy (or the slow path), and
    ///    its actions replay immediately into the arena;
    /// 3. **Emit** — per-frame results land in `out` in input order
    ///    (group them with [`BatchResult::outputs_by_port`]).
    ///
    /// Outputs, packet-ins, drop decisions, counters and traces are
    /// identical to submitting each frame as a batch of its own, in
    /// order, with the same `now_ns`: nothing is resolved per batch, so
    /// the batch only spreads the call's fixed cost and a train's parse.
    /// `tests/tests/proptests.rs` pins this equivalence property down.
    pub fn process_batch_into(
        &mut self,
        batch: &mut FrameBatch,
        now_ns: u64,
        out: &mut BatchResult,
    ) {
        out.clear();
        // Keys and caches leave `self` for the duration of the batch so
        // they can be borrowed alongside `&mut self`.
        let mut keys = std::mem::take(&mut self.keys);
        let mut caches = std::mem::take(&mut self.caches);

        // Stage 1: parse all frames before any lookup. Consecutive
        // bit-identical frames on the same port (packet trains) share
        // one parse and one hash — the memcmp is far cheaper than a key
        // extraction. Only the microflow probe reads the hash.
        let hashed = self.config.mode.caches;
        keys.clear();
        let mut prev: Option<(u32, &Bytes)> = None;
        for (port, frame) in batch.iter() {
            let keyed = match prev {
                // Same backing storage (a refcount clone of the same
                // frame) short-circuits the memcmp entirely.
                Some((p, f))
                    if p == *port
                        && ((f.as_ptr() == frame.as_ptr() && f.len() == frame.len())
                            || f == frame) =>
                {
                    *keys.last().expect("prev implies a pushed key")
                }
                _ => {
                    let key = FlowKey::extract_lossy(*port, frame);
                    (key, if hashed { key.flow_hash(0) } else { 0 })
                }
            };
            keys.push(keyed);
            prev = Some((*port, frame));
        }

        // Stage 2+3: run each frame to completion, emitting into `out`.
        for ((_, frame), (key, hash)) in batch.drain().zip(&keys) {
            self.process_keyed(frame, key, *hash, now_ns, &mut caches, out);
        }
        self.caches = caches;
        self.keys = keys;
    }

    /// The per-frame engine behind [`Datapath::process_batch_into`]:
    /// microflow → megaflow → slow path, emitting one frame's results
    /// into `out`; `caches` are this datapath's, detached by the caller.
    /// `hash` is the key's [`FlowKey::flow_hash`]`(0)` when the mode has
    /// a microflow layer (never read otherwise): it serves the microflow
    /// probe, a megaflow hit's promotion and whatever is installed
    /// afterwards.
    fn process_keyed(
        &mut self,
        frame: Bytes,
        key: &FlowKey,
        hash: u32,
        now_ns: u64,
        caches: &mut Caches,
        out: &mut BatchResult,
    ) {
        self.packets_processed += 1;
        if let Some(s) = self.pstat(key.in_port) {
            s.rx_packets += 1;
            s.rx_bytes += frame.len() as u64;
        }
        let mut trace = ProcessingTrace::new(frame.len());
        let Caches { micro, mega } = caches;

        // 1. Microflow layer (a signature into the megaflow store), then
        //    2. the store's own wildcard lookup (admitting its hits into
        //    the microflow layer). A hit's path is borrowed from the
        //    store.
        let mut cached = None;
        if self.config.mode.caches {
            cached = micro.lookup_hashed(hash, key, self.epoch, mega);
            if cached.is_some() {
                trace.path = LookupPath::MicroHit;
            }
        }
        if cached.is_none() && self.config.mode.caches {
            let (hit, probes) = mega.lookup(key, self.epoch);
            if let Some(id) = hit {
                trace.path = LookupPath::MegaHit { probes };
                micro.insert_hashed(hash, id, mega);
            } else {
                // carry the wasted probes into the slow-path accounting
                trace.path = LookupPath::SlowPath {
                    tables: 0,
                    entries_scanned: 0,
                    tss_probes: probes,
                };
            }
            cached = hit;
        }
        if let Some(id) = cached {
            return self.replay_path(mega.path(id), frame, key, now_ns, trace, out);
        }

        // 3. Slow path; what it recorded goes into the store, and its
        //    5-tuple into the microflow layer.
        let Some((path, unwild)) = self.slow_path(frame, *key, now_ns, trace, out) else {
            return;
        };
        let id = mega.insert(key, unwild, path);
        micro.insert_hashed(hash, id, mega);
    }

    /// Serve `frame` from a cached [`CachedPath`]: bump the flow counters
    /// the recording walk bumped, then step the recorded program.
    fn replay_path(
        &mut self,
        path: &CachedPath,
        frame: Bytes,
        key: &FlowKey,
        now_ns: u64,
        trace: ProcessingTrace,
        out: &mut BatchResult,
    ) {
        let len = frame.len() as u64;
        for &(t, idx) in &path.hits {
            self.tables[t].hit(idx, len, now_ns);
        }
        if let Some(plan) = path.plan() {
            return self.replay_plan(plan, &path.actions, frame, key, trace, out);
        }
        let mark = out.mark();
        let mut fr = Stepper::new(frame, *key, trace);
        for a in &path.actions {
            fr.step(a, now_ns, &mut self.meters, &mut self.nat, out);
        }
        self.finish(fr, mark, out);
    }

    /// [`Datapath::replay_path`] specialised for a forward or
    /// tag-and-forward program (see [`Plan`]): do the one tag operation
    /// through the same [`FrameBuf`] calls the interpreter makes — in
    /// place when nobody else holds the frame — then bump the port
    /// counters and emit. No action interpretation, no key copy, no
    /// re-parse after a pop. The last output takes ownership of `frame`,
    /// so the common single-output path performs no refcount traffic at
    /// all.
    fn replay_plan(
        &mut self,
        plan: Plan,
        actions: &[CAction],
        mut frame: Bytes,
        key: &FlowKey,
        mut trace: ProcessingTrace,
        out: &mut BatchResult,
    ) {
        let mark = out.mark();
        if let Some(op) = plan.tag {
            trace.vlan_ops += 1;
            let mut buf = FrameBuf::from_bytes(frame);
            // A frame the operation refuses goes out as it came in,
            // exactly as the interpreter leaves it.
            let _ = match op {
                TagOp::Pop => buf.pop_vlan(),
                TagOp::Push { tpid, vid } => {
                    let mut tci = pushed_tci(key);
                    if let Some(vid) = vid {
                        trace.set_fields += 1;
                        tci = (tci & 0xe000) | vid;
                    }
                    buf.push_vlan(tpid, tci)
                }
            };
            frame = buf.into_bytes();
        }
        let len = frame.len() as u64;
        trace.outputs += plan.outputs;
        let mut left = plan.outputs;
        for a in actions {
            let CAction::Output(p) = a else { continue };
            if let Some(s) = self.pstat(*p) {
                s.tx_packets += 1;
                s.tx_bytes += len;
            }
            left -= 1;
            if left == 0 {
                out.push_output(*p, frame);
                break;
            }
            out.push_output(*p, frame.clone());
        }
        out.finish_frame(mark, plan.outputs == 0, Some(trace));
    }

    /// Close a frame whose program has run — the one tail behind the
    /// slow path, cached replays and `packet_out`: answer a TTL death,
    /// account the transmissions, decide the drop, record the trace.
    fn finish(&mut self, mut fr: Stepper, mark: FrameMark, out: &mut BatchResult) {
        match fr.halt {
            // A TTL death is answered with ICMP time-exceeded out of
            // the ingress port, when this datapath has a router
            // identity. The packet itself still counts as dropped.
            Some(Halt::TtlExpired) => {
                self.ttl_expired_total += 1;
                if let Some((port, reply)) = self.time_exceeded_reply(fr.key.in_port, &fr.buf) {
                    fr.trace.outputs += 1;
                    out.push_output(port, reply);
                }
            }
            Some(Halt::NatRefused) => self.nat_dropped_total += 1,
            Some(Halt::Metered) | None => {}
        }
        for (port, f) in out.outputs_from(mark) {
            if let Some(s) = self.pstat(*port) {
                s.tx_packets += 1;
                s.tx_bytes += f.len() as u64;
            }
        }
        let dropped = fr.halt.is_some()
            || (out.outputs_from(mark).is_empty() && out.no_packet_ins_from(mark));
        out.finish_frame(mark, dropped, Some(fr.trace));
    }

    /// Build the ICMP time-exceeded reply for the expired packet in
    /// `buf`, addressed back to its sender out of `in_port`. `None`
    /// when this datapath has no router identity, the packet is not
    /// IPv4, or it is itself an ICMP error (RFC 1812 §4.3.2.7 — never
    /// answer errors with errors).
    fn time_exceeded_reply(&self, in_port: u32, buf: &[u8]) -> Option<(u32, Bytes)> {
        let (router_ip, router_mac) = self.router?;
        let walk = Layers::parse(buf).ok()?;
        let v4 = walk.ipv4()?;
        if v4.ip.proto == IpProto::ICMP && !icmp::Header::parse(&mut { v4.l4 }).ok()?.is_echo() {
            return None;
        }
        let reply = builder::icmp_time_exceeded(
            router_mac,
            walk.eth.src,
            router_ip,
            v4.ip.src,
            buf.get(walk.l3_at..)?,
        );
        Some((in_port, reply))
    }

    /// Hand one lowered action to the frame's stepper and record it.
    fn emit(&mut self, ctx: &mut Lowering, a: CAction) {
        ctx.fr
            .step(&a, ctx.now_ns, &mut self.meters, &mut self.nat, ctx.out);
        ctx.recorded.push(a);
    }

    /// Walk the tables for a frame no cache resolved, lowering each
    /// instruction to [`CAction`]s that the frame's stepper executes on
    /// the spot. Returns the recording and the fields the walk
    /// consulted (the megaflow mask) when the caller should cache it —
    /// never in a mode without caches, where nothing would keep it.
    fn slow_path(
        &mut self,
        frame: Bytes,
        key: FlowKey,
        now_ns: u64,
        trace: ProcessingTrace,
        out: &mut BatchResult,
    ) -> Option<(CachedPath, FieldMask)> {
        let (mut tables_visited, mut scanned, mut tss_probes) = match trace.path {
            LookupPath::SlowPath {
                tables,
                entries_scanned,
                tss_probes,
            } => (tables, entries_scanned, tss_probes),
            _ => (0, 0, 0),
        };
        let mark = out.mark();
        let mut ctx = Lowering {
            fr: Stepper::new(frame, key, trace),
            recorded: Vec::new(),
            unwild: FieldMask {
                in_port: u32::MAX,
                ..FieldMask::default()
            },
            now_ns,
            out,
        };
        let mut action_set = ActionSet::default();
        let mut table = 0usize;
        let mut hits: Vec<(usize, usize)> = Vec::new();

        loop {
            tables_visited += 1;
            ctx.unwild = ctx.unwild.mask_union(&self.tables[table].aggregate_mask());

            let hit = if self.config.mode.tss {
                let (hit, probes) = self.tables[table].lookup_indexed(&ctx.fr.key);
                tss_probes += probes;
                hit
            } else {
                let (hit, n) = self.tables[table].lookup_counting(&ctx.fr.key);
                scanned += n as u32;
                hit
            };

            let Some(entry_idx) = hit else {
                // OF 1.3 §5.4: no table-miss entry ⇒ drop.
                break;
            };
            self.tables[table].hit(entry_idx, ctx.fr.buf.len() as u64, now_ns);
            hits.push((table, entry_idx));
            // Lowering needs the datapath but never its tables: they
            // step aside while the entry's program is read in place.
            let tables = std::mem::take(&mut self.tables);
            let entry = tables[table].entry(entry_idx);
            let is_miss_entry = entry.priority == 0 && entry.match_.fields().is_empty();

            let mut goto: Option<u8> = None;
            for insn in &entry.instructions {
                match insn {
                    InstructionRef::Meter(id) => self.emit(&mut ctx, CAction::Meter(id)),
                    InstructionRef::ApplyActions(list) => {
                        self.lower_actions(list, &mut ctx, is_miss_entry, 0);
                    }
                    InstructionRef::ClearActions => action_set.clear(),
                    InstructionRef::WriteActions(list) => action_set.write(list),
                    InstructionRef::WriteMetadata { metadata, mask } => {
                        let k = &mut ctx.fr.key;
                        k.metadata = (k.metadata & !mask) | (metadata & mask);
                    }
                    InstructionRef::GotoTable(t) => goto = Some(t),
                }
            }
            self.tables = tables;
            // A halted frame ignored whatever followed the halt; it
            // neither continues down the pipeline nor runs its action set.
            if ctx.fr.halt.is_some() {
                break;
            }
            match goto {
                Some(t) if usize::from(t) < self.tables.len() && usize::from(t) > table => {
                    table = usize::from(t);
                }
                Some(_) => break, // invalid goto: stop processing
                None => {
                    // End of pipeline: run the action set.
                    if !action_set.is_empty() {
                        let list = Self::action_set_to_list(&action_set);
                        self.lower_actions(&list, &mut ctx, is_miss_entry, 0);
                    }
                    break;
                }
            }
        }

        ctx.fr.trace.path = LookupPath::SlowPath {
            tables: tables_visited,
            entries_scanned: scanned,
            tss_probes,
        };

        // Cacheable only for clean, meter-free completions: metered
        // paths are rate-dependent and recycle through the slow path,
        // and TTL-expired / NAT-refused packets record a truncated path
        // that healthy packets must not replay. NAT translates an ICMP
        // echo by its identifier, which the flow key does not carry: a
        // cached translation would hand the next echo of the 5-tuple
        // the identifier of the one that made it.
        let mode = self.config.mode;
        let per_frame = ctx
            .recorded
            .iter()
            .any(|a| matches!(a, CAction::Meter(_) | CAction::SetIcmpId(_)));
        let cacheable = !hits.is_empty() && ctx.fr.halt.is_none() && !per_frame;
        let install = (cacheable && mode.caches).then(|| {
            let path = CachedPath::new(std::mem::take(&mut ctx.recorded), hits, self.epoch);
            (path, ctx.unwild)
        });
        self.finish(ctx.fr, mark, ctx.out);
        install
    }

    fn action_set_to_list(set: &ActionSet) -> Vec<Action> {
        // Spec execution order: pop, push, set-field, group, output
        // (output ignored when a group is present).
        let mut list = Vec::new();
        if set.pop_vlan {
            list.push(Action::PopVlan);
        }
        if let Some(tpid) = set.push_vlan {
            list.push(Action::PushVlan(tpid));
        }
        for f in &set.set_fields {
            list.push(Action::SetField(*f));
        }
        if let Some(g) = set.group {
            list.push(Action::Group(g));
        } else if let Some(p) = set.output {
            list.push(Action::output(p));
        }
        list
    }

    /// Lower an OpenFlow action list: reserved ports to concrete ones,
    /// groups to their buckets, NAT to the set-fields it resolves to.
    fn lower_actions<'a>(
        &mut self,
        list: impl IntoIterator<Item = &'a Action>,
        ctx: &mut Lowering,
        miss_entry: bool,
        depth: u32,
    ) {
        for a in list {
            if ctx.fr.halt.is_some() {
                return;
            }
            match a {
                Action::PushVlan(tpid) => self.emit(ctx, CAction::PushVlan(*tpid)),
                Action::PopVlan => {
                    self.emit(ctx, CAction::PopVlan);
                    // Popping exposes inner headers: matching beyond here
                    // depended on the tag, keep it unwildcarded.
                    ctx.unwild.vlan_vid = u16::MAX;
                }
                Action::SetField(f) => self.emit(ctx, CAction::SetField(*f)),
                Action::DecNwTtl => self.emit(ctx, CAction::DecTtl),
                Action::Nat(dir) => self.lower_nat(*dir, ctx),
                Action::SetQueue(_) => {}
                Action::Group(gid) => self.lower_group(*gid, ctx, depth),
                Action::Output { port, .. } => self.lower_output(*port, ctx, miss_entry),
            }
        }
    }

    /// The stateful NAT stage, lowered to *the concrete rewrites it
    /// resolved to*, so cached replays of established connections skip
    /// the state lookup entirely — the [`CAction::NatTouch`] emitted
    /// alongside keeps the connection's idle timer honest on those
    /// fast-path hits.
    fn lower_nat(&mut self, dir: NatDir, ctx: &mut Lowering) {
        // Translation decisions depend on the full 5-tuple (and the
        // ICMP header for echo flows): the megaflow entry must be at
        // least that specific or other flows would replay this one's
        // rewrites.
        unwild_five_tuple(&mut ctx.unwild);
        ctx.unwild.icmp_type = u8::MAX;
        ctx.unwild.icmp_code = u8::MAX;
        let Some(ext_ip) = self.nat.external_ip() else {
            return; // unconfigured: stage is a no-op
        };
        let key = ctx.fr.key;
        if key.eth_type != EtherType::IPV4.0 {
            return;
        }
        // Refusals are never cached — a later outbound packet can create
        // the very mapping this one lacked. Only echo flows have an
        // identifier to translate ICMP by.
        let Some(proto) = NatProto::from_ip_proto(IpProto(key.ip_proto))
            .filter(|p| *p != NatProto::Icmp || matches!(key.icmp_type, 0 | 8))
        else {
            ctx.fr.halt = Some(Halt::NatRefused);
            return;
        };
        // The identifier the connection goes by on the side this packet
        // came from.
        let seen_id = match (proto, dir) {
            (NatProto::Tcp, NatDir::Egress) => key.tcp_src,
            (NatProto::Tcp, NatDir::Ingress) => key.tcp_dst,
            (NatProto::Udp, NatDir::Egress) => key.udp_src,
            (NatProto::Udp, NatDir::Ingress) => key.udp_dst,
            (NatProto::Icmp, _) => self.frame_echo_ident(&ctx.fr.buf).unwrap_or(0),
        };
        // (address rewrite, identifier on the far side, keep-alive token)
        let resolved = match dir {
            NatDir::Egress => {
                let int_ip = Ipv4Addr::from(key.ipv4_src);
                self.nat
                    .egress(proto, int_ip, seen_id, ctx.now_ns)
                    .map(|m| {
                        if m.evicted {
                            // The victim's cached rewrites are stale now.
                            self.epoch += 1;
                        }
                        (OxmField::Ipv4Src(ext_ip, None), m.ext_id, m.token)
                    })
            }
            NatDir::Ingress if key.ipv4_dst == u32::from(ext_ip) => self
                .nat
                .ingress(proto, seen_id, ctx.now_ns)
                .map(|m| (OxmField::Ipv4Dst(m.int_ip, None), m.int_id, m.token)),
            NatDir::Ingress => None,
        };
        let Some((addr, id, token)) = resolved else {
            ctx.fr.halt = Some(Halt::NatRefused); // no live connection
            return;
        };
        self.emit(ctx, CAction::SetField(addr));
        self.emit(
            ctx,
            match (proto, dir) {
                (NatProto::Tcp, NatDir::Egress) => CAction::SetField(OxmField::TcpSrc(id)),
                (NatProto::Tcp, NatDir::Ingress) => CAction::SetField(OxmField::TcpDst(id)),
                (NatProto::Udp, NatDir::Egress) => CAction::SetField(OxmField::UdpSrc(id)),
                (NatProto::Udp, NatDir::Ingress) => CAction::SetField(OxmField::UdpDst(id)),
                (NatProto::Icmp, _) => CAction::SetIcmpId(id),
            },
        );
        self.emit(ctx, CAction::NatTouch(token));
    }

    /// The ICMP echo identifier of the (possibly VLAN-tagged) frame.
    fn frame_echo_ident(&self, buf: &[u8]) -> Option<u16> {
        let walk = Layers::parse(buf).ok()?;
        let v4 = walk.ipv4().filter(|v4| v4.ip.proto == IpProto::ICMP)?;
        Some(icmp::Header::parse(&mut { v4.l4 }).ok()?.ident)
    }

    fn lower_group(&mut self, gid: u32, ctx: &mut Lowering, depth: u32) {
        if depth >= MAX_GROUP_DEPTH {
            return;
        }
        ctx.fr.trace.group_hops += 1;
        let Some(group) = self.groups.get(gid) else {
            return;
        };
        // Select-group bucket choice hashes the 5-tuple: those fields must
        // be in the megaflow mask or different flows would replay the
        // wrong bucket.
        if group.type_ == openflow::GroupType::Select {
            unwild_five_tuple(&mut ctx.unwild);
            ctx.unwild.ipv6_src = u128::MAX;
            ctx.unwild.ipv6_dst = u128::MAX;
        }
        let buckets: Vec<Vec<Action>> = group
            .select_buckets(&ctx.fr.key)
            .into_iter()
            .map(|b| b.actions.clone())
            .collect();
        self.groups.account(gid, ctx.fr.buf.len() as u64);
        // Each bucket works on its own copy of the packet and the packet
        // after the group is the packet before it (OF 1.3 §5.6.1): the
        // scope markers make that part of the recording.
        for bucket in buckets {
            self.emit(ctx, CAction::BucketBegin);
            self.lower_actions(&bucket, ctx, false, depth + 1);
            self.emit(ctx, CAction::BucketEnd);
        }
    }

    /// Lower an output to concrete ports. Every emission is a
    /// [`FrameBuf::snapshot`](netpkt::FrameBuf::snapshot) — a refcount
    /// bump, never a payload copy; a flood to N ports shares one backing
    /// buffer N ways.
    fn lower_output(&mut self, port: u32, ctx: &mut Lowering, miss_entry: bool) {
        let in_port = ctx.fr.key.in_port;
        match port {
            port_no::CONTROLLER => {
                let reason = if miss_entry {
                    PacketInReason::NoMatch
                } else {
                    PacketInReason::Action
                };
                self.emit(ctx, CAction::ToController(reason));
            }
            port_no::IN_PORT => self.emit(ctx, CAction::Output(in_port)),
            port_no::FLOOD | port_no::ALL => {
                let ports: Vec<u32> = self
                    .ports
                    .values()
                    .filter(|p| p.up && p.no != in_port)
                    .map(|p| p.no)
                    .collect();
                for p in ports {
                    self.emit(ctx, CAction::Output(p));
                }
            }
            port_no::ANY | port_no::TABLE | port_no::NORMAL | port_no::LOCAL => {}
            concrete => self.emit(ctx, CAction::Output(concrete)),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netpkt::{builder, MacAddr};
    use openflow::message::FlowMod;
    use openflow::{Instruction, Match};
    use std::net::Ipv4Addr;

    fn udp_frame(src: u32, dst_port: u16) -> Bytes {
        builder::udp_packet(
            MacAddr::host(src),
            MacAddr::host(99),
            Ipv4Addr::from(0x0a000000 + src),
            Ipv4Addr::new(10, 0, 0, 99),
            1000,
            dst_port,
            b"data",
        )
    }

    fn dp(mode: PipelineMode) -> Datapath {
        let mut dp = Datapath::new(DpConfig::software(1).with_mode(mode));
        for p in 1..=4 {
            dp.add_port(p, format!("p{p}"), 1_000_000);
        }
        dp
    }

    fn run_batch(dp: &mut Datapath, batch: &mut FrameBatch, now_ns: u64) -> BatchResult {
        let mut out = BatchResult::default();
        dp.process_batch_into(batch, now_ns, &mut out);
        out
    }

    /// One frame as a batch of its own into a fresh arena: frame 0 of
    /// the result is the frame.
    pub(crate) fn run_one(
        dp: &mut Datapath,
        in_port: u32,
        frame: Bytes,
        now_ns: u64,
    ) -> BatchResult {
        run_batch(dp, &mut [(in_port, frame)].into_iter().collect(), now_ns)
    }

    fn add_forward_rule(dp: &mut Datapath, dst_port: u16, out: u32) {
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(dst_port))
                .apply(vec![Action::output(out)]),
            0,
        )
        .unwrap();
    }

    #[test]
    fn basic_forwarding_all_modes() {
        for mode in [
            PipelineMode::linear(),
            PipelineMode::tss(),
            PipelineMode::full(),
        ] {
            let mut dp = dp(mode);
            add_forward_rule(&mut dp, 53, 2);
            let r = run_one(&mut dp, 1, udp_frame(1, 53), 0);
            assert_eq!(r.outputs_of(0).len(), 1, "mode {mode:?}");
            assert_eq!(r.outputs_of(0)[0].0, 2);
            assert!(!r.frame(0).dropped);
            let r = run_one(&mut dp, 1, udp_frame(1, 80), 0);
            assert!(
                r.frame(0).dropped,
                "no rule for port 80 ⇒ drop (mode {mode:?})"
            );
        }
    }

    #[test]
    fn table_counters_advance_alike_under_linear_and_tss() {
        let counters = |mode| {
            let mut dp = dp(mode);
            add_forward_rule(&mut dp, 53, 2);
            add_forward_rule(&mut dp, 80, 3);
            for (src, dst_port) in [(1, 53), (2, 80), (3, 443), (1, 53), (4, 22)] {
                run_one(&mut dp, 1, udp_frame(src, dst_port), 0);
            }
            let t = dp.table(0).unwrap();
            (t.lookups(), t.hits())
        };
        assert_eq!(counters(PipelineMode::linear()), (5, 3));
        assert_eq!(counters(PipelineMode::tss()), (5, 3));
    }

    #[test]
    fn cache_hierarchy_is_used() {
        let mut dp = dp(PipelineMode::full());
        add_forward_rule(&mut dp, 53, 2);
        // First packet: slow path.
        let r1 = run_one(&mut dp, 1, udp_frame(1, 53), 0);
        assert!(matches!(
            r1.frame(0).trace.unwrap().path,
            LookupPath::SlowPath { .. }
        ));
        // Same microflow: microflow hit.
        let r2 = run_one(&mut dp, 1, udp_frame(1, 53), 1);
        assert!(matches!(
            r2.frame(0).trace.unwrap().path,
            LookupPath::MicroHit
        ));
        // Different src, same rule region: megaflow hit (the aggregate
        // mask includes eth/ip fields, so src variation stays within one
        // megaflow only if the mask says so — here table 0 masks udp_dst,
        // eth_type, ip_proto, and IN_PORT, so a new src IP still maps to
        // the same masked key... but eth_src differs in the key only if
        // masked. Aggregate mask has no eth_src bits ⇒ megaflow hit.)
        let r3 = run_one(&mut dp, 1, udp_frame(7, 53), 2);
        assert!(
            matches!(r3.frame(0).trace.unwrap().path, LookupPath::MegaHit { .. }),
            "got {:?}",
            r3.frame(0).trace.unwrap().path
        );
        assert_eq!(dp.micro_cache().hits(), 1);
        assert_eq!(dp.mega_cache().hits(), 1);
        // Flow counters reflect all three packets.
        assert_eq!(dp.table(0).unwrap().entries()[0].packets, 3);
    }

    #[test]
    fn flow_mod_invalidates_caches() {
        let mut dp = dp(PipelineMode::full());
        add_forward_rule(&mut dp, 53, 2);
        run_one(&mut dp, 1, udp_frame(1, 53), 0);
        run_one(&mut dp, 1, udp_frame(1, 53), 1);
        assert_eq!(dp.micro_cache().hits(), 1);
        // Re-point the rule to port 3; cached path must not survive.
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_type(0x0800).ip_proto(17).udp_dst(53))
                .apply(vec![Action::output(3)]),
            2,
        )
        .unwrap();
        let r = run_one(&mut dp, 1, udp_frame(1, 53), 3);
        assert_eq!(r.outputs_of(0)[0].0, 3, "stale cache would say 2");
    }

    #[test]
    fn vlan_translate_pipeline() {
        // The HARMLESS SS_1 shape: trunk ingress match VLAN → pop → patch.
        let mut dp = dp(PipelineMode::full());
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(100)
                .match_(Match::new().in_port(1).vlan(101))
                .apply(vec![Action::PopVlan, Action::output(2)]),
            0,
        )
        .unwrap();
        let tagged =
            netpkt::vlan::push_vlan(&udp_frame(5, 53), netpkt::vlan::VlanTag::new(101)).unwrap();
        let r = run_one(&mut dp, 1, tagged.clone(), 0);
        assert_eq!(r.outputs_of(0).len(), 1);
        let out_key = FlowKey::extract(0, &r.outputs_of(0)[0].1).unwrap();
        assert_eq!(out_key.vlan_vid, 0, "tag must be popped");
        // And the cached replay does the same thing.
        let r2 = run_one(&mut dp, 1, tagged, 1);
        assert!(matches!(
            r2.frame(0).trace.unwrap().path,
            LookupPath::MicroHit
        ));
        let out_key2 = FlowKey::extract(0, &r2.outputs_of(0)[0].1).unwrap();
        assert_eq!(out_key2.vlan_vid, 0);
    }

    #[test]
    fn multi_table_goto_with_metadata() {
        let mut dp = dp(PipelineMode::full());
        // Table 0: stamp metadata from VLAN, goto 1.
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().vlan(101))
                .instructions(vec![
                    Instruction::WriteMetadata {
                        metadata: 101,
                        mask: 0xfff,
                    },
                    Instruction::ApplyActions(vec![Action::PopVlan]),
                    Instruction::GotoTable(1),
                ]),
            0,
        )
        .unwrap();
        // Table 1: match metadata, forward.
        dp.apply_flow_mod(
            &FlowMod::add(1)
                .priority(10)
                .match_(Match::new().with(openflow::OxmField::Metadata(101, None)))
                .apply(vec![Action::output(4)]),
            0,
        )
        .unwrap();
        let tagged =
            netpkt::vlan::push_vlan(&udp_frame(5, 53), netpkt::vlan::VlanTag::new(101)).unwrap();
        let r = run_one(&mut dp, 1, tagged, 0);
        assert_eq!(r.outputs_of(0).len(), 1);
        assert_eq!(r.outputs_of(0)[0].0, 4);
    }

    #[test]
    fn table_miss_to_controller() {
        let mut dp = dp(PipelineMode::full());
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(0)
                .apply(vec![Action::to_controller()]),
            0,
        )
        .unwrap();
        let r = run_one(&mut dp, 1, udp_frame(1, 53), 0);
        assert_eq!(r.packet_ins_of(0).len(), 1);
        assert_eq!(r.packet_ins_of(0)[0].0, PacketInReason::NoMatch);
    }

    #[test]
    fn flood_excludes_ingress() {
        let mut dp = dp(PipelineMode::full());
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(0)
                .apply(vec![Action::output(port_no::FLOOD)]),
            0,
        )
        .unwrap();
        let r = run_one(&mut dp, 2, udp_frame(1, 53), 0);
        let mut ports: Vec<u32> = r.outputs_of(0).iter().map(|(p, _)| *p).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![1, 3, 4]);
    }

    #[test]
    fn select_group_balances_and_caches_per_flow() {
        let mut dp = dp(PipelineMode::full());
        dp.apply_group_mod(
            openflow::group::GroupModCommand::Add,
            openflow::GroupType::Select,
            1,
            vec![
                openflow::Bucket::new(vec![Action::output(2)]),
                openflow::Bucket::new(vec![Action::output(3)]),
            ],
        )
        .unwrap();
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_type(0x0800))
                .apply(vec![Action::Group(1)]),
            0,
        )
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        for src in 1..100u32 {
            let r = run_one(&mut dp, 1, udp_frame(src, 53), u64::from(src));
            assert_eq!(r.outputs_of(0).len(), 1);
            seen.insert(r.outputs_of(0)[0].0);
            // Re-processing the same flow must pick the same port (from
            // cache, and by hash determinism).
            let r2 = run_one(&mut dp, 1, udp_frame(src, 53), u64::from(src) + 1000);
            assert_eq!(r2.outputs_of(0)[0].0, r.outputs_of(0)[0].0);
        }
        assert_eq!(seen.len(), 2, "both backends must be used");
    }

    /// Group buckets work on their own copy and the packet after a
    /// group is the packet before it — on the slow path and on every
    /// cache level alike: a bucket's rewrite must leak neither into a
    /// sibling bucket nor into the actions that follow the group.
    #[test]
    fn all_group_copies_with_independent_rewrites() {
        let rewrite = Action::SetField(OxmField::EthDst(MacAddr::host(50), None));
        let shapes = [
            // ALL group: a rewriting bucket, then a plain one.
            (
                openflow::GroupType::All,
                vec![
                    openflow::Bucket::new(vec![rewrite.clone(), Action::output(2)]),
                    openflow::Bucket::new(vec![Action::output(3)]),
                ],
                vec![Action::Group(1)],
            ),
            // INDIRECT group that rewrites, then a trailing output.
            (
                openflow::GroupType::Indirect,
                vec![openflow::Bucket::new(vec![rewrite, Action::output(2)])],
                vec![Action::Group(1), Action::output(3)],
            ),
        ];
        for (type_, buckets, apply) in shapes {
            let mut dp = dp(PipelineMode::full());
            dp.apply_group_mod(openflow::group::GroupModCommand::Add, type_, 1, buckets)
                .unwrap();
            dp.apply_flow_mod(&FlowMod::add(0).priority(1).apply(apply), 0)
                .unwrap();
            let frame = udp_frame(1, 53);
            let mut rewritten = bytes::BytesMut::from(&frame[..]);
            rewritten[0..6].copy_from_slice(&MacAddr::host(50).octets());
            let want = vec![(2, rewritten.freeze()), (3, frame.clone())];

            let r = run_one(&mut dp, 1, frame.clone(), 0);
            assert!(matches!(
                r.frame(0).trace.unwrap().path,
                LookupPath::SlowPath { .. }
            ));
            assert_eq!(r.outputs_of(0), want, "{type_:?}: slow path");
            let r = run_one(&mut dp, 1, frame.clone(), 1);
            assert!(matches!(
                r.frame(0).trace.unwrap().path,
                LookupPath::MicroHit
            ));
            assert_eq!(r.outputs_of(0), want, "{type_:?}: microflow hit");
            // A sibling 5-tuple (same MACs, other UDP port) shares the
            // megaflow, so the byte expectation carries over.
            let r = run_one(&mut dp, 1, udp_frame(1, 54), 2);
            assert!(matches!(
                r.frame(0).trace.unwrap().path,
                LookupPath::MegaHit { .. }
            ));
            let sibling: Vec<u32> = r.outputs_of(0).iter().map(|(p, _)| *p).collect();
            assert_eq!(sibling, vec![2, 3]);
            assert_eq!(
                r.outputs_of(0)[1].1,
                udp_frame(1, 54),
                "{type_:?}: megaflow hit"
            );
            assert_eq!(&r.outputs_of(0)[0].1[0..6], &MacAddr::host(50).octets());
            // Every frame of a batch replays from the microflow layer.
            let mut batch: FrameBatch = (0..4).map(|_| (1u32, frame.clone())).collect();
            let r = run_batch(&mut dp, &mut batch, 3);
            for i in 0..r.len() {
                assert_eq!(r.outputs_of(i), &want[..], "{type_:?}: batch frame {i}");
            }
            assert!(r
                .frames()
                .iter()
                .all(|f| matches!(f.trace.unwrap().path, LookupPath::MicroHit)));
        }
    }

    #[test]
    fn metered_flows_bypass_caches_and_drop() {
        let mut dp = dp(PipelineMode::full());
        dp.apply_meter_mod(
            openflow::meter::MeterModCommand::Add,
            1,
            true,
            Some(openflow::MeterBand { rate: 1, burst: 1 }),
            0,
        )
        .unwrap();
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_type(0x0800))
                .instructions(vec![
                    Instruction::Meter(1),
                    Instruction::ApplyActions(vec![Action::output(2)]),
                ]),
            0,
        )
        .unwrap();
        // 1 pps with burst 1: first passes, immediate repeats drop.
        let r1 = run_one(&mut dp, 1, udp_frame(1, 53), 0);
        assert!(!r1.frame(0).dropped);
        let r2 = run_one(&mut dp, 1, udp_frame(1, 53), 1000);
        assert!(
            r2.frame(0).dropped,
            "second packet within the same second must drop"
        );
        assert!(
            dp.micro_cache().is_empty(),
            "metered paths must not be cached"
        );
    }

    #[test]
    fn action_set_group_overrides_output() {
        let mut dp = dp(PipelineMode::full());
        dp.apply_group_mod(
            openflow::group::GroupModCommand::Add,
            openflow::GroupType::Indirect,
            7,
            vec![openflow::Bucket::new(vec![Action::output(3)])],
        )
        .unwrap();
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(1)
                .instructions(vec![Instruction::WriteActions(vec![
                    Action::output(2),
                    Action::Group(7),
                ])]),
            0,
        )
        .unwrap();
        let r = run_one(&mut dp, 1, udp_frame(1, 53), 0);
        assert_eq!(r.outputs_of(0).len(), 1);
        assert_eq!(
            r.outputs_of(0)[0].0,
            3,
            "group in action set wins over output"
        );
    }

    #[test]
    fn expiry_generates_removals_and_bumps_epoch() {
        let mut dp = dp(PipelineMode::full());
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_type(0x0800))
                .apply(vec![Action::output(2)])
                .timeouts(0, 1),
            0,
        )
        .unwrap();
        let e0 = dp.epoch();
        let removed = dp.expire_flows(2_000_000_000);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].2, RemovedReason::HardTimeout);
        assert!(dp.epoch() > e0);
    }

    #[test]
    fn bad_table_rejected() {
        let mut dp = dp(PipelineMode::full());
        let err = dp
            .apply_flow_mod(
                &FlowMod::add(9).priority(1).apply(vec![Action::output(1)]),
                0,
            )
            .unwrap_err();
        assert_eq!(err, Error::BadTable(9));
    }

    #[test]
    fn all_tables_is_a_bad_table_outside_a_delete() {
        let mut dp = dp(PipelineMode::full());
        let e0 = dp.epoch();
        let add = FlowMod::add(0xff)
            .priority(1)
            .apply(vec![Action::output(1)]);
        for command in [
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
        ] {
            let fm = add.clone().command(command);
            assert_eq!(
                dp.apply_flow_mod(&fm, 0).unwrap_err(),
                Error::BadTable(0xff)
            );
        }
        assert_eq!(dp.epoch(), e0, "a rejected flow-mod changes nothing");
        assert!(dp.apply_flow_mod(&FlowMod::delete(0xff), 0).is_ok());
    }

    #[test]
    fn empty_batch_yields_empty_result() {
        let mut dp = dp(PipelineMode::full());
        let mut batch = FrameBatch::new();
        let r = run_batch(&mut dp, &mut batch, 0);
        assert!(r.is_empty());
        assert!(r.outputs_by_port().is_empty());
        assert_eq!(dp.packets_processed(), 0);
    }

    /// (Named for the memo that used to serve the repeats; they are
    /// microflow hits now, like any other frame of the flow.)
    #[test]
    fn batch_memo_serves_repeats_of_a_microflow_hit() {
        let mut dp = dp(PipelineMode::full());
        add_forward_rule(&mut dp, 53, 2);
        // Warm the microflow cache with a batch of one.
        run_one(&mut dp, 1, udp_frame(1, 53), 0);
        let micro_hits = dp.micro_cache().hits();
        let mut batch: FrameBatch = (0..4).map(|_| (1u32, udp_frame(1, 53))).collect();
        let r = run_batch(&mut dp, &mut batch, 1);
        assert!(batch.is_empty(), "processing drains the batch");
        // Every frame probes for itself: nothing is resolved per batch.
        assert_eq!(dp.micro_cache().hits(), micro_hits + 4);
        assert!(r
            .frames()
            .iter()
            .all(|f| matches!(f.trace.unwrap().path, LookupPath::MicroHit)));
        assert!((0..r.len()).all(|i| r.outputs_of(i) == [(2, udp_frame(1, 53))]));
        // Flow counters account every frame.
        assert_eq!(dp.table(0).unwrap().entries()[0].packets, 5);
    }

    #[test]
    fn oversized_batch_survives_cache_overflow() {
        // 256 distinct microflows through a 16-entry microflow cache:
        // the emergency flush must not disturb batch results.
        let mut cfg = DpConfig::software(1).with_mode(PipelineMode::full());
        cfg.micro_capacity = 16;
        cfg.mega_capacity = 8;
        let mut dp = Datapath::new(cfg);
        for p in 1..=4 {
            dp.add_port(p, format!("p{p}"), 1_000_000);
        }
        add_forward_rule(&mut dp, 53, 2);
        let mut batch: FrameBatch = (0..256).map(|i| (1u32, udp_frame(i, 53))).collect();
        let r = run_batch(&mut dp, &mut batch, 0);
        assert_eq!(r.len(), 256);
        assert!((0..r.len()).all(|i| !r.frame(i).dropped && r.outputs_of(i)[0].0 == 2));
        assert_eq!(r.outputs_by_port()[&2].len(), 256);
        assert_eq!(dp.packets_processed(), 256);
    }

    #[test]
    fn metered_flows_are_not_memoized_in_batches() {
        let mut dp = dp(PipelineMode::full());
        dp.apply_meter_mod(
            openflow::meter::MeterModCommand::Add,
            1,
            true,
            Some(openflow::MeterBand { rate: 1, burst: 1 }),
            0,
        )
        .unwrap();
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_type(0x0800))
                .instructions(vec![
                    Instruction::Meter(1),
                    Instruction::ApplyActions(vec![Action::output(2)]),
                ]),
            0,
        )
        .unwrap();
        // 1 pps, burst 1: within one instant only the first frame passes,
        // and every frame must consult the meter individually.
        let mut batch: FrameBatch = (0..3).map(|_| (1u32, udp_frame(1, 53))).collect();
        let r = run_batch(&mut dp, &mut batch, 0);
        let dropped: Vec<bool> = r.frames().iter().map(|f| f.dropped).collect();
        assert_eq!(dropped, vec![false, true, true]);
    }

    /// A one-frame batch and the same frame leading a larger batch
    /// resolve identically, down to the trace: slow path first,
    /// microflow hits after.
    #[test]
    fn single_frame_batch_equals_the_frame_in_a_larger_batch_with_a_cold_memo() {
        let warmed = |singles: u64| {
            let mut dp = dp(PipelineMode::full());
            add_forward_rule(&mut dp, 53, 2);
            for t in 0..singles {
                run_one(&mut dp, 1, udp_frame(1, 53), t);
            }
            dp
        };
        for t in 0..3u64 {
            let single = run_one(&mut warmed(t), 1, udp_frame(1, 53), t);
            let mut b = warmed(t);
            let mut batch: FrameBatch = [(1u32, udp_frame(1, 53)), (1, udp_frame(2, 80))]
                .into_iter()
                .collect();
            let larger = run_batch(&mut b, &mut batch, t);
            assert_eq!(single.outputs_of(0), larger.outputs_of(0));
            assert_eq!(single.frame(0).dropped, larger.frame(0).dropped);
            assert_eq!(
                single.frame(0).trace,
                larger.frame(0).trace,
                "even traces agree"
            );
        }
    }

    #[test]
    fn packet_out_appends_one_frame_to_a_used_arena() {
        let mut dp = dp(PipelineMode::full());
        add_forward_rule(&mut dp, 53, 2);
        let mut batch: FrameBatch = [(1u32, udp_frame(1, 53)), (1, udp_frame(1, 80))]
            .into_iter()
            .collect();
        let mut out = run_batch(&mut dp, &mut batch, 0);
        let before: Vec<_> = (0..2).map(|i| out.outputs_of(i).to_vec()).collect();

        let flood = [Action::output(port_no::FLOOD)];
        dp.packet_out(port_no::CONTROLLER, &flood, udp_frame(9, 9), 1, &mut out);
        assert_eq!(out.len(), 3, "exactly one FrameResult appended");
        for (i, want) in before.iter().enumerate() {
            assert_eq!(out.outputs_of(i), &want[..], "frame {i} untouched");
        }
        assert!(out.frame(1).dropped && !out.frame(2).dropped);
        let ports: Vec<u32> = out.outputs_of(2).iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, [1, 2, 3, 4]);
        assert!(out.packet_ins_of(2).is_empty());
        assert_eq!(out.total_outputs(), 1 + 4);
    }

    /// Rewrite a frame's TTL (and fix the checksum) for expiry tests.
    fn with_ttl(frame: &Bytes, ttl: u8) -> Bytes {
        let mut buf = bytes::BytesMut::from(&frame[..]);
        let mut ip = netpkt::ipv4::Header::parse(&mut &buf[14..]).unwrap();
        ip.ttl = ttl;
        ip.write(&mut &mut buf[14..]).unwrap();
        netpkt::ipv4::fill_checksum(&mut buf[14..34]);
        buf.freeze()
    }

    /// The IPv4 header and transport bytes of an emitted frame.
    fn ipv4_of(frame: &[u8]) -> (netpkt::ipv4::Header, &[u8]) {
        let walk = Layers::parse(frame).unwrap();
        let v4 = walk.ipv4().unwrap();
        assert!(netpkt::checksum::verify(&frame[walk.l3_at..v4.l4_at]));
        (v4.ip, v4.l4)
    }

    fn routed_dp() -> Datapath {
        let mut dp = dp(PipelineMode::full());
        dp.set_router(Ipv4Addr::new(10, 0, 255, 254), MacAddr::host(0x4e));
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().eth_type(0x0800))
                .apply(vec![
                    Action::DecNwTtl,
                    Action::SetField(OxmField::EthDst(MacAddr::host(0x77), None)),
                    Action::output(2),
                ]),
            0,
        )
        .unwrap();
        dp
    }

    #[test]
    fn ttl_expiry_answers_icmp_and_never_caches() {
        let mut dp = routed_dp();
        let r = run_one(&mut dp, 1, with_ttl(&udp_frame(1, 53), 1), 0);
        assert!(r.frame(0).dropped, "expired packets are dropped");
        assert_eq!(r.outputs_of(0).len(), 1, "…but answered");
        let (port, reply) = &r.outputs_of(0)[0];
        assert_eq!(*port, 1, "time-exceeded goes back out the ingress port");
        let (ip, mut l4) = ipv4_of(reply);
        assert_eq!(ip.proto, IpProto::ICMP);
        assert_eq!(ip.src, Ipv4Addr::new(10, 0, 255, 254));
        let icmp = icmp::Header::parse(&mut l4).unwrap();
        assert_eq!(icmp.msg_type, netpkt::icmp::Icmpv4Type::TimeExceeded);
        assert!(
            dp.micro_cache().is_empty(),
            "truncated expiry path must not be cached"
        );
        assert_eq!(dp.stats().ttl_expired, 1);
    }

    #[test]
    fn ttl_expiry_on_a_cached_path_matches_slow_path() {
        let mut dp = routed_dp();
        // Healthy packet caches the routed path...
        let r = run_one(&mut dp, 1, udp_frame(1, 53), 0);
        assert_eq!(r.outputs_of(0)[0].0, 2);
        let (out_ip, _) = ipv4_of(&r.outputs_of(0)[0].1);
        assert_eq!(out_ip.ttl, 63, "forwarded copy lost one hop");
        // ...and a TTL-1 packet of the same flow replays through the
        // cache, where the per-packet TTL check still catches it.
        let r2 = run_one(&mut dp, 1, with_ttl(&udp_frame(1, 53), 1), 1);
        assert!(matches!(
            r2.frame(0).trace.unwrap().path,
            LookupPath::MicroHit
        ));
        assert!(r2.frame(0).dropped);
        assert_eq!(r2.outputs_of(0).len(), 1);
        let (ip, _) = ipv4_of(&r2.outputs_of(0)[0].1);
        assert_eq!(ip.proto, IpProto::ICMP);
        assert_eq!(dp.stats().ttl_expired, 1);
    }

    fn nat_dp() -> (Datapath, Ipv4Addr) {
        let ext = Ipv4Addr::new(198, 18, 0, 254);
        let mut dp = dp(PipelineMode::full());
        dp.configure_nat(NatConfig::new(ext));
        // Port 1 = inside (egress to port 2), port 2 = outside
        // (ingress back to port 1).
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().in_port(1).eth_type(0x0800))
                .apply(vec![Action::Nat(NatDir::Egress), Action::output(2)]),
            0,
        )
        .unwrap();
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().in_port(2).eth_type(0x0800))
                .apply(vec![Action::Nat(NatDir::Ingress), Action::output(1)]),
            0,
        )
        .unwrap();
        (dp, ext)
    }

    #[test]
    fn nat_offloads_established_connections_to_the_caches() {
        let (mut dp, ext) = nat_dp();
        // First packet of the connection: slow path, allocates state.
        let r = run_one(&mut dp, 1, udp_frame(1, 9000), 0);
        assert!(matches!(
            r.frame(0).trace.unwrap().path,
            LookupPath::SlowPath { .. }
        ));
        let out = &r.outputs_of(0)[0].1;
        let k = FlowKey::extract(2, out).unwrap();
        assert_eq!(k.ipv4_src, u32::from(ext), "source translated");
        let ext_id = k.udp_src;
        assert_ne!(ext_id, 1000, "source port translated");
        assert_eq!(dp.nat().live_conns(), 1);
        // Second packet: pure cache hit, same translation, and the
        // connection's idle timer was refreshed through NatTouch.
        let micro_before = dp.micro_cache().hits();
        let r2 = run_one(&mut dp, 1, udp_frame(1, 9000), 1);
        assert!(matches!(
            r2.frame(0).trace.unwrap().path,
            LookupPath::MicroHit
        ));
        assert_eq!(dp.micro_cache().hits(), micro_before + 1);
        let k2 = FlowKey::extract(2, &r2.outputs_of(0)[0].1).unwrap();
        assert_eq!((k2.ipv4_src, k2.udp_src), (u32::from(ext), ext_id));
        assert_eq!(dp.nat().live_conns(), 1, "no second connection");

        // The reply from outside reverse-translates to the inside host.
        let reply = builder::udp_packet(
            MacAddr::host(99),
            MacAddr::host(0x4e),
            Ipv4Addr::new(198, 18, 0, 9),
            ext,
            9000,
            ext_id,
            b"pong",
        );
        let r3 = run_one(&mut dp, 2, reply.clone(), 2);
        assert_eq!(r3.outputs_of(0)[0].0, 1);
        let k3 = FlowKey::extract(1, &r3.outputs_of(0)[0].1).unwrap();
        assert_eq!(k3.ipv4_dst, u32::from(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(k3.udp_dst, 1000, "reverse translation restores the port");
        // Replies hit the cache too.
        let r4 = run_one(&mut dp, 2, reply, 3);
        assert!(matches!(
            r4.frame(0).trace.unwrap().path,
            LookupPath::MicroHit
        ));
        assert_eq!(
            FlowKey::extract(1, &r4.outputs_of(0)[0].1).unwrap().udp_dst,
            1000
        );
    }

    /// Echoes of one 5-tuple with different identifiers are different
    /// NAT connections, and each leaves with its own identifier.
    #[test]
    fn nat_echoes_of_one_five_tuple_keep_their_own_identifiers() {
        let (mut dp, ext) = nat_dp();
        let inside = Ipv4Addr::new(10, 0, 0, 1);
        let far = Ipv4Addr::new(198, 18, 0, 9);
        let echo = |ident| {
            builder::icmp_echo_request(
                MacAddr::host(1),
                MacAddr::host(0x4e),
                inside,
                far,
                ident,
                1,
                b"ping",
            )
        };
        let ident_of = |r: &BatchResult| {
            let (_, mut l4) = ipv4_of(&r.outputs_of(0)[0].1);
            icmp::Header::parse(&mut l4).unwrap().ident
        };
        let first = ident_of(&run_one(&mut dp, 1, echo(1), 0));
        let second = ident_of(&run_one(&mut dp, 1, echo(2), 1));
        assert_ne!(
            first, second,
            "the second echo left with the first's identifier"
        );
        assert_eq!(dp.nat().live_conns(), 2);
        let again = run_one(&mut dp, 1, echo(2), 2);
        assert_eq!(ident_of(&again), second);
        assert!(matches!(
            again.frame(0).trace.unwrap().path,
            LookupPath::SlowPath { .. }
        ));
        // Each reply finds its own echo's identifier again.
        for (ext_id, ident) in [(second, 2), (first, 1)] {
            let reply = builder::icmp_echo_reply(
                MacAddr::host(99),
                MacAddr::host(0x4e),
                far,
                ext,
                ext_id,
                1,
                b"pong",
            );
            let r = run_one(&mut dp, 2, reply, 3);
            assert_eq!(r.outputs_of(0)[0].0, 1);
            assert_eq!(ident_of(&r), ident);
        }
    }

    #[test]
    fn nat_ingress_without_state_drops_and_is_not_cached() {
        let (mut dp, ext) = nat_dp();
        let stray = builder::udp_packet(
            MacAddr::host(99),
            MacAddr::host(0x4e),
            Ipv4Addr::new(198, 18, 0, 9),
            ext,
            9000,
            50000,
            b"scan",
        );
        let r = run_one(&mut dp, 2, stray.clone(), 0);
        assert!(r.frame(0).dropped, "no live connection: refused");
        assert!(r.outputs_of(0).is_empty());
        assert_eq!(dp.stats().nat_dropped, 1);
        assert!(dp.micro_cache().is_empty(), "the refusal must not cache");
        // Outbound traffic establishes mappings (external ids are
        // allocated from 49152 up; distinct source ports drain the pool
        // until 50000 is in use).
        for p in 0..=(50000 - 49152) {
            let f = builder::udp_packet(
                MacAddr::host(1),
                MacAddr::host(0x4e),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(198, 18, 0, 9),
                1000 + p,
                9000,
                b"out",
            );
            run_one(&mut dp, 1, f, u64::from(p));
        }
        // The very same stray packet now has a live connection behind
        // it — a cached refusal would blackhole it.
        let r2 = run_one(&mut dp, 2, stray, 99);
        assert!(!r2.frame(0).dropped, "mapping exists now, must translate");
        assert_eq!(r2.outputs_of(0)[0].0, 1);
    }

    /// An egress NAT with a pool of exactly one external id: a second
    /// connection evicts the first.
    fn one_id_nat_dp() -> Datapath {
        let mut dp = dp(PipelineMode::full());
        dp.configure_nat(NatConfig {
            external_ip: Ipv4Addr::new(198, 18, 0, 254),
            port_lo: 49152,
            port_hi: 49152,
            idle_timeout_ns: u64::MAX,
            max_conns: 64,
        });
        dp.apply_flow_mod(
            &FlowMod::add(0)
                .priority(10)
                .match_(Match::new().in_port(1).eth_type(0x0800))
                .apply(vec![Action::Nat(NatDir::Egress), Action::output(2)]),
            0,
        )
        .unwrap();
        dp
    }

    #[test]
    fn nat_eviction_bumps_the_epoch_to_flush_cached_rewrites() {
        let mut dp = one_id_nat_dp();
        run_one(&mut dp, 1, udp_frame(1, 9000), 0);
        run_one(&mut dp, 1, udp_frame(1, 9000), 1);
        assert_eq!(dp.micro_cache().hits(), 1, "conn A cached");
        let epoch = dp.epoch();
        // Conn B steals the only external id: A's cached rewrite is
        // stale and the epoch bump must invalidate it.
        run_one(&mut dp, 1, udp_frame(2, 9000), 2);
        assert!(dp.epoch() > epoch, "eviction must flush the caches");
        assert_eq!(dp.nat().evicted_lru(), 1);
        let r = run_one(&mut dp, 1, udp_frame(1, 9000), 3);
        assert!(
            matches!(r.frame(0).trace.unwrap().path, LookupPath::SlowPath { .. }),
            "A re-resolves through the slow path, not a stale cache"
        );
    }

    /// The epoch bump of an eviction reaches the rest of the batch it
    /// happens in: in `A, A, B, A` B takes the only id from A, so the
    /// last frame must re-resolve (evicting B in turn), not replay the
    /// rewrite A recorded when the id was its own.
    #[test]
    fn a_nat_eviction_mid_batch_is_seen_by_the_frames_behind_it() {
        let (a, b) = (udp_frame(1, 9000), udp_frame(2, 9000));
        let frames = [a.clone(), a.clone(), b, a];
        let mut batched = one_id_nat_dp();
        let mut batch: FrameBatch = frames.iter().map(|f| (1u32, f.clone())).collect();
        let r = run_batch(&mut batched, &mut batch, 0);
        assert!(
            matches!(r.frame(3).trace.unwrap().path, LookupPath::SlowPath { .. }),
            "got {:?}",
            r.frame(3).trace.unwrap().path
        );
        assert_eq!(batched.nat().evicted_lru(), 2);
        // And all of it as four one-frame batches would have it.
        let mut single = one_id_nat_dp();
        for (i, f) in frames.iter().enumerate() {
            let one = run_one(&mut single, 1, f.clone(), 0);
            assert_eq!(r.outputs_of(i), one.outputs_of(0), "frame {i}");
            assert_eq!(r.frame(i).trace, one.frame(0).trace, "frame {i}");
        }
        assert_eq!(single.nat().evicted_lru(), 2);
    }

    #[test]
    fn nat_sweep_reclaims_idle_connections_and_flushes() {
        let (mut dp, _) = nat_dp();
        run_one(&mut dp, 1, udp_frame(1, 9000), 0);
        assert_eq!(dp.nat().live_conns(), 1);
        let epoch = dp.epoch();
        assert_eq!(dp.sweep_nat(1_000), 0, "default timeout is 60 s");
        assert_eq!(dp.epoch(), epoch, "nothing evicted, nothing flushed");
        assert_eq!(dp.sweep_nat(61_000_000_000), 1);
        assert!(dp.epoch() > epoch);
        assert_eq!(dp.nat().live_conns(), 0);
    }

    #[test]
    fn port_stats_account_rx_and_tx() {
        let mut dp = dp(PipelineMode::full());
        add_forward_rule(&mut dp, 53, 2);
        run_one(&mut dp, 1, udp_frame(1, 53), 0);
        run_one(&mut dp, 1, udp_frame(1, 53), 1);
        let stats = dp.port_stats();
        let p1 = stats.iter().find(|s| s.port_no == 1).unwrap();
        let p2 = stats.iter().find(|s| s.port_no == 2).unwrap();
        assert_eq!(p1.rx_packets, 2);
        assert_eq!(p2.tx_packets, 2);
        assert!(p2.tx_bytes > 0);
    }
}
