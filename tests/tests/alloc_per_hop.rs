//! Heap-allocation regression test for one frame hop through the packet
//! simulator.
//!
//! A counting `#[global_allocator]` (the one piece of `unsafe` in the
//! workspace; the libraries all `forbid(unsafe_code)`) counts every heap
//! block the measuring thread asks for while a warmed pod forwards CBR
//! traffic: generator → `LegacySwitchNode` (access port → trunk, tag
//! pushed) → `SoftSwitchNode` (cached flow) → sink, every link idle when
//! a frame reaches it. In steady state the event loop, the service queue
//! and the node glue recycle their buffers, the bridge writes its outputs
//! into a vector its node lends it, and the tag lands in the room the
//! generator's frame was built with, so what is left per frame is the
//! frame itself — one `bytes::buffer_allocs()` tick, two heap blocks: the
//! byte vector and its reference count. Anything above that is a
//! regression in `Shard`, `ServiceQueue`, `LegacySwitchNode` or
//! `SoftSwitchNode`.
//!
//! A second test sends the same traffic across a `CotsSwitchNode`: the
//! hardware model has no caches, so every frame walks its table, and
//! that walk is all a hop may cost beyond the frame itself — the frame
//! goes in through a recycled one-frame batch and comes out of a
//! recycled arena.
//!
//! A third test sends CBR traffic from one shard to another through the
//! sharded engine's window loop, on the calling thread: outboxes, inboxes
//! and the barrier keep their storage across windows, so a frame costs
//! its own two blocks and nothing else.
//!
//! A fourth test pins what an installed rule keeps on the heap: 2 048
//! host routes (`eth_dst → output`, as the ARP proxy installs them)
//! into a datapath leave two live blocks each, the match and the
//! program, and no vector per instruction. A fifth sends one route
//! flow-mod's bytes through the switch's agent: it is read where the
//! channel delivered it, and applying it allocates exactly those two
//! blocks and nothing transient.
//!
//! A sixth builds, runs and drops a small fabric control scenario — a
//! migration wave under a master controller with a standby, host moves
//! and a master crash — three times: the third leaves no byte more
//! live than the second did, so what stays behind a run is one-time
//! state, not a leak that grows with the runs.
//!
//! A seventh pins what the controller side costs: a `ControllerNode`
//! running the ARP proxy completes one switch's handshake and pushes a
//! route per host, at two table sizes. The proxy writes each route from
//! parts on its stack into the send buffer, so the difference between
//! the sizes is the switch's two resident blocks per route and nothing
//! from the controller; while those routes await their barrier reply,
//! the controller holds the buffer it sent them in and nothing per
//! route. An eighth decodes every message of
//! `data/of_golden.txt` and requires that no vector is grown while it
//! is read: matches and lists are sized once from their bytes.
//!
//! A ninth sends one SNMP Set of a VLAN row — three bindings, as the
//! manager's plan writes it — from an `SnmpClient` through a legacy
//! switch's agent and back: the request and the response are read
//! where they lie, so the round trip allocates its two messages and the
//! two port sets the bridge keeps, nothing else (37 blocks when each
//! request was decoded into an owned message and each answer built as
//! one).
//!
//! The allocator is per-binary, so this suite is a test binary of its
//! own; `bytes::buffer_allocs` is process-wide, so its tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use bytes::buffer_allocs;
use bytes::Bytes;
use controller::apps::{ArpProxy, HostRoute, LearningSwitch};
use controller::ControllerNode;
use harmless::fabric::{FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use legacy_switch::mib::{BridgeMib, SysInfo};
use legacy_switch::{Bridge, CotsConfig, CotsSwitchNode, LegacySwitchNode};
use mgmt::pdu::{ErrorStatus, MessageRef, Value};
use mgmt::{agent_respond, mibs, Oid, SnmpClient};
use netpkt::MacAddr;
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{LinkSpec, Network, PortId, ShardMap, SimTime};
use openflow::message::{FlowMod, Message};
use openflow::table::Selector;
use openflow::{Action, ControllerRole, Match};
use softswitch::agent::OfAgent;
use softswitch::datapath::{Datapath, DpConfig, PipelineMode};
use softswitch::{CostModel, SoftSwitchNode};

thread_local! {
    /// Heap blocks requested by this thread while `COUNTING` is set.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Of those, the `realloc` calls: blocks grown or shrunk in place
    /// of a fresh one.
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Blocks allocated minus blocks freed by this thread while
    /// `COUNTING` is set; a `realloc` moves a block and counts neither.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed by this thread while
    /// `COUNTING` is set; a `realloc` counts its change in size.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting `alloc` and `realloc` calls of threads
/// that switched counting on.
struct Counting;

fn note_block() {
    // `try_with`: the allocator also runs while a thread is torn down.
    // No cell has a destructor or a lazy initialiser, so reading them
    // never allocates.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
    }
}

fn note_live(blocks: i64, bytes: i64) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|l| l.set(l.get() + blocks));
        let _ = LIVE_BYTES.try_with(|l| l.set(l.get() + bytes));
    }
}

/// A size as a signed byte count.
fn bytes(size: usize) -> i64 {
    i64::try_from(size).expect("an allocation below 2^63 bytes")
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// thread-local `Cell`s and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_block();
        note_live(1, bytes(layout.size()));
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-1, -bytes(layout.size()));
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_block();
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = REALLOCS.try_with(|r| r.set(r.get() + 1));
        }
        note_live(0, bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` came from `System`; the rest is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return the heap blocks this thread requested meanwhile.
fn blocks_during(f: impl FnOnce()) -> u64 {
    let before = BLOCKS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    BLOCKS.with(Cell::get) - before
}

/// Run `f` and return the `realloc` calls this thread made meanwhile.
fn reallocs_during(f: impl FnOnce()) -> u64 {
    let before = REALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    REALLOCS.with(Cell::get) - before
}

/// Run `f` and return the heap blocks it left allocated on this thread.
fn live_after(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    LIVE.with(Cell::get) - before
}

/// Run `f` and return the heap bytes it left allocated on this thread.
fn live_bytes_after(f: impl FnOnce()) -> i64 {
    let before = LIVE_BYTES.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    LIVE_BYTES.with(Cell::get) - before
}

/// Serialises the tests: both take deltas of the process-wide
/// `buffer_allocs` counter.
static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn steady_state_hop_allocates_only_the_frame_buffer() {
    let _turn = TURN.lock().unwrap();
    let mut net = Network::new(5);

    let mut legacy = LegacySwitchNode::new("legacy", 2);
    legacy.bridge_mut().make_access_port(1, 101).unwrap();
    legacy.bridge_mut().make_trunk_port(2, &[101]).unwrap();

    let mut soft = SoftSwitchNode::new(
        "soft",
        DpConfig::software(1).with_mode(PipelineMode::full()),
        1,
        4096,
        CostModel::default(),
    );
    soft.add_port(1, "trunk", 10_000_000);
    soft.add_port(2, "out", 10_000_000);
    soft.datapath_mut()
        .apply_flow_mod(
            &FlowMod::add(0)
                .priority(1)
                .match_(Match::new().in_port(1))
                .apply(vec![Action::output(2)]),
            0,
        )
        .unwrap();

    // 20 k frames/s of 128 B on 10 G links: 50 µs between frames against
    // ~0.12 µs of serialization, 3 µs in the bridge and well under 1 µs
    // of service time — nothing ever waits.
    let gen = net.add_node(Generator::new(
        "gen",
        PortId(0),
        Pattern::Cbr { pps: 20_000.0 },
        vec![FlowSpec::simple(1, 2, 128)],
        SimTime::ZERO,
        SimTime::MAX,
    ));
    let legacy = net.add_node(legacy);
    let soft = net.add_node(soft);
    let sink = net.add_node(Sink::new("sink"));
    let link = LinkSpec::ten_gigabit();
    net.connect(gen, PortId(0), legacy, PortId(1), link);
    net.connect(legacy, PortId(2), soft, PortId(1), link);
    net.connect(soft, PortId(2), sink, PortId(0), link);

    // Warm-up: flow caches fill, queues, arenas and histograms reach
    // their working size.
    net.run_for(SimTime::from_millis(100));
    let received = |net: &Network| net.node_ref::<Sink>(sink).received();
    let (rx0, buffers0, events0) = (received(&net), buffer_allocs(), net.events_processed());
    assert!(rx0 > 1_000, "warm-up traffic flows: {rx0}");

    // 200 ms: clear of the switches' 500 ms expiry and 10 s aging sweeps.
    let blocks = blocks_during(|| net.run_for(SimTime::from_millis(200)));

    let frames = received(&net) - rx0;
    let buffers = buffer_allocs() - buffers0;
    let events = net.events_processed() - events0;
    assert_eq!(frames, 4_000);
    assert_eq!(net.node_ref::<SoftSwitchNode>(soft).rx_dropped(), 0);
    // One buffer where the generator builds the frame; the bridge pushes
    // the trunk tag into the room in front of it.
    assert_eq!(buffers, frames, "frame buffers per frame");
    assert_eq!(
        blocks,
        2 * buffers,
        "heap blocks beyond the frame buffer (two each): {blocks} blocks \
         for {frames} frames — an output vector per bridge pass is back?"
    );
    // Generator timer, three `Deliver`s, the bridge's delayed `Emit` and
    // the soft switch's service timer: no link ever schedules a wake-up.
    assert_eq!(events, 6 * frames, "events per frame");
}

#[test]
fn cots_hop_allocates_its_table_walk_and_no_result_vectors() {
    let _turn = TURN.lock().unwrap();
    let mut net = Network::new(5);
    let mut cots = CotsSwitchNode::new("cots", 2, CotsConfig::default());
    cots.datapath_mut()
        .apply_flow_mod(
            &FlowMod::add(0)
                .priority(1)
                .match_(Match::new().in_port(1))
                .apply(vec![Action::output(2)]),
            0,
        )
        .unwrap();
    let gen = net.add_node(Generator::new(
        "gen",
        PortId(0),
        Pattern::Cbr { pps: 20_000.0 },
        vec![FlowSpec::simple(1, 2, 128)],
        SimTime::ZERO,
        SimTime::MAX,
    ));
    let cots = net.add_node(cots);
    let sink = net.add_node(Sink::new("sink"));
    let link = LinkSpec::ten_gigabit();
    net.connect(gen, PortId(0), cots, PortId(1), link);
    net.connect(cots, PortId(2), sink, PortId(0), link);

    net.run_for(SimTime::from_millis(100));
    let received = |net: &Network| net.node_ref::<Sink>(sink).received();
    let (rx0, buffers0) = (received(&net), buffer_allocs());
    assert!(rx0 > 1_000, "warm-up traffic flows: {rx0}");

    // 200 ms: clear of the switch's 500 ms expiry sweep.
    let blocks = blocks_during(|| net.run_for(SimTime::from_millis(200)));

    let frames = received(&net) - rx0;
    let buffers = buffer_allocs() - buffers0;
    assert_eq!(frames, 4_000);
    // The generator builds the frame; the ASIC forwards it as it is.
    assert_eq!(buffers, frames, "frame buffers per frame");
    // The uncached walk: the recorded program and the table hits; the
    // matched entry's program is read in place. No `CachedPath` is
    // built from them: the model has no caches to keep one.
    const WALK: u64 = 2;
    assert_eq!(
        blocks,
        (2 + WALK) * frames,
        "heap blocks beyond the frame buffer (two) and the table walk ({WALK}): \
         {blocks} blocks for {frames} frames — a result vector per frame is back?"
    );
}

#[test]
fn cross_shard_hop_allocates_only_the_frame_buffer() {
    let _turn = TURN.lock().unwrap();
    let mut net = Network::new(5);
    let gen = net.add_node(Generator::new(
        "gen",
        PortId(0),
        Pattern::Cbr { pps: 20_000.0 },
        vec![FlowSpec::simple(1, 2, 128)],
        SimTime::ZERO,
        SimTime::MAX,
    ));
    let sink = net.add_node(Sink::new("sink"));
    net.connect(gen, PortId(0), sink, PortId(0), LinkSpec::ten_gigabit());
    let mut map = ShardMap::new(2);
    map.assign(sink, 1);
    net.set_shards(&map);
    net.set_threads(1);

    net.run_for(SimTime::from_millis(100));
    let received = |net: &Network| net.node_ref::<Sink>(sink).received();
    let (rx0, buffers0, windows0) = (received(&net), buffer_allocs(), net.runtime_stats().windows);
    assert!(rx0 > 1_000, "warm-up traffic flows: {rx0}");

    let blocks = blocks_during(|| net.run_for(SimTime::from_millis(200)));

    let frames = received(&net) - rx0;
    let buffers = buffer_allocs() - buffers0;
    assert_eq!(frames, 4_000);
    assert!(
        net.runtime_stats().windows - windows0 >= frames,
        "every frame crossed a window barrier"
    );
    assert_eq!(buffers, frames, "frame buffers per frame");
    assert_eq!(
        blocks,
        2 * buffers,
        "heap blocks beyond the frame buffer (two each): {blocks} blocks \
         for {frames} frames — a mailbox or inbox allocated per window?"
    );
}

#[test]
fn an_installed_route_keeps_two_heap_blocks() {
    let _turn = TURN.lock().unwrap();
    const RULES: u32 = 2_048;
    let mut dp = Datapath::new(DpConfig::software(1));
    for p in 1..=4 {
        dp.add_port(p, format!("p{p}"), 1_000_000);
    }
    // The flow-mods outlive the count: what is left is the table's.
    let mods: Vec<FlowMod> = (0..RULES)
        .map(|h| {
            FlowMod::add(0)
                .priority(100)
                .match_(Match::new().eth_dst(MacAddr::host(h)))
                .apply(vec![Action::output(1 + h % 4)])
        })
        .collect();
    let live = live_after(|| {
        for fm in &mods {
            dp.apply_flow_mod(fm, 0).unwrap();
        }
    });
    assert_eq!(dp.table(0).unwrap().len(), RULES as usize);
    // Per rule, its match's fields and its program (the instruction's
    // one action, with the instruction's head beside it in the entry);
    // the constant is the table's slab, per-slot vectors, mask group
    // and index.
    let per_rule = 2 * i64::from(RULES);
    assert!(
        (per_rule..=per_rule + 16).contains(&live),
        "{live} live heap blocks for {RULES} route rules, want 2 per rule + at most 16"
    );
}

/// One route `ADD` (`eth_dst → output`), its bytes as the channel
/// delivers them, through `OfAgent::handle` into a datapath whose table
/// has room for it: the agent reads the flow-mod where the chunk holds
/// it, and the only blocks it allocates are the two the rule keeps, its
/// match and its program. There is no decoded message, no instruction
/// or action list, and no copy of the match.
#[test]
fn a_route_flow_mod_through_the_agent_allocates_only_what_its_rule_keeps() {
    let _turn = TURN.lock().unwrap();
    let mut dp = Datapath::new(DpConfig::software(1));
    for p in 1..=4 {
        dp.add_port(p, format!("p{p}"), 1_000_000);
    }
    let route = |h: u32| {
        FlowMod::add(0)
            .priority(100)
            .match_(Match::new().eth_dst(MacAddr::host(h)))
            .apply(vec![Action::output(1 + h % 4)])
    };
    let mut agent = OfAgent::new("ss2");
    let hello = agent.handle(&mut dp, Message::Hello.encode(1), 0);
    assert!(hello.replies.is_empty());
    for h in 0..64 {
        agent.handle(&mut dp, Message::FlowMod(route(h)).encode(2), 0);
    }
    // Take one route out again: the slab, the index and the priority
    // list keep their room, so the add below grows nothing.
    let victim = route(7);
    let gone = dp.table(0).unwrap().len();
    dp.apply_flow_mod(
        &victim
            .clone()
            .command(openflow::FlowModCommand::DeleteStrict),
        0,
    )
    .unwrap();
    assert_eq!(dp.table(0).unwrap().len(), gone - 1);
    let wire: Bytes = Message::FlowMod(victim).encode(3);

    // The test keeps its handle on the chunk, so the session letting go
    // of it frees nothing inside the count.
    let (mut replies, mut live) = (usize::MAX, 0);
    let blocks = blocks_during(|| {
        live = live_after(|| replies = agent.handle(&mut dp, wire.clone(), 0).replies.len());
    });
    assert_eq!(replies, 0);
    assert_eq!(dp.table(0).unwrap().len(), gone, "the route is back");
    let sel = Selector::strict(&Match::new().eth_dst(MacAddr::host(7)), 100);
    assert!(dp
        .table(0)
        .unwrap()
        .select(&sel)
        .next()
        .is_some_and(|e| e.outputs_to(4)));
    assert_eq!(
        (blocks, live),
        (2, 2),
        "heap blocks allocated and left live by one route flow-mod: want its match and its \
         program, nothing transient"
    );
}

/// One route `DELETE_STRICT`, its bytes as the channel delivers them,
/// through `OfAgent::handle`: the agent selects the rule by the match's
/// key and mask, read where the chunk holds them, and builds no owned
/// match. The table counts and places the selection through its index
/// and hands the entry straight to the datapath, so the one block
/// allocated is the list the datapath returns, the removed entries by
/// table (five while the table listed the selected slots, sorted a copy
/// of them, paired the entries with their ranks and collected them
/// again). The rule's own two blocks, its match and its program, are
/// freed.
#[test]
fn a_route_delete_through_the_agent_allocates_only_the_list_it_returns() {
    let _turn = TURN.lock().unwrap();
    let mut dp = Datapath::new(DpConfig::software(1));
    for p in 1..=4 {
        dp.add_port(p, format!("p{p}"), 1_000_000);
    }
    let route = |h: u32| {
        FlowMod::add(0)
            .priority(100)
            .match_(Match::new().eth_dst(MacAddr::host(h)))
            .apply(vec![Action::output(1 + h % 4)])
    };
    let mut agent = OfAgent::new("ss2");
    agent.handle(&mut dp, Message::Hello.encode(1), 0);
    for h in 0..64 {
        agent.handle(&mut dp, Message::FlowMod(route(h)).encode(2), 0);
    }
    let delete = route(7).command(openflow::FlowModCommand::DeleteStrict);
    let wire: Bytes = Message::FlowMod(delete).encode(3);

    let (mut replies, mut live) = (usize::MAX, 0);
    let blocks = blocks_during(|| {
        live = live_after(|| replies = agent.handle(&mut dp, wire.clone(), 0).replies.len());
    });
    assert_eq!(replies, 0, "the route asked for no FLOW_REMOVED");
    assert_eq!(dp.table(0).unwrap().len(), 63, "the route is gone");
    assert_eq!(
        (blocks, live),
        (1, -2),
        "heap blocks allocated by one route delete, and left live: want the list it returns \
         and no match, and the rule's match and program freed"
    );
}

/// The datapath id of the one switch the route-pushing tests serve.
const DPID: u64 = 0x52;

/// A controller running the ARP proxy with `routes` host routes, each
/// out of one of the four ports of datapath `DPID`.
fn route_pusher(routes: u32) -> ControllerNode {
    let mut proxy = ArpProxy::new();
    for h in 0..routes {
        proxy.add_host(HostRoute {
            ip: Ipv4Addr::from(0x0a00_0000 + h),
            mac: MacAddr::host(h),
            ports: vec![(DPID, 1 + h % 4)],
            guards: Vec::new(),
        });
    }
    ControllerNode::new("ctrl", vec![Box::new(proxy)])
}

/// The heap blocks a controller running the ARP proxy and one switch
/// allocate, on this thread, from the switch dialing to the proxy's
/// `routes` host routes installed and acknowledged: the handshake, one
/// flush of the table-miss entry, the routes and a barrier, the
/// switch's agent applying them, and the barrier reply.
fn blocks_to_push_routes(routes: u32) -> u64 {
    let mut net = Network::new(7);
    let ctrl = net.add_node(route_pusher(routes));
    let mut soft = SoftSwitchNode::new(
        "ss2",
        DpConfig::software(DPID),
        1,
        4096,
        CostModel::default(),
    );
    for p in 1..=4 {
        soft.add_port(p, format!("p{p}"), 1_000_000);
    }
    soft.connect_controller(ctrl);
    let sw = net.add_node(soft);

    // Well before the first 1 s controller tick and the switch's 500 ms
    // expiry sweep.
    let blocks = blocks_during(|| net.run_for(SimTime::from_millis(100)));

    let c = net.node_ref::<ControllerNode>(ctrl);
    assert_eq!(c.ready_switches(), 1, "the handshake completed");
    assert_eq!(c.flow_mods_sent(), u64::from(routes) + 1);
    let rules = net
        .node_ref::<SoftSwitchNode>(sw)
        .datapath()
        .table(0)
        .map(|t| t.len());
    assert_eq!(
        rules,
        Some(routes as usize + 1),
        "table-miss entry and every route"
    );
    blocks
}

/// The controller allocates nothing per route it pushes: the proxy
/// writes each one from parts on its stack into the one send buffer.
/// Pinned at two table sizes, exactly; between them, each route adds
/// the two blocks the switch's rule keeps (its match and its program),
/// and what is left over is the growth of the buffers and tables that
/// hold them, not a block per route. The switch's table seeds its
/// fingerprints from its datapath id, so where its index buckets fall,
/// and how often they grow, is the same in every run.
#[test]
fn a_controller_pushing_routes_allocates_only_the_switch_s_rules() {
    let _turn = TURN.lock().unwrap();
    const FEW: u32 = 256;
    const MANY: u32 = 2_048;
    let (few, many) = (blocks_to_push_routes(FEW), blocks_to_push_routes(MANY));
    let per_route = (many - few) / u64::from(MANY - FEW);
    assert_eq!(
        per_route, 2,
        "heap blocks per pushed route: {few} blocks for {FEW} routes, {many} for {MANY}"
    );
    assert_eq!(
        (few, many),
        (618, 4_280),
        "heap blocks to push {FEW} and {MANY} routes"
    );
}

/// What a controller running the ARP proxy holds while `routes` host
/// routes await their barrier reply, as `(live blocks, live bytes)` left
/// by the message that completes one switch's handshake, and the live
/// bytes the barrier reply then frees. The switch's control channel is
/// down, so the flush's buffer is dropped at the sender and the
/// controller's in-flight record is its only holder.
fn held_in_flight(routes: u32) -> (i64, i64, i64) {
    let mut net = Network::new(7);
    let ctrl = net.add_node(route_pusher(routes));
    let sw = net.add_node(Sink::new("ss2"));
    net.ctrl_down(sw);
    let mut deliver = |msg: Message| {
        net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
            netsim::Node::on_ctrl(c, sw, msg.encode(1), ctx);
        });
    };
    deliver(Message::Hello);
    deliver(Message::FeaturesReply {
        datapath_id: DPID,
        n_buffers: 0,
        n_tables: 1,
        capabilities: 0,
    });
    let (mut held_bytes, mut freed) = (0, 0);
    let held_blocks = live_after(|| {
        held_bytes = live_bytes_after(|| {
            deliver(Message::MultipartReply(
                openflow::message::MultipartRes::PortDesc(Vec::new()),
            ));
        });
    });
    // A reply covers its barrier and every earlier one.
    let reply = Message::BarrierReply.encode(u32::MAX);
    net.with_node_ctx::<ControllerNode, _>(ctrl, |c, ctx| {
        freed = -live_bytes_after(|| netsim::Node::on_ctrl(c, sw, reply, ctx));
    });
    let c = net.node_ref::<ControllerNode>(ctrl);
    assert_eq!(
        c.flow_mods_sent(),
        u64::from(routes) + 1,
        "every route went"
    );
    (held_blocks, held_bytes, freed)
}

/// Routes in flight cost the controller their send buffer and nothing
/// per route: it keeps one record per flush, the buffer sent, so
/// between 256 and 2 048 routes awaiting their barrier reply its live
/// blocks do not change and its live bytes grow by exactly what the
/// reply frees, the buffer's own block (one `(xid, slice)` entry per
/// route and a range per route beside it, 56 bytes or more, while it
/// tracked each flow-mod).
#[test]
fn routes_in_flight_cost_the_controller_only_their_send_buffer() {
    let _turn = TURN.lock().unwrap();
    let few = held_in_flight(256);
    let many = held_in_flight(2_048);
    assert_eq!(few.0, many.0, "live blocks, {few:?} against {many:?}");
    assert_eq!(
        many.1 - few.1,
        many.2 - few.2,
        "live bytes beyond the send buffer's, {few:?} against {many:?}"
    );
    assert!(few.2 >= 257 * 88, "the reply frees the buffer: {few:?}");
    assert_eq!(
        (few, many),
        ((4, 33_424, 32_976), (4, 262_800, 262_352)),
        "(live blocks, live bytes, bytes the reply frees) at 256 and 2 048 routes"
    );
}

/// Every sample message decodes into vectors sized once: a match from
/// its fields' bytes, an action, instruction, bucket or multipart list
/// from its items' bytes. No vector is grown while it is read.
#[test]
fn decoding_a_sample_message_grows_no_vector() {
    let _turn = TURN.lock().unwrap();
    for line in include_str!("data/of_golden.txt").lines() {
        let (name, hex) = line.split_once(' ').expect("`name hex` lines");
        let wire: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect();
        let mut decoded = None;
        let grown = reallocs_during(|| decoded = Some(Message::decode(&wire)));
        assert!(decoded.is_some_and(|d| d.is_ok()), "{name} decodes");
        assert_eq!(grown, 0, "{name}: vectors grown while it decoded");
    }
}

/// One SNMP Set round trip: a manager's client writes a VLAN row of
/// three bindings (egress and untagged port lists, `createAndGo`), a
/// legacy switch's agent reads the request where it lies, applies it to
/// its bridge through a `BridgeMib` and answers by echoing the
/// request's bindings, and the client reads the answer where it lies.
/// The heap blocks are the two messages' bytes, two each (the byte
/// vector and its reference count), and the row's two new port sets,
/// which the bridge keeps; the row exists already, so the VLAN table
/// does not grow. Decoding each request into an owned message, cloning
/// its bindings into an owned answer and encoding that took 37.
#[test]
fn an_snmp_set_round_trip_allocates_its_two_messages() {
    let _turn = TURN.lock().unwrap();
    let mut bridge = Bridge::new(49);
    bridge.create_vlan(101).unwrap();
    let sys = SysInfo::default();
    let mut client = SnmpClient::new("public");
    let row = [
        (
            Oid::instance(mibs::VLAN_STATIC_EGRESS_PORTS, 101),
            Value::OctetString(mibs::encode_portlist(&[1, 49], 49)),
        ),
        (
            Oid::instance(mibs::VLAN_STATIC_UNTAGGED_PORTS, 101),
            Value::OctetString(mibs::encode_portlist(&[1], 49)),
        ),
        (
            Oid::instance(mibs::VLAN_STATIC_ROW_STATUS, 101),
            Value::Integer(mibs::ROW_CREATE_AND_GO),
        ),
    ];
    let mut status = None;
    let blocks = blocks_during(|| {
        let request = client.set(&row);
        let mut mib = BridgeMib {
            bridge: &mut bridge,
            sys: &sys,
            uptime_cs: 1,
        };
        let view = MessageRef::decode(&request).expect("the request decodes");
        let response = agent_respond(&mut mib, "public", &view).expect("an answer");
        status = client
            .accept(&response)
            .ok()
            .flatten()
            .map(|r| r.error_status);
    });
    assert_eq!(status, Some(ErrorStatus::NoError));
    let vlan = bridge.vlan(101).expect("the row");
    assert_eq!(vlan.egress.iter().collect::<Vec<_>>(), [1, 49]);
    assert_eq!(vlan.untagged.iter().collect::<Vec<_>>(), [1]);
    assert_eq!(
        blocks,
        2 * 2 + 2,
        "heap blocks of one Set round trip: want the request's and the response's bytes and \
         the bridge's two new port sets"
    );
}

/// A fabric control scenario like the benchmark's `fabric_ctrl` at a
/// small scale: two pods under a master controller with a standby, the
/// migration wave, host moves and a master crash, then everything is
/// dropped.
fn fabric_control_run() {
    const PODS: u16 = 2;
    const HOSTS: u16 = 4;
    let apps = || -> Vec<Box<dyn controller::App>> {
        vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
    };
    let mut net = Network::new(7);
    let primary =
        net.add_node(ControllerNode::new("ctrl", apps()).with_role(ControllerRole::Master, 1));
    let backup =
        net.add_node(ControllerNode::new("backup", apps()).with_role(ControllerRole::Slave, 2));
    let mut fx = FabricSpec::new(PODS, HarmlessSpec::new(HOSTS + 1))
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(true)
        .build(&mut net)
        .expect("valid fabric spec");
    for pod in 0..usize::from(PODS) {
        for port in 1..=HOSTS {
            fx.attach_host(&mut net, pod, port).expect("free port");
        }
    }
    fx.register_controller(&mut net, primary);
    let pods: Vec<usize> = (0..fx.n_pods()).collect();
    let managers = fx
        .run_migration_wave(&mut net, &pods, primary)
        .expect("two-switch pods");
    let mut waited = 0;
    while !fx.wave_done(&net, &managers) {
        net.run_for(SimTime::from_millis(10));
        waited += 1;
        assert!(waited < 2_000, "the wave completes");
    }
    fx.connect_backup_controller(&mut net, backup);
    net.run_for(SimTime::from_millis(100));
    for (from, to) in [((0, 1), (1, HOSTS + 1)), ((1, 2), (0, HOSTS + 1))] {
        fx.migrate_host(&mut net, from, to).expect("valid move");
        net.run_for(SimTime::from_millis(20));
    }
    let crash = net.now() + SimTime::from_millis(20);
    net.schedule_ctrl_down(crash, primary);
    // Every switch declares the master dead and dials the standby,
    // which promotes itself and rebuilds every datapath's rules.
    let resynced = |net: &Network| {
        let b = net.node_ref::<ControllerNode>(backup);
        b.promotions() >= 1 && b.ready_switches() == fx.n_pods() + 1
    };
    let mut waited = 0;
    while !resynced(&net) {
        net.run_for(SimTime::from_millis(10));
        waited += 1;
        assert!(waited < 2_000, "the standby takes over");
    }
}

/// The scenario leaks nothing: built, run and dropped three times in
/// one process, the third run leaves exactly the live bytes the second
/// did. (The first may leave one-time state behind, such as a lazily
/// built table.) So the growth of `fabric_ctrl`'s peak RSS with run
/// length is not the system's.
#[test]
fn a_fabric_control_run_leaves_no_bytes_behind() {
    let _turn = TURN.lock().unwrap();
    let runs: Vec<i64> = (0..3)
        .map(|_| live_bytes_after(fabric_control_run))
        .collect();
    assert_eq!(
        runs[2], 0,
        "live heap bytes each run left behind: {runs:?}; the third must leave none"
    );
}
