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
//! The allocator is per-binary, so this suite is a test binary of its
//! own; `bytes::buffer_allocs` is process-wide, so its tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bytes::buffer_allocs;
use legacy_switch::{CotsConfig, CotsSwitchNode, LegacySwitchNode};
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{LinkSpec, Network, PortId, ShardMap, SimTime};
use openflow::message::FlowMod;
use openflow::{Action, Match};
use softswitch::datapath::{DpConfig, PipelineMode};
use softswitch::{CostModel, SoftSwitchNode};

thread_local! {
    /// Heap blocks requested by this thread while `COUNTING` is set.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting `alloc` and `realloc` calls of threads
/// that switched counting on.
struct Counting;

fn note_block() {
    // `try_with`: the allocator also runs while a thread is torn down.
    // Neither cell has a destructor or a lazy initialiser, so reading
    // them never allocates.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// thread-local `Cell`s and never allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_block();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_block();
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
    // The uncached walk: the matched entry's instruction list and the
    // action list inside it cloned, the recorded program and the table
    // hits. No `CachedPath` is built from them: the model has no caches
    // to keep one.
    const WALK: u64 = 4;
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
