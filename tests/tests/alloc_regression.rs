//! Allocation-count regression tests for the zero-copy datapath.
//!
//! The vendored `bytes` crate counts every fresh backing buffer in a
//! process-global counter ([`bytes::buffer_allocs`]); refcount clones,
//! slices and ownership transfers do not move it. These tests pin the
//! zero-copy contract of the hot path: once a flow is cached, serving
//! it must not allocate — flood fan-out included; rewriting a frame
//! somebody else holds must allocate exactly one buffer per frame; and
//! rewriting a frame the datapath alone holds — a VLAN pop, the push
//! that follows it, a set-field, NAT — must allocate none.
//!
//! The counter is process-global, so this suite lives in its own test
//! binary and serialises its tests with a mutex; keep counter-exact
//! assertions out of other binaries.

use bytes::{buffer_allocs, Bytes};
use harmless_tests::run_one;
use netpkt::{builder, MacAddr};
use openflow::message::FlowMod;
use openflow::{port_no, Action, Match};
use softswitch::batch::{BatchResult, FrameBatch};
use softswitch::datapath::{Datapath, DpConfig, PipelineMode};
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// Serialises tests that assert exact counter deltas.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn dp_with_ports(n_ports: u32) -> Datapath {
    let mut dp = Datapath::new(DpConfig::software(1).with_mode(PipelineMode::full()));
    for p in 1..=n_ports {
        dp.add_port(p, format!("p{p}"), 1_000_000);
    }
    dp
}

fn udp_frame(payload: &[u8]) -> Bytes {
    builder::udp_packet(
        MacAddr::host(1),
        MacAddr::host(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        1000,
        53,
        payload,
    )
}

/// A cached flood of a full-MTU frame to 32 ports must be pure refcount
/// bumps: at most one buffer allocation for the whole fan-out,
/// regardless of the output port count.
#[test]
fn cached_flood_to_32_ports_allocates_at_most_one_buffer() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(33);
    dp.apply_flow_mod(
        &FlowMod::add(0)
            .priority(1)
            .apply(vec![Action::output(port_no::FLOOD)]),
        0,
    )
    .unwrap();
    // 1500-byte frame: 42 bytes of headers + 1458 of payload.
    let frame = udp_frame(&[0xab; 1458]);
    assert_eq!(frame.len(), 1500);
    // Warm the caches: the first frame takes the slow path (recording,
    // cache install) and may allocate.
    let warm = run_one(&mut dp, 1, frame.clone(), 0);
    assert_eq!(
        warm.outputs_of(0).len(),
        32,
        "flood fans out to every other port"
    );

    let before = buffer_allocs();
    let r = run_one(&mut dp, 1, frame.clone(), 1);
    let allocs = buffer_allocs() - before;
    assert_eq!(r.outputs_of(0).len(), 32);
    assert!(
        allocs <= 1,
        "cached flood must be refcount bumps, got {allocs} buffer allocations for 32 outputs"
    );
    // Every flood copy shares the ingress frame's backing storage.
    for (_port, out) in r.outputs_of(0) {
        assert_eq!(out.as_slice().as_ptr(), frame.as_slice().as_ptr());
    }
}

/// A batch of cached pure-forward frames must not allocate any frame
/// buffers at all: parse, cache hit and emit all operate on
/// borrowed or refcounted storage.
#[test]
fn cached_path_batch_allocates_no_buffers() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(2);
    dp.apply_flow_mod(
        &FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![Action::output(2)]),
        0,
    )
    .unwrap();
    let frame = udp_frame(b"payload");
    run_one(&mut dp, 1, frame.clone(), 0); // warm: slow path + cache install

    const N: usize = 64;
    let mut batch = FrameBatch::with_capacity(N);
    for _ in 0..N {
        batch.push(1, frame.clone());
    }
    let mut result = BatchResult::default();
    let before = buffer_allocs();
    dp.process_batch_into(&mut batch, 1, &mut result);
    let allocs = buffer_allocs() - before;
    assert_eq!(result.len(), N);
    assert_eq!(result.total_outputs(), N);
    assert_eq!(
        allocs, 0,
        "{N} cached pure-forward frames allocated {allocs} buffers; expected zero"
    );
}

/// The way every caller submits a lone frame: a one-frame batch into an
/// arena it lends again and again. On a warmed datapath that costs no
/// frame buffer, and the arena keeps the storage its first use sized —
/// every call finds it cleared, none makes it grow or move.
#[test]
fn one_frame_batches_through_a_lent_arena_allocate_nothing_and_never_grow_it() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(2);
    // An output and a packet-in per frame: all three arena vectors work.
    dp.apply_flow_mod(
        &FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![Action::output(2), Action::to_controller()]),
        0,
    )
    .unwrap();
    let frame = udp_frame(b"payload");
    let mut batch = FrameBatch::with_capacity(1);
    let mut result = BatchResult::default();
    let storage = |r: &BatchResult| {
        (
            r.frames().as_ptr(),
            r.all_outputs().as_ptr(),
            r.all_packet_ins().as_ptr(),
        )
    };
    // Warm: slow path and cache install; the arena takes its size.
    batch.push(1, frame.clone());
    dp.process_batch_into(&mut batch, 0, &mut result);
    let sized = storage(&result);

    let before = buffer_allocs();
    for t in 1..=1_000 {
        batch.push(1, frame.clone());
        dp.process_batch_into(&mut batch, t, &mut result);
        assert_eq!(
            (
                result.len(),
                result.total_outputs(),
                result.all_packet_ins().len()
            ),
            (1, 1, 1),
            "call {t}: the arena holds this frame's results and no older ones"
        );
        assert_eq!(storage(&result), sized, "call {t}: arena storage moved");
    }
    assert_eq!(
        buffer_allocs() - before,
        0,
        "frame buffers over 1 000 calls"
    );
}

/// Copy-on-write ceiling: a cached flow whose actions rewrite the frame
/// (TTL decrement via the routed pipeline's DecNwTtl analogue — here a
/// set-field) allocates exactly one buffer per frame: the private copy
/// made by the first mutation. Emitting the rewritten frame is a
/// transfer, not another copy.
#[test]
fn cow_rewrite_allocates_exactly_one_buffer_per_frame() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(2);
    dp.apply_flow_mod(
        &FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1))
            .apply(vec![
                Action::SetField(openflow::OxmField::EthDst(MacAddr::host(9), None)),
                Action::output(2),
            ]),
        0,
    )
    .unwrap();
    let frame = udp_frame(b"rewrite-me");
    run_one(&mut dp, 1, frame.clone(), 0); // warm

    const N: u64 = 16;
    let before = buffer_allocs();
    for i in 0..N {
        let r = run_one(&mut dp, 1, frame.clone(), 1 + i);
        assert_eq!(r.outputs_of(0).len(), 1);
    }
    let allocs = buffer_allocs() - before;
    assert_eq!(
        allocs, N,
        "a rewriting flow must take exactly one CoW copy per frame, got {allocs} for {N} frames"
    );
}

/// Group buckets work on lazy copies: a cached ALL group pays one CoW
/// copy per bucket that rewrites, none for a bucket that only outputs,
/// and none for restoring the packet after the group.
#[test]
fn all_group_allocates_one_buffer_per_rewriting_bucket() {
    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(5);
    let rewrite = |h| Action::SetField(openflow::OxmField::EthDst(MacAddr::host(h), None));
    dp.apply_group_mod(
        openflow::group::GroupModCommand::Add,
        openflow::GroupType::All,
        1,
        vec![
            openflow::Bucket::new(vec![rewrite(8), Action::output(2)]),
            openflow::Bucket::new(vec![Action::output(3)]),
            openflow::Bucket::new(vec![rewrite(9), Action::output(4)]),
        ],
    )
    .unwrap();
    dp.apply_flow_mod(
        &FlowMod::add(0)
            .priority(1)
            .apply(vec![Action::Group(1), Action::output(5)]),
        0,
    )
    .unwrap();
    let frame = udp_frame(b"fan-out");
    run_one(&mut dp, 1, frame.clone(), 0); // warm

    let before = buffer_allocs();
    let r = run_one(&mut dp, 1, frame.clone(), 1);
    let allocs = buffer_allocs() - before;
    assert_eq!(r.outputs_of(0).len(), 4);
    assert_eq!(allocs, 2, "two rewriting buckets, two copies");
    // The plain bucket and the trailing output share the ingress buffer.
    for i in [1, 3] {
        assert_eq!(
            r.outputs_of(0)[i].1.as_slice().as_ptr(),
            frame.as_slice().as_ptr()
        );
    }
}

/// The legacy bridge forwards a frame that arrives tagged and leaves
/// tagged on the same VLAN as it is: no pop-and-push-again, so no
/// buffer, and the priority bits of the received tag survive.
#[test]
fn bridge_trunk_to_trunk_keeps_the_tag_and_allocates_no_buffer() {
    use netpkt::vlan::{outer_tag, push_vlan, VlanTag};

    let _g = COUNTER_LOCK.lock().unwrap();
    let mut bridge = legacy_switch::Bridge::new(2);
    bridge.make_trunk_port(1, &[7]).unwrap();
    bridge.make_trunk_port(2, &[7]).unwrap();
    let tag = VlanTag {
        vid: 7,
        pcp: 5,
        dei: false,
    };
    let tagged = push_vlan(&udp_frame(b"priority"), tag).unwrap();
    bridge.forward(1, &tagged, 0); // unknown destination: flood, learn

    let before = buffer_allocs();
    let out = bridge.forward(1, &tagged, 1);
    assert_eq!(buffer_allocs(), before, "tagged in, tagged out: no copy");
    assert_eq!(out.outputs.len(), 1);
    assert_eq!(out.outputs[0].0, 2);
    assert_eq!(
        outer_tag(&out.outputs[0].1),
        Some(tag),
        "PCP 5 leaves as PCP 5"
    );
}

/// A HARMLESS access VLAN (access port 1, trunk port 2): a frame handed
/// to the bridge by value crosses it either way without a buffer — its
/// tag pushed into the room the builder left, or popped where it lies —
/// whether its destination is flooded to the one other member or
/// learned; through the borrowed `forward` every re-tag is one copy.
#[test]
fn bridge_retags_a_handed_over_frame_in_place_and_copies_a_borrowed_one() {
    use netpkt::vlan::{outer_tag, VlanTag};
    use netpkt::FrameBuf;

    let _g = COUNTER_LOCK.lock().unwrap();
    let mut bridge = legacy_switch::Bridge::new(2);
    bridge.make_access_port(1, 101).unwrap();
    bridge.make_trunk_port(2, &[101]).unwrap();
    // Host 2 answers host 1 from behind the trunk, tagged as SS_1 tags
    // it: in the room its frame was built with.
    let answer = || {
        let f = builder::udp_packet(
            MacAddr::host(2),
            MacAddr::host(1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
            53,
            1000,
            b"answer",
        );
        let mut buf = FrameBuf::from_bytes(f);
        buf.push_vlan(0x8100, 101).unwrap();
        buf.into_bytes()
    };
    let mut out = Vec::new();
    for (now, flooded) in [(0, 1), (1, 1)] {
        let up = udp_frame(b"ask");
        let ptr = up.as_slice().as_ptr();
        let (allocs, _) = allocs_during(|| bridge.forward_into(1, up, now, &mut out));
        assert_eq!(allocs, 0, "at {now}: access → trunk pushes in place");
        let (port, sent) = out.pop().expect("one output");
        assert_eq!((port, out.len()), (2, 0));
        assert_eq!(outer_tag(&sent), Some(VlanTag::new(101)));
        assert_eq!(sent.as_slice().as_ptr(), ptr.wrapping_sub(4));

        let down = answer();
        let ptr = down.as_slice().as_ptr();
        let (allocs, _) = allocs_during(|| bridge.forward_into(2, down, now, &mut out));
        assert_eq!(allocs, 0, "at {now}: trunk → access pops in place");
        let (port, sent) = out.pop().expect("one output");
        assert_eq!((port, out.len()), (1, 0));
        assert_eq!(outer_tag(&sent), None);
        assert_eq!(sent.as_slice().as_ptr(), ptr.wrapping_add(4));
        // Only the first ask finds its destination unknown.
        assert_eq!(bridge.flood_frames(), flooded);
    }

    let (up, down) = (udp_frame(b"borrowed"), answer());
    let (allocs, _) = allocs_during(|| bridge.forward(1, &up, 2));
    assert_eq!(allocs, 1, "the caller keeps the frame: the tag is a copy");
    let (allocs, _) = allocs_during(|| bridge.forward(2, &down, 2));
    assert_eq!(allocs, 1, "and so is the pop");
}

/// SS_1 as `harmless::translator` programs it: trunk on port 1, four
/// access ports behind patch ports.
fn translator_dp() -> Datapath {
    use harmless::translator::{patch_port, translator_rules};
    let map = harmless::PortMap::with_defaults(4).unwrap();
    let mut dp = Datapath::new(DpConfig::software(0x51).with_mode(PipelineMode::full()));
    dp.add_port(1, "trunk", 10_000_000);
    for p in 1..=4 {
        dp.add_port(patch_port(p), format!("patch{p}"), 10_000_000);
    }
    for fm in translator_rules(&map, 1) {
        dp.apply_flow_mod(&fm, 0).unwrap();
    }
    dp
}

/// The first output of a one-frame run, the arena let go of: whoever
/// takes it is its sole holder, as the next hop of a pod is.
fn first_output(r: BatchResult) -> (u32, Bytes) {
    r.outputs_of(0)[0].clone()
}

/// Buffers allocated while `f` runs.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = buffer_allocs();
    let out = f();
    (buffer_allocs() - before, out)
}

/// The translator's down rule (`pop_vlan, output`) moves twelve bytes
/// of a frame nobody else holds and allocates nothing — on the slow
/// path, on a cached replay and in a batch alike; a frame its sender
/// still holds costs the one copy that keeps the sender's bytes.
#[test]
fn translator_down_rule_pops_in_place_or_copies_once() {
    use harmless::translator::patch_port;
    use netpkt::vlan::{push_vlan, VlanTag};

    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = translator_dp();
    let bare = udp_frame(&[0xcd; 1458]);
    let tagged = || push_vlan(&bare, VlanTag::new(102)).unwrap();

    // Slow path, then cached replay: the frame is handed over.
    for (i, what) in ["slow path", "cached replay"].into_iter().enumerate() {
        let frame = tagged();
        let ptr = frame.as_slice().as_ptr();
        let (allocs, r) = allocs_during(|| run_one(&mut dp, 1, frame, i as u64));
        assert_eq!(allocs, 0, "{what}: sole holder, popped in place");
        assert_eq!(r.outputs_of(0).len(), 1);
        assert_eq!(r.outputs_of(0)[0].0, patch_port(2));
        assert_eq!(r.outputs_of(0)[0].1, bare);
        assert_eq!(
            r.outputs_of(0)[0].1.as_slice().as_ptr(),
            ptr.wrapping_add(4),
            "{what}: same storage, view advanced past the tag"
        );
    }

    const N: usize = 32;
    let mut batch: FrameBatch = (0..N).map(|_| (1, tagged())).collect();
    let mut result = BatchResult::default();
    let (allocs, ()) = allocs_during(|| dp.process_batch_into(&mut batch, 2, &mut result));
    assert_eq!(result.total_outputs(), N);
    assert_eq!(allocs, 0, "a batch of handed-over frames");

    // The sender keeps a clone: one copy, sized for the popped frame.
    let held: Vec<Bytes> = (0..N).map(|_| tagged()).collect();
    let (allocs, outs) = allocs_during(|| {
        held.iter()
            .map(|f| first_output(run_one(&mut dp, 1, f.clone(), 3)))
            .collect::<Vec<_>>()
    });
    assert_eq!(allocs, N as u64, "one copy per frame somebody else holds");
    assert!(outs.iter().all(|o| o.1 == bare));
    assert!(held.iter().all(|f| *f == tagged()), "the sender's frames");
}

/// The translator's up rule (`push_vlan, set vid, output`) writes one
/// folded 4-byte tag: into the room in front of a buffer the down rule
/// just popped (nothing allocated, the frame is back where it started)
/// or that `netpkt::builder` left, or as part of the single copy a
/// shared or room-less frame takes.
#[test]
fn translator_up_rule_pushes_into_the_popped_room_or_copies_once() {
    use harmless::translator::patch_port;
    use netpkt::vlan::{outer_tag, push_vlan, VlanTag};

    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = translator_dp();
    let bare = udp_frame(&[0xcd; 1458]);
    let tag = VlanTag::new(103);
    let tagged = push_vlan(&bare, tag).unwrap();

    // Round trips: down then straight back up, the output of one pass
    // moved into the next. The first is two slow paths, the rest replay.
    for i in 0..4 {
        let frame = push_vlan(&bare, tag).unwrap();
        let ptr = frame.as_slice().as_ptr();
        let (allocs, up) = allocs_during(|| {
            let down = first_output(run_one(&mut dp, 1, frame, i));
            first_output(run_one(&mut dp, down.0, down.1, i))
        });
        assert_eq!(allocs, 0, "round trip {i}: pop and push in place");
        assert_eq!(up.0, 1, "back out of the trunk");
        assert_eq!(up.1, tagged);
        assert_eq!(up.1.as_slice().as_ptr(), ptr, "round trip {i}: same bytes");
    }

    // A frame somebody else holds: the tag and the VID arrive with the
    // one copy (the parent made a full copy, then rebuilt it for the tag).
    const N: u64 = 16;
    let (allocs, ups) = allocs_during(|| {
        (0..N)
            .map(|i| first_output(run_one(&mut dp, patch_port(3), bare.clone(), 10 + i)))
            .collect::<Vec<_>>()
    });
    assert_eq!(allocs, N, "one copy per shared frame");
    assert!(ups.iter().all(|o| o.1 == tagged));
    assert_eq!(outer_tag(&ups[0].1), Some(tag));

    // A frame as the builder makes it, handed over: the tag takes the
    // room the builder left in front of it.
    let fresh = udp_frame(&[0xcd; 1458]);
    let ptr = fresh.as_slice().as_ptr();
    let (allocs, up) = allocs_during(|| first_output(run_one(&mut dp, patch_port(3), fresh, 30)));
    assert_eq!(
        allocs, 0,
        "a freshly built frame takes its first tag in place"
    );
    assert_eq!(up.1, tagged);
    assert_eq!(up.1.as_slice().as_ptr(), ptr.wrapping_sub(4));

    // Nobody else holds it, but nothing precedes the view either (a
    // frame in a bare vector of its own): the same single copy.
    let bare_vec = Bytes::from(udp_frame(&[0xcd; 1458]).to_vec());
    let (allocs, r) = allocs_during(|| run_one(&mut dp, patch_port(3), bare_vec, 31));
    assert_eq!(allocs, 1, "no room in front");
    assert_eq!(r.outputs_of(0)[0].1, tagged);
}

/// Set-field and NAT rewrites change bytes where they lie when the
/// datapath is the frame's only holder, and still take exactly one copy
/// (never one per rewritten field) when it is not.
#[test]
fn header_rewrites_are_in_place_for_a_sole_holder_and_one_copy_otherwise() {
    use openflow::NatDir;
    use softswitch::NatConfig;

    let _g = COUNTER_LOCK.lock().unwrap();
    let mut dp = dp_with_ports(2);
    dp.configure_nat(NatConfig::new(Ipv4Addr::new(198, 18, 0, 254)));
    dp.apply_flow_mod(
        &FlowMod::add(0)
            .priority(1)
            .match_(Match::new().in_port(1).eth_type(0x0800))
            .apply(vec![
                Action::Nat(NatDir::Egress),
                Action::SetField(openflow::OxmField::EthDst(MacAddr::host(9), None)),
                Action::output(2),
            ]),
        0,
    )
    .unwrap();
    let wire = udp_frame(b"translate-me").to_vec();
    run_one(&mut dp, 1, Bytes::from(wire.clone()), 0); // warm: binding + caches

    const N: u64 = 16;
    let unique: Vec<Bytes> = (0..N).map(|_| Bytes::from(wire.clone())).collect();
    let ptrs: Vec<_> = unique.iter().map(|f| f.as_slice().as_ptr()).collect();
    let (allocs, outs) = allocs_during(|| {
        unique
            .into_iter()
            .map(|f| first_output(run_one(&mut dp, 1, f, 1)).1)
            .collect::<Vec<_>>()
    });
    assert_eq!(
        allocs, 0,
        "sole holder: source, port, MAC rewritten in place"
    );
    for (out, ptr) in outs.iter().zip(ptrs) {
        assert_eq!(out.as_slice().as_ptr(), ptr);
        assert_ne!(&out[..], &wire[..], "and rewritten it was");
    }

    let held = Bytes::from(wire.clone());
    let (allocs, shared) = allocs_during(|| {
        (0..N)
            .map(|_| first_output(run_one(&mut dp, 1, held.clone(), 2)).1)
            .collect::<Vec<_>>()
    });
    assert_eq!(allocs, N, "a held frame: one copy for all its rewrites");
    assert_eq!(&held[..], &wire[..]);
    assert!(shared.iter().all(|f| *f == outs[0]));
}
