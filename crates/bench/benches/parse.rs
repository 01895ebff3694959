//! Packet-parsing microbenchmarks: flow-key extraction and VLAN
//! manipulation — the two operations on every HARMLESS hot path.
//!
//! Every row is timed by `bench::timing` and recorded as a `parse/*`
//! row of `BENCH_netsim.json`. Flow-key extraction, the hot path's
//! parse (`FlowKey::extract_lossy`, as the datapath calls it), is
//! `parse/flowkey_extract/{udp_60,udp_1514,tcp_syn,udp_tagged,arp}`,
//! ns per frame; `parse/flowkey_masked` is one key masked as a megaflow
//! probe masks it. The tag operations of [`FrameBuf`] are
//! `parse/vlan_{push,pop}_{shared,unique}_{60,1514}`: the *unique*
//! rows (the switch is the frame's only holder: twelve bytes moved in
//! place) should not depend on the frame size and allocate nothing,
//! the *shared* rows (somebody else holds the frame too) are one
//! allocation and one copy each; `parse/vlan_set_vid_in_place` rewrites
//! the VID of a tagged frame in a mutable buffer. So are the legacy
//! bridge's two passes of a HARMLESS pod, access → trunk then trunk →
//! access (`parse/bridge_{owned,borrowed}_{60,1514}`): a frame handed
//! over by value (`Bridge::forward_into`, the simulator's way) is
//! re-tagged in place both times, one lent by reference
//! (`Bridge::forward`, the pod rig's) is copied both times. The frame
//! rows also record the buffers allocated per operation.

use std::hint::black_box;
use std::time::Instant;

use bench::timing::Ledger;
use bytes::{buffer_allocs, Bytes, BytesMut};
use legacy_switch::Bridge;
use netpkt::vlan::{push_vlan, VlanTag};
use netpkt::{builder, FlowKey, FrameBuf, MacAddr};

fn frames() -> Vec<(&'static str, bytes::Bytes)> {
    let udp = builder::sized_udp_packet(
        MacAddr::host(1),
        MacAddr::host(2),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        1000,
        53,
        60,
    );
    let udp_big = builder::sized_udp_packet(
        MacAddr::host(1),
        MacAddr::host(2),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        1000,
        53,
        1514,
    );
    let tcp = builder::tcp_packet(
        MacAddr::host(1),
        MacAddr::host(2),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        40000,
        80,
        netpkt::tcp::flags::SYN,
        b"",
    );
    let tagged = push_vlan(&udp, VlanTag::new(101)).unwrap();
    let arp = builder::arp_request(
        MacAddr::host(1),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
    );
    vec![
        ("udp_60", udp),
        ("udp_1514", udp_big),
        ("tcp_syn", tcp),
        ("udp_tagged", tagged),
        ("arp", arp),
    ]
}

/// Time `op` over rounds of `bufs.len()` frames, running `undo` over
/// them untimed after every round (an in-place tag operation uses up
/// what it works on; a parse nothing), and record the buffers allocated
/// per operation beside the time.
fn frame_rounds<T>(
    rep: &mut Ledger,
    name: &str,
    bufs: &mut [T],
    mut op: impl FnMut(&mut T),
    mut undo: impl FnMut(&mut T),
) {
    let (mut allocs, mut ops) = (0, 0);
    rep.rounds(name, || {
        let before = buffer_allocs();
        let t = Instant::now();
        bufs.iter_mut().for_each(&mut op);
        let took = t.elapsed();
        allocs += buffer_allocs() - before;
        ops += bufs.len() as u64;
        bufs.iter_mut().for_each(&mut undo);
        black_box(&mut *bufs);
        (took, bufs.len() as u64)
    })
    .with(&[("buffers_per_iter", allocs as f64 / ops as f64)]);
}

fn main() {
    const ROUND: usize = 64;
    const TCI: u16 = 101;
    let mut rep = Ledger::open("parse", "ns_per_iter");
    for (name, frame) in frames() {
        let mut bufs = vec![frame; ROUND];
        let extract = |f: &mut Bytes| {
            black_box(FlowKey::extract_lossy(1, black_box(f)));
        };
        let name = format!("flowkey_extract/{name}");
        frame_rounds(&mut rep, &name, &mut bufs, extract, |_| {});
    }
    bench_masked(&mut rep);
    for size in [60usize, 1514] {
        let bare = builder::sized_udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1000,
            53,
            size,
        );
        let tagged = push_vlan(&bare, VlanTag::new(TCI)).unwrap();
        let pop = |b: &mut FrameBuf| b.pop_vlan().unwrap();
        let push = |b: &mut FrameBuf| b.push_vlan(0x8100, TCI).unwrap();

        // Unique: every frame is a buffer of its own that only the
        // `FrameBuf` holds; a pop's undo is the push into the room it
        // left, and the other way round.
        let own = |f: &Bytes| FrameBuf::from_bytes(Bytes::from(f.to_vec()));
        let mut bufs: Vec<FrameBuf> = (0..ROUND).map(|_| own(&tagged)).collect();
        frame_rounds(
            &mut rep,
            &format!("vlan_pop_unique_{size}"),
            &mut bufs,
            pop,
            push,
        );
        bufs.iter_mut().for_each(pop);
        frame_rounds(
            &mut rep,
            &format!("vlan_push_unique_{size}"),
            &mut bufs,
            push,
            pop,
        );

        // Shared: this function holds `tagged` / `bare` throughout, so
        // each operation copies; the undo hands the clone back.
        let mut bufs: Vec<FrameBuf> = (0..ROUND).map(|_| tagged.clone().into()).collect();
        let reset = |b: &mut FrameBuf| *b = tagged.clone().into();
        frame_rounds(
            &mut rep,
            &format!("vlan_pop_shared_{size}"),
            &mut bufs,
            pop,
            reset,
        );
        let reset = |b: &mut FrameBuf| *b = bare.clone().into();
        bufs.iter_mut().for_each(reset);
        frame_rounds(
            &mut rep,
            &format!("vlan_push_shared_{size}"),
            &mut bufs,
            push,
            reset,
        );

        if size == 60 {
            let mut buf = BytesMut::from(&tagged[..]);
            rep.calls("vlan_set_vid_in_place", 1, || {
                black_box(netpkt::vlan::set_vlan_vid(&mut buf, 102).unwrap());
            });
        }

        bridge_rounds(&mut rep, size);
    }
    rep.save();
}

/// `parse/flowkey_masked`: a UDP key under a three-field megaflow mask.
fn bench_masked(rep: &mut Ledger) {
    let (_, udp) = &frames()[0];
    let key = FlowKey::extract(1, udp).unwrap();
    let mut mask = FlowKey::empty_mask();
    mask.eth_type = u16::MAX;
    mask.ipv4_src = 0xffff_0000;
    mask.udp_dst = u16::MAX;
    rep.calls("flowkey_masked", 1, || {
        black_box(black_box(&key).masked(&mask));
    });
}

/// A pod's legacy switch (access port 1 in VLAN 101, the trunk on
/// port 2) and a frame from the host behind port 1, built as a
/// generator builds it. The far host never speaks, so both passes take
/// the flood arm to the VLAN's one other member, as every bridge pass
/// of `fabric_steady` does.
fn pod_bridge(size: usize) -> (Bridge, impl Fn() -> Bytes) {
    let mut bridge = Bridge::new(2);
    bridge.make_access_port(1, 101).unwrap();
    bridge.make_trunk_port(2, &[101]).unwrap();
    let frame = move || {
        builder::sized_udp_packet(
            MacAddr::host(1),
            MacAddr::host(2),
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            1000,
            53,
            size,
        )
    };
    (bridge, frame)
}

/// `parse/bridge_{owned,borrowed}_{size}`: one access → trunk and one
/// trunk → access pass per operation.
fn bridge_rounds(rep: &mut Ledger, size: usize) {
    const ROUND: usize = 64;
    // By value: each frame is a buffer of its own, handed through both
    // passes and back into its slot — tagged in the room in front of
    // it, untagged where it lies, so a round leaves nothing to undo.
    let (mut bridge, frame) = pod_bridge(size);
    let mut frames: Vec<Bytes> = (0..ROUND).map(|_| frame()).collect();
    let mut out = Vec::new();
    let round_trip = |f: &mut Bytes| {
        bridge.forward_into(1, std::mem::take(f), 0, &mut out);
        let (_, tagged) = out.pop().expect("one trunk output");
        bridge.forward_into(2, tagged, 0, &mut out);
        *f = out.pop().expect("one access output").1;
    };
    let name = format!("bridge_owned_{size}");
    frame_rounds(rep, &name, &mut frames, round_trip, |_| {});

    // Borrowed: the caller keeps the frame, so each pass copies.
    let (mut bridge, frame) = pod_bridge(size);
    let mut frames: Vec<Bytes> = (0..ROUND).map(|_| frame()).collect();
    let round_trip = |f: &mut Bytes| {
        let up = bridge.forward(1, f, 0);
        black_box(bridge.forward(2, &up.outputs[0].1, 0));
    };
    let name = format!("bridge_borrowed_{size}");
    frame_rounds(rep, &name, &mut frames, round_trip, |_| {});
}
