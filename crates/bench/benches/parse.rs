//! Packet-parsing microbenchmarks: flow-key extraction and VLAN
//! manipulation — the two operations on every HARMLESS hot path.
//!
//! The criterion groups print as always. Flow-key extraction, the
//! hot path's parse (`FlowKey::extract_lossy`, as the datapath calls
//! it), is also timed by its own loop and recorded to `BENCH_netsim.json`
//! (`parse/flowkey_extract/{udp_60,udp_1514,tcp_syn,udp_tagged,arp}`,
//! ns per frame). The tag operations of
//! [`FrameBuf`] are also recorded to `BENCH_netsim.json`
//! (`parse/vlan_{push,pop}_{shared,unique}_{60,1514}`): the *unique*
//! rows (the switch is the frame's only holder: twelve bytes moved in
//! place) should not depend on the frame size and allocate nothing,
//! the *shared* rows (somebody else holds the frame too) are one
//! allocation and one copy each. So are the legacy bridge's two passes
//! of a HARMLESS pod, access → trunk then trunk → access
//! (`parse/bridge_{owned,borrowed}_{60,1514}`): a frame handed over by
//! value (`Bridge::forward_into`, the simulator's way) is re-tagged in
//! place both times, one lent by reference (`Bridge::forward`, the pod
//! rig's) is copied both times.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::{Duration, Instant};

use bench::report::{self, Report};
use bytes::{buffer_allocs, Bytes, BytesMut};
use legacy_switch::Bridge;
use netpkt::vlan::{pop_vlan, push_vlan, VlanTag};
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

fn bench_flowkey(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowkey_extract");
    for (name, frame) in frames() {
        g.throughput(Throughput::Bytes(frame.len() as u64));
        g.bench_with_input(BenchmarkId::from_parameter(name), &frame, |b, f| {
            b.iter(|| std::hint::black_box(FlowKey::extract(1, f).unwrap()))
        });
    }
    g.finish();
}

fn bench_vlan_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("vlan");
    let udp = builder::sized_udp_packet(
        MacAddr::host(1),
        MacAddr::host(2),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        1000,
        53,
        60,
    );
    let tagged = push_vlan(&udp, VlanTag::new(101)).unwrap();
    g.throughput(Throughput::Elements(1));
    g.bench_function("push", |b| {
        b.iter(|| std::hint::black_box(push_vlan(&udp, VlanTag::new(101)).unwrap()))
    });
    g.bench_function("pop", |b| {
        b.iter(|| std::hint::black_box(pop_vlan(&tagged).unwrap()))
    });
    g.bench_function("set_vid_in_place", |b| {
        let mut buf = BytesMut::from(&tagged[..]);
        b.iter(|| std::hint::black_box(netpkt::vlan::set_vlan_vid(&mut buf, 102).unwrap()))
    });
    g.finish();
}

fn bench_masking(c: &mut Criterion) {
    let udp = builder::sized_udp_packet(
        MacAddr::host(1),
        MacAddr::host(2),
        "10.0.0.1".parse().unwrap(),
        "10.0.0.2".parse().unwrap(),
        1000,
        53,
        60,
    );
    let key = FlowKey::extract(1, &udp).unwrap();
    let mut mask = FlowKey::empty_mask();
    mask.eth_type = u16::MAX;
    mask.ipv4_src = 0xffff_0000;
    mask.udp_dst = u16::MAX;
    c.bench_function("flowkey_masked", |b| {
        b.iter(|| std::hint::black_box(key.masked(&mask)))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(30)
}

/// Time `op` over rounds of `bufs.len()` frames until 300 ms have been
/// measured, running `undo` over them untimed after every round (an
/// in-place tag operation uses up what it works on; a parse nothing);
/// print the mean and record it with the buffers allocated per
/// operation.
fn tag_rounds<T>(
    rep: &mut Report,
    name: &str,
    bufs: &mut [T],
    mut op: impl FnMut(&mut T),
    mut undo: impl FnMut(&mut T),
) {
    let (mut total, mut ops, mut allocs) = (Duration::ZERO, 0u64, 0u64);
    let mut warm = true;
    while total < Duration::from_millis(300) {
        let before = buffer_allocs();
        let t = Instant::now();
        bufs.iter_mut().for_each(&mut op);
        let elapsed = t.elapsed();
        if !std::mem::take(&mut warm) {
            total += elapsed;
            ops += bufs.len() as u64;
            allocs += buffer_allocs() - before;
        }
        bufs.iter_mut().for_each(&mut undo);
        black_box(&mut *bufs);
    }
    let ns = total.as_nanos() as f64 / ops as f64;
    let buffers = allocs as f64 / ops as f64;
    println!("{name:<50} time: {ns:>12.1} ns/iter  {buffers} buffers/iter");
    rep.record(
        &format!("parse/{name}"),
        &[("ns_per_iter", ns), ("buffers_per_iter", buffers)],
    );
}

fn ledger() {
    const ROUND: usize = 64;
    const TCI: u16 = 101;
    let mut rep = Report::load(report::bench_file());
    for (name, frame) in frames() {
        let mut bufs = vec![frame; ROUND];
        let extract = |f: &mut Bytes| {
            black_box(FlowKey::extract_lossy(1, black_box(f)));
        };
        let name = format!("flowkey_extract/{name}");
        tag_rounds(&mut rep, &name, &mut bufs, extract, |_| {});
    }
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
        tag_rounds(
            &mut rep,
            &format!("vlan_pop_unique_{size}"),
            &mut bufs,
            pop,
            push,
        );
        bufs.iter_mut().for_each(pop);
        tag_rounds(
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
        tag_rounds(
            &mut rep,
            &format!("vlan_pop_shared_{size}"),
            &mut bufs,
            pop,
            reset,
        );
        let reset = |b: &mut FrameBuf| *b = bare.clone().into();
        bufs.iter_mut().for_each(reset);
        tag_rounds(
            &mut rep,
            &format!("vlan_push_shared_{size}"),
            &mut bufs,
            push,
            reset,
        );

        bridge_rounds(&mut rep, size);
    }
    if let Err(e) = rep.save(report::bench_file()) {
        eprintln!("(could not write {}: {e})", report::BENCH_FILE);
    }
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
fn bridge_rounds(rep: &mut Report, size: usize) {
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
    tag_rounds(rep, &name, &mut frames, round_trip, |_| {});

    // Borrowed: the caller keeps the frame, so each pass copies.
    let (mut bridge, frame) = pod_bridge(size);
    let mut frames: Vec<Bytes> = (0..ROUND).map(|_| frame()).collect();
    let round_trip = |f: &mut Bytes| {
        let up = bridge.forward(1, f, 0);
        black_box(bridge.forward(2, &up.outputs[0].1, 0));
    };
    let name = format!("bridge_borrowed_{size}");
    tag_rounds(rep, &name, &mut frames, round_trip, |_| {});
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_flowkey, bench_vlan_ops, bench_masking
}
criterion_main!(benches, ledger);
