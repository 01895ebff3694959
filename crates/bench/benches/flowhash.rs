//! Flow-hash microbenchmarks: the OVS-style custom mix of
//! `netpkt::flowhash` against the standard library's SipHash-1-3, as raw
//! hashes over a [`FlowKey`] — the operation ROADMAP.md flagged at
//! ~120 ns as the microflow bottleneck. (What a probe built on that hash
//! costs is `benches/tables.rs`, `caches/*`.)

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hash::{BuildHasher, RandomState};
use std::time::Duration;

use netpkt::{builder, FlowKey, MacAddr};

fn key(src: u32, dst_port: u16) -> FlowKey {
    let f = builder::udp_packet(
        MacAddr::host(src),
        MacAddr::host(2),
        std::net::Ipv4Addr::from(0x0a00_0000 + src),
        std::net::Ipv4Addr::new(10, 0, 0, 2),
        1000,
        dst_port,
        b"x",
    );
    FlowKey::extract(1, &f).unwrap()
}

fn bench_raw_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("flowhash_raw");
    g.throughput(Throughput::Elements(1));
    let k = key(500, 53);
    let sip = RandomState::new();
    g.bench_function("siphash", |b| {
        b.iter(|| std::hint::black_box(sip.hash_one(std::hint::black_box(&k))))
    });
    g.bench_function("ovs_mix_direct", |b| {
        b.iter(|| std::hint::black_box(std::hint::black_box(&k).flow_hash(0)))
    });
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_raw_hash
}
criterion_main!(benches);
