//! Flow-key hash microbenchmarks: `FlowKey::flow_hash`, the fingerprint
//! every flow-cache probe runs on, against std's SipHash-1-3 over the
//! derived `Hash` as a reference. (What a probe built on the
//! fingerprint costs is `benches/tables.rs`, `caches/*`.)
//!
//! Each row is ns per hash, timed by `bench::timing` and recorded as
//! `flowhash/{hash}/{regime}` in `BENCH_netsim.json`:
//!
//! - `throughput`: 64 distinct keys hashed one after another, every
//!   result independent, so consecutive hashes overlap;
//! - `latency`: each hash picks the next key, so every hash waits on
//!   the one before (and on one load of a key in the first-level
//!   cache). In the datapath the fingerprint feeds the probe that
//!   follows it, so this is the row a frame pays.

use std::hash::{BuildHasher, RandomState};
use std::hint::black_box;

use bench::timing::Ledger;
use netpkt::{builder, FlowKey, MacAddr};

/// Hashes per call of a timed routine.
const KEYS: u32 = 64;

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

/// Time `hash` over the keys in both regimes.
fn bench_hash(rep: &mut Ledger, name: &str, keys: &[FlowKey], hash: impl Fn(&FlowKey) -> u32) {
    rep.calls(&format!("{name}/throughput"), KEYS.into(), || {
        for k in keys {
            black_box(hash(black_box(k)));
        }
    });
    let mut h = 0;
    rep.calls(&format!("{name}/latency"), KEYS.into(), || {
        for _ in 0..KEYS {
            h = hash(&keys[h as usize % KEYS as usize]);
        }
        black_box(h);
    });
}

fn main() {
    let mut rep = Ledger::open("flowhash", "ns_per_iter");
    let keys: Vec<FlowKey> = (0..KEYS).map(|src| key(src, 53)).collect();
    bench_hash(&mut rep, "flow_hash", &keys, |k| k.flow_hash(0));
    // std's own keyed SipHash, as its maps use it: the row compares
    // against that, and no figure of it is pinned.
    #[allow(clippy::disallowed_methods)]
    let sip = RandomState::new();
    bench_hash(&mut rep, "siphash13", &keys, |k| sip.hash_one(k) as u32);
    rep.save();
}
