//! E4 — resilience: what does a fault cost the data plane, and how fast
//! does HARMLESS reconverge?
//!
//! A 4-pod spine fabric carries three measured CBR flows (one per remote
//! pod) while a fault schedule runs: an uplink flap, a softswitch power
//! cycle, a legacy-switch reboot with and without the management plane
//! watching, and a full migration wave under live traffic. Every sink
//! carries an SLO meter, so each scenario yields per-flow downtime,
//! worst outage and time-to-reconverge next to the engine's blackholed
//! frame count — the disruption-vs-plan table of EXPERIMENTS.md.
//!
//! E9 — control-plane resilience, this binary's second scenario family:
//! the fault sits on the controller or its channel, never in the data path.
//!
//! `cargo run --release -p bench --bin exp_resilience` (add `--quick`
//! for the CI smoke subset: one fault scenario + the migration wave).

use bench::render_table;
use controller::apps::{ArpProxy, LearningSwitch};
use controller::ControllerNode;
use harmless::fabric::{Fabric, FabricSpec, Interconnect};
use harmless::instance::HarmlessSpec;
use harmless::manager::{HarmlessManager, ManagerConfig};
use netsim::traffic::{FlowSpec, Generator, Pattern, Sink};
use netsim::{CtrlProfile, CtrlStats, FaultPlan, Network, NodeId, PortId, SimTime};
use openflow::ControllerRole;
use softswitch::{FailMode, SoftSwitchNode};

const PODS: usize = 4;
const ACCESS_PORTS: u16 = 4;
/// Access port carrying the measurement stations in every pod.
const STATION_PORT: u16 = 2;
/// Per-flow rate: 1 kpps → 1 ms inter-arrival.
const PPS_PER_FLOW: f64 = 1_000.0;
/// A service gap above this is an outage (10× the inter-arrival time).
const SLO_THRESHOLD: SimTime = SimTime::from_millis(10);
const TRAFFIC_START: SimTime = SimTime::from_millis(100);
const FAULT_AT: SimTime = SimTime::from_millis(500);

struct FlowReport {
    dst_pod: usize,
    received: u64,
    first_rx: Option<SimTime>,
    downtime_ns: u64,
    worst_ns: u64,
    reconverged_ns: Option<u64>,
}

struct Report {
    plan: &'static str,
    /// When the measurement window (= traffic) closed.
    stop: SimTime,
    flows: Vec<FlowReport>,
    blackholed: u64,
}

/// The common harness: controller, fabric, identity hosts on port 1 of
/// every pod, a generator in pod 0 and an SLO-metered sink in each
/// remote pod, all on [`STATION_PORT`].
struct Harness {
    net: Network,
    fx: Fabric,
    ctrl: NodeId,
    gen: NodeId,
    sinks: Vec<(usize, NodeId)>,
    traffic_stop: SimTime,
}

fn build(seed: u64, traffic_stop: SimTime) -> Harness {
    build_with(seed, traffic_stop, true)
}

/// Like [`build`], but `proxy: false` makes the fabric purely reactive
/// (LearningSwitch only, no proactive routes): with silent sinks every
/// data frame then rides the controller's flood path, which is what
/// makes the fail-standalone vs fail-secure contrast observable.
fn build_with(seed: u64, traffic_stop: SimTime, proxy: bool) -> Harness {
    let mut net = Network::new(seed);
    let apps: Vec<Box<dyn controller::App>> = if proxy {
        vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())]
    } else {
        vec![Box::new(LearningSwitch::new())]
    };
    let ctrl = net.add_node(ControllerNode::new("ctrl", apps));
    let mut fx = FabricSpec::new(PODS as u16, HarmlessSpec::new(ACCESS_PORTS))
        .with_interconnect(Interconnect::SpineSoft)
        .with_arp_proxy(proxy)
        .build(&mut net)
        .expect("valid fabric spec");
    for p in 0..PODS {
        fx.attach_host(&mut net, p, 1).expect("free access port");
    }
    let flows: Vec<FlowSpec> = (1..PODS)
        .map(|p| FlowSpec {
            src_mac: fx.host_mac(0, STATION_PORT),
            dst_mac: fx.host_mac(p, STATION_PORT),
            src_ip: fx.host_ip(0, STATION_PORT),
            dst_ip: fx.host_ip(p, STATION_PORT),
            src_port: 10_000,
            dst_port: 20_000 + p as u16,
            frame_len: 200,
        })
        .collect();
    let pps = PPS_PER_FLOW * flows.len() as f64;
    let gen = net.add_node(Generator::new(
        "gen",
        PortId(0),
        Pattern::Cbr { pps },
        flows,
        TRAFFIC_START,
        traffic_stop,
    ));
    let mut sinks = Vec::new();
    for p in 1..PODS {
        let s = net.add_node(Sink::new(format!("sink{p}")).with_slo(SLO_THRESHOLD));
        sinks.push((p, s));
    }
    Harness {
        net,
        fx,
        ctrl,
        gen,
        sinks,
        traffic_stop,
    }
}

/// Attach the stations — their fabric identities go to the ARP proxy so
/// sink traffic is routed, never flooded.
fn attach_stations(hx: &mut Harness) {
    let gen = hx.gen;
    hx.fx
        .attach_station(&mut hx.net, 0, STATION_PORT, gen)
        .expect("free station port");
    for &(p, s) in &hx.sinks.clone() {
        hx.fx
            .attach_station(&mut hx.net, p, STATION_PORT, s)
            .expect("free station port");
    }
}

fn report(hx: &mut Harness, plan: &'static str) -> Report {
    // Close the SLO window when traffic stops, not when the run ends —
    // otherwise the post-traffic silence reads as one bogus trailing
    // outage on every flow.
    let finish = hx.traffic_stop;
    let flows = hx
        .sinks
        .iter()
        .map(|&(p, s)| {
            if let Some(slo) = hx.net.node_mut::<Sink>(s).slo_mut() {
                slo.finish(finish.as_nanos());
            }
            let sink = hx.net.node_ref::<Sink>(s);
            let slo = sink.slo().expect("sink built with_slo");
            FlowReport {
                dst_pod: p,
                received: sink.received(),
                first_rx: sink.first_rx(),
                downtime_ns: slo.downtime_ns(),
                worst_ns: slo.worst_outage_ns(),
                reconverged_ns: slo.reconverged_at_ns(),
            }
        })
        .collect();
    Report {
        plan,
        stop: finish,
        flows,
        blackholed: hx.net.blackholed_frames(),
    }
}

/// One steady-state scenario: pods pre-configured and under SDN from
/// t = 0, the fault plan injected, optional managers watching listed
/// pods.
fn steady_state(
    plan_name: &'static str,
    window: SimTime,
    managed: &[usize],
    plan: impl FnOnce(&Fabric) -> FaultPlan,
) -> Report {
    let stop = window - SimTime::from_millis(400);
    let mut hx = build(7, stop);
    hx.fx.configure_direct(&mut hx.net);
    let ctrl = hx.ctrl;
    hx.fx.connect_controller(&mut hx.net, ctrl);
    attach_stations(&mut hx);
    for &p in managed {
        let cfg = ManagerConfig::for_instance(hx.fx.pod(p), ctrl);
        hx.net.add_node(HarmlessManager::new(cfg));
    }
    let plan = plan(&hx.fx);
    hx.net.apply_faults(&plan);
    hx.net.run_until(window);
    report(&mut hx, plan_name)
}

/// Migration under live traffic: pods start legacy-only, the generator
/// starts anyway, and two manager waves bring the pods under SDN while
/// the sinks time service establishment.
fn migration_waves(window: SimTime) -> Report {
    let stop = window - SimTime::from_millis(400);
    let mut hx = build(7, stop);
    let ctrl = hx.ctrl;
    // Spine + proxy bookkeeping only; the pods join through managers.
    hx.fx.register_controller(&mut hx.net, ctrl);
    attach_stations(&mut hx);
    let half = SimTime::from_nanos(window.as_nanos() / 2);
    let w1 = hx
        .fx
        .run_migration_wave(&mut hx.net, &[0, 1], ctrl)
        .expect("two-switch pods");
    hx.net.run_until(half);
    assert!(
        hx.fx.wave_done(&hx.net, &w1),
        "wave 1 must finish within half the window"
    );
    let w2 = hx
        .fx
        .run_migration_wave(&mut hx.net, &[2, 3], ctrl)
        .expect("two-switch pods");
    hx.net.run_until(window);
    assert!(hx.fx.wave_done(&hx.net, &w2), "wave 2 must finish");
    report(&mut hx, "migration-waves")
}

// ---------------------------------------------------------------------------
// E9 — control-plane resilience: the fault sits on the controller or its
// channel, never in the data path. Disruption shows up only where the
// slow path matters, and the control-plane counters tell the rest.

/// Control-plane side of an E9 scenario, rendered next to the per-flow
/// SLO rows.
struct CtrlSide {
    plan: &'static str,
    /// Channel impairments: messages sent under the profile, and those
    /// stalled by a loss draw or held by a partition.
    ctrl: CtrlStats,
    switch_deaths: u64,
    failovers: u64,
    promotions: u64,
    standalone_frames: u64,
    secure_dropped: u64,
    /// Converged rule set identical to the fault-free twin run.
    rules_match: Option<bool>,
}

/// Resilience knobs shared by the E9 scenarios: 50 ms probes, dead
/// after 2 unanswered, redial after 50–200 ms backoff.
fn tune_switches(hx: &mut Harness, mode: FailMode) {
    hx.fx.for_each_softswitch(&mut hx.net, |sw| {
        sw.set_keepalive(SimTime::from_millis(50), 2);
        sw.set_backoff(SimTime::from_millis(50), SimTime::from_millis(200));
        sw.set_fail_mode(mode);
    });
}

/// The rule digest of every software datapath, for fault-free-twin
/// comparison.
fn rule_fingerprint(hx: &Harness) -> Vec<u64> {
    let mut switches: Vec<NodeId> = (0..PODS).map(|p| hx.fx.pod(p).ss2).collect();
    switches.push(hx.fx.spine().expect("soft spine").node());
    switches
        .iter()
        .map(|&n| {
            hx.net
                .node_ref::<SoftSwitchNode>(n)
                .datapath()
                .rule_digest()
        })
        .collect()
}

fn ctrl_side(hx: &mut Harness, plan: &'static str, ctrls: &[NodeId]) -> CtrlSide {
    let ctrl = hx.net.ctrl_stats();
    let (mut switch_deaths, mut promotions) = (0, 0);
    for &c in ctrls {
        let n = hx.net.node_ref::<ControllerNode>(c);
        switch_deaths += n.switch_deaths();
        promotions += n.promotions();
    }
    let (mut failovers, mut standalone, mut secure) = (0, 0, 0);
    hx.fx.for_each_softswitch(&mut hx.net, |sw| {
        failovers += sw.failovers();
        standalone += sw.standalone_frames();
        secure += sw.secure_dropped();
    });
    CtrlSide {
        plan,
        ctrl,
        switch_deaths,
        failovers,
        promotions,
        standalone_frames: standalone,
        secure_dropped: secure,
        rules_match: None,
    }
}

/// E9a — crash the master with a warm-standby backup registered (or,
/// with `crash: false`, the fault-free twin the crashed run is
/// compared against).
fn ctrl_failover(window: SimTime, crash: bool) -> (Report, CtrlSide, Vec<u64>) {
    let stop = window - SimTime::from_millis(400);
    let mut hx = build(7, stop);
    hx.fx.configure_direct(&mut hx.net);
    let primary = hx.ctrl;
    hx.net
        .node_mut::<ControllerNode>(primary)
        .set_role(ControllerRole::Master, 1);
    let backup = hx.net.add_node(
        ControllerNode::new(
            "backup",
            vec![Box::new(ArpProxy::new()), Box::new(LearningSwitch::new())],
        )
        .with_role(ControllerRole::Slave, 2),
    );
    hx.fx.connect_controller(&mut hx.net, primary);
    hx.fx.connect_backup_controller(&mut hx.net, backup);
    tune_switches(&mut hx, FailMode::Secure);
    attach_stations(&mut hx);
    if crash {
        hx.net
            .apply_faults(&FaultPlan::new().ctrl_down(FAULT_AT, primary));
    }
    hx.net.run_until(window);
    let plan = if crash {
        "ctrl-crash+backup"
    } else {
        "ctrl-baseline"
    };
    let rep = report(&mut hx, plan);
    let side = ctrl_side(&mut hx, plan, &[primary, backup]);
    let rules = rule_fingerprint(&hx);
    (rep, side, rules)
}

/// E9b — crash the only controller and contrast the two fail modes on
/// a purely reactive fabric whose sinks never speak: every data frame
/// rides the controller's flood path, so the slow path *is* the
/// service. Fail-standalone keeps forwarding with local flood
/// fallback; fail-secure goes dark by design.
fn ctrl_crash_no_backup(window: SimTime, mode: FailMode, plan: &'static str) -> (Report, CtrlSide) {
    let stop = window - SimTime::from_millis(400);
    let mut hx = build_with(7, stop, false);
    hx.fx.configure_direct(&mut hx.net);
    let ctrl = hx.ctrl;
    hx.fx.connect_controller(&mut hx.net, ctrl);
    tune_switches(&mut hx, mode);
    attach_stations(&mut hx);
    hx.net
        .apply_faults(&FaultPlan::new().ctrl_down(FAULT_AT, ctrl));
    hx.net.run_until(window);
    let rep = report(&mut hx, plan);
    let side = ctrl_side(&mut hx, plan, &[ctrl]);
    (rep, side)
}

/// E9c — an impaired control channel from t = 0: a lost message is
/// sent again one RTO later and holds up what follows it, as on
/// OpenFlow's TCP session. Every rule table must converge to the exact
/// fault-free set, and the whole run must be bit-identical for any
/// thread count.
fn ctrl_lossy(
    window: SimTime,
    profile: CtrlProfile,
    threads: Option<usize>,
    plan: &'static str,
) -> (Report, CtrlSide, Vec<u64>, u64) {
    let stop = window - SimTime::from_millis(400);
    let mut hx = build(7, stop);
    hx.fx.configure_direct(&mut hx.net);
    let ctrl = hx.ctrl;
    hx.fx.connect_controller(&mut hx.net, ctrl);
    tune_switches(&mut hx, FailMode::Secure);
    attach_stations(&mut hx);
    hx.net.set_ctrl_profile(profile);
    if let Some(t) = threads {
        let map = hx.fx.shard_map();
        hx.net.set_shards(&map);
        hx.net.set_threads(t);
    }
    hx.net.run_until(window);
    let rep = report(&mut hx, plan);
    let side = ctrl_side(&mut hx, plan, &[ctrl]);
    let rules = rule_fingerprint(&hx);
    let events = hx.net.events_processed();
    (rep, side, rules, events)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.1}ms", ns as f64 / 1e6)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("E4: per-flow disruption under fault schedules, seed 7");
    println!(
        "    (3 flows x 1 kpps from pod 0 to pods 1-3; outage threshold {})",
        SLO_THRESHOLD
    );

    let win = SimTime::from_secs(3);
    let long = SimTime::from_secs(5);
    let mut reports = Vec::new();
    if !quick {
        reports.push(steady_state("baseline", win, &[], |_| FaultPlan::new()));
    }
    reports.push(steady_state("uplink-flap-100ms", win, &[], |fx| {
        let uplink = PortId(fx.pod(1).uplink_port(1) as u16);
        FaultPlan::new().link_flap(FAULT_AT, SimTime::from_millis(100), fx.pod(1).ss2, uplink)
    }));
    if !quick {
        reports.push(steady_state("ss2-power-cycle", win, &[], |fx| {
            FaultPlan::new().reset(FAULT_AT, fx.pod(2).ss2)
        }));
        reports.push(steady_state("legacy-reboot", win, &[], |fx| {
            FaultPlan::new().reset(FAULT_AT, fx.pod(3).legacy)
        }));
        // 2650 ms sits off the manager's 500 ms uptime-poll grid, so the
        // row shows the real detection latency, not a lucky alignment.
        reports.push(steady_state("legacy-reboot+mgmt", long, &[3], |fx| {
            FaultPlan::new().reset(SimTime::from_millis(2650), fx.pod(3).legacy)
        }));
    }
    reports.push(migration_waves(if quick {
        SimTime::from_secs(6)
    } else {
        SimTime::from_secs(8)
    }));

    // E9a: master crash with a warm standby — bounded downtime, zero
    // stale rules, and (proactive routes) zero lost frames.
    let mut sides: Vec<CtrlSide> = Vec::new();
    {
        let (base_rep, _, base_rules) = ctrl_failover(win, false);
        let (rep, mut side, rules) = ctrl_failover(win, true);
        side.rules_match = Some(rules == base_rules);
        assert_eq!(
            side.failovers,
            PODS as u64 + 1,
            "every SS_2 and the soft spine failed over exactly once"
        );
        assert!(side.promotions >= 1, "the backup self-promoted to master");
        assert_eq!(
            side.rules_match,
            Some(true),
            "fail-over must leave the exact fault-free rule set"
        );
        for (f, b) in rep.flows.iter().zip(&base_rep.flows) {
            assert_eq!(
                f.received, b.received,
                "ctrl-crash+backup: flow 0->{} lost frames through the outage",
                f.dst_pod
            );
        }
        reports.push(rep);
        sides.push(side);
    }

    // E9b: crash with no backup — the fail-mode contrast (full runs
    // only; the flood-path fabric is the slowest scenario here).
    if !quick {
        let (rep_a, side_a) =
            ctrl_crash_no_backup(win, FailMode::Standalone, "ctrl-crash-standalone");
        assert!(
            side_a.standalone_frames > 0,
            "fail-standalone served misses via local flood fallback"
        );
        assert!(side_a.switch_deaths == 0 || side_a.failovers == 0);
        reports.push(rep_a);
        sides.push(side_a);

        let (rep_s, side_s) = ctrl_crash_no_backup(win, FailMode::Secure, "ctrl-crash-secure");
        assert!(
            side_s.secure_dropped > 0,
            "fail-secure dropped slow-path misses"
        );
        for f in &rep_s.flows {
            assert!(
                f.downtime_ns > SimTime::from_millis(1500).as_nanos(),
                "ctrl-crash-secure: flow 0->{} must stay dark without a controller",
                f.dst_pod
            );
        }
        reports.push(rep_s);
        sides.push(side_s);
    }

    // E9c: 10% loss + jitter on the control channel. The run must
    // converge to the fault-free rule set and be bit-identical for
    // every thread count.
    {
        let profile = CtrlProfile::lossy(0.10).with_jitter(0.05, SimTime::from_micros(200));
        let (_, _, base_rules, _) =
            ctrl_lossy(win, CtrlProfile::lossless(), None, "ctrl-lossless-baseline");
        let (rep, mut side, rules, events) = ctrl_lossy(win, profile, Some(1), "ctrl-lossy-10pct");
        side.rules_match = Some(rules == base_rules);
        assert_eq!(
            side.rules_match,
            Some(true),
            "lossy channel must converge to the fault-free rule set"
        );
        assert!(
            side.ctrl.dropped > 0,
            "the profile stalled messages one retransmission timeout"
        );
        let thread_counts: &[usize] = if quick { &[2] } else { &[2, 4] };
        for &t in thread_counts {
            let (rep_t, side_t, rules_t, ev_t) =
                ctrl_lossy(win, profile, Some(t), "ctrl-lossy-10pct");
            let rx: Vec<u64> = rep.flows.iter().map(|f| f.received).collect();
            let rx_t: Vec<u64> = rep_t.flows.iter().map(|f| f.received).collect();
            assert_eq!(
                (rx_t, rep_t.blackholed, ev_t, side_t.ctrl.dropped, rules_t),
                (rx, rep.blackholed, events, side.ctrl.dropped, rules.clone()),
                "lossy run must be bit-identical with {t} threads"
            );
        }
        reports.push(rep);
        sides.push(side);
    }

    let mut rows = Vec::new();
    for r in &reports {
        for (i, f) in r.flows.iter().enumerate() {
            rows.push(vec![
                if i == 0 {
                    r.plan.to_string()
                } else {
                    String::new()
                },
                format!("0->{}", f.dst_pod),
                f.received.to_string(),
                f.first_rx.map_or("-".into(), |t| format!("{t}")),
                fmt_ms(f.downtime_ns),
                fmt_ms(f.worst_ns),
                f.reconverged_ns.map_or("-".into(), fmt_ms),
                if i == 0 {
                    r.blackholed.to_string()
                } else {
                    String::new()
                },
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            "disruption vs fault plan",
            &[
                "plan",
                "flow",
                "rx",
                "first-rx",
                "downtime",
                "worst outage",
                "reconverged@",
                "blackholed"
            ],
            &rows,
        )
    );

    // Reconvergence guarantees — these make the bin a CI smoke test. A
    // flow that recovered keeps its last outage end strictly inside the
    // measurement window; a flow still dark when traffic stops accrues a
    // trailing outage ending exactly at the window edge.
    for r in &reports {
        for f in &r.flows {
            assert!(
                f.received > 0,
                "{}: flow 0->{} never received service",
                r.plan,
                f.dst_pod
            );
            // Two plans stay dark by design: an unmanaged legacy reboot
            // (config gone, nobody re-pushes it) and a secure-mode
            // controller crash (misses dropped until a controller
            // returns).
            if r.plan != "legacy-reboot" && r.plan != "ctrl-crash-secure" {
                let still_dark = f.reconverged_ns.is_some_and(|at| at >= r.stop.as_nanos());
                assert!(
                    !still_dark,
                    "{}: flow 0->{} did not reconverge",
                    r.plan, f.dst_pod
                );
            }
        }
    }
    if let Some(r) = reports.iter().find(|r| r.plan == "legacy-reboot") {
        let dark = &r.flows[2]; // pod 3 hosts the rebooted legacy switch
        assert!(
            dark.downtime_ns > SimTime::from_secs(2).as_nanos(),
            "unmanaged legacy reboot must stay dark for the rest of the window"
        );
    }

    let ctrl_rows: Vec<Vec<String>> = sides
        .iter()
        .map(|s| {
            vec![
                s.plan.to_string(),
                s.ctrl.sent.to_string(),
                s.ctrl.dropped.to_string(),
                s.switch_deaths.to_string(),
                s.failovers.to_string(),
                s.promotions.to_string(),
                s.standalone_frames.to_string(),
                s.secure_dropped.to_string(),
                s.rules_match
                    .map_or("-".into(), |b| if b { "yes".into() } else { "NO".into() }),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "E9: control-plane resilience",
            &[
                "plan",
                "ctrl-sent",
                "dropped",
                "sw-deaths",
                "failovers",
                "promoted",
                "standalone-fwd",
                "secure-drop",
                "rules=base"
            ],
            &ctrl_rows,
        )
    );

    println!(
        "Reading: a 100 ms uplink flap costs exactly the flap — routes\n\
         are proactive, so there is nothing to relearn, and the frames\n\
         sent into the dead link are the blackholed count. A softswitch\n\
         power cycle costs one control-channel re-handshake (the ARP\n\
         proxy replays its route table into the fresh datapath) and\n\
         reconverges inside the SLO threshold. A legacy-switch reboot is\n\
         the COTS trap: config is gone and the pod stays dark until the\n\
         management plane notices sysUpTime went backwards and re-pushes\n\
         the plan — without a manager it never recovers. The migration\n\
         rows time service establishment per pod (first-rx) as SDN\n\
         control arrives in waves.\n\
         \n\
         E9: a master crash with a warm standby costs the data plane\n\
         nothing — proactive routes keep forwarding while keepalives\n\
         detect the death, every switch redials the backup, and the\n\
         backup self-promotes and rebuilds the exact fault-free rule\n\
         set (rules=base). Without a backup the fail mode decides the\n\
         outcome on slow-path traffic: fail-standalone floods misses\n\
         locally (standalone-fwd) and service resumes after the\n\
         detection window; fail-secure drops them (secure-drop) and\n\
         stays dark by design. On a channel that loses 10% of its\n\
         messages (dropped: each sent again one RTO later, holding\n\
         up its session behind it) and jitters 5%, the tables converge\n\
         to the lossless rule set with nothing re-sent by the\n\
         controller — bit-identical for 1, 2 and 4 worker threads."
    );
}
