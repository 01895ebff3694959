//! E10 — "cost-effective", "without any substantial price tag", and the
//! port-density argument against pure software switching.
//!
//! CAPEX per OpenFlow-enabled port for the three acquisition strategies,
//! across deployment sizes, with the default 2017-era price catalog.
//!
//! `cargo run --release -p bench --bin exp_cost`

use bench::render_table;
use harmless::cost::{
    cots_capex, harmless_capex, harmless_greenfield_capex, software_only_capex, PriceCatalog,
};

fn main() {
    let c = PriceCatalog::default();
    println!("E10: CAPEX model (USD), default catalog:");
    println!(
        "  legacy 48p switch ${:.0} (sunk), COTS SDN 48p ${:.0}, server ${:.0},\n\
         2x10G NIC ${:.0}, max {} NIC ports/server, {} access ports per HARMLESS server",
        c.legacy_switch_48p,
        c.cots_sdn_48p,
        c.server,
        c.nic_dual_10g,
        c.max_nic_ports_per_server,
        c.access_ports_per_server
    );

    let mut rows = Vec::new();
    for ports in [8u16, 24, 48, 96, 192, 384] {
        let h = harmless_capex(ports, &c);
        let g = harmless_greenfield_capex(ports, &c);
        let cots = cots_capex(ports, &c);
        let sw = software_only_capex(ports, &c);
        rows.push(vec![
            ports.to_string(),
            format!("{:.0}", h.capex),
            format!("{:.1}", h.per_port()),
            format!("{:.0}", g.capex),
            format!("{:.0}", cots.capex),
            format!("{:.1}", cots.per_port()),
            format!("{:.0}", sw.capex),
            format!("{:.1}", sw.per_port()),
            format!("{:.1}x", cots.capex / h.capex),
        ]);
    }
    println!(
        "{}",
        render_table(
            "CAPEX to OpenFlow-enable N ports",
            &[
                "ports",
                "harmless",
                "$/port",
                "harmless-greenfield",
                "cots-sdn",
                "$/port",
                "software-only",
                "$/port",
                "cots/harmless",
            ],
            &rows,
        )
    );

    println!(
        "Reading: migrating an existing access network with HARMLESS costs\n\
         ~${:.0}/port (one server+NIC per 48-port switch) vs ~${:.0}/port for\n\
         rip-and-replace COTS SDN — a {:.1}x gap that does not close with\n\
         scale. Pure software switching is dearer still because chassis\n\
         NIC slots cap port density ({} ports/server), the paper's 'lower\n\
         league' remark.",
        harmless_capex(48, &c).per_port(),
        cots_capex(48, &c).per_port(),
        cots_capex(48, &c).capex / harmless_capex(48, &c).capex,
        c.max_nic_ports_per_server
    );
}
