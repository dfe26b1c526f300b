//! Helpers shared by the daemon's integration suites.

// Each suite uses a subset.
#![allow(dead_code)]

use std::net::SocketAddr;
use std::thread::{self, JoinHandle};

use hb_cells::{sc89, Binding, Library};
use hb_io::Frame;
use hb_netlist::{Design, InstRef, ModuleId};
use hb_server::{directives_from_spec, Server, ServerOptions};
use hb_workloads::{random_pipeline, PipelineParams, Workload};

/// Binds a daemon on an ephemeral loopback port and serves it on a
/// thread of its own.
pub fn serve(options: ServerOptions) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", sc89(), options).unwrap();
    let addr = server.local_addr().unwrap();
    (addr, thread::spawn(move || server.run()))
}

/// The seed matrix: three fixed seeds for reproducibility plus an
/// optional fresh one from the environment (`check.sh` passes a random
/// `HB_CHAOS_SEED` and prints it on failure).
pub fn seeds() -> Vec<u64> {
    let mut seeds = vec![0xDAC89, 1, 2];
    if let Some(seed) = std::env::var("HB_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
    {
        seeds.push(seed);
    }
    seeds
}

/// A workload as `.hum` text, boundary timing included.
pub fn hum_text(w: &Workload) -> String {
    hb_io::write_hum_with_timing(&w.design, &w.clocks, &directives_from_spec(&w.spec))
}

/// A transparent-latch pipeline, `stages × width` bits of
/// `gates_per_stage` gates, on the seed every suite shares.
pub fn latch_pipeline(stages: usize, width: usize, gates_per_stage: usize) -> Workload {
    random_pipeline(
        &sc89(),
        PipelineParams {
            stages,
            width,
            gates_per_stage,
            transparent: true,
            period_ns: 14,
            seed: 21,
            imbalance_pct: 30,
        },
    )
}

/// A three-cell flip-flop design named `name`.
pub fn design_text(name: &str) -> String {
    format!(
        "design {name}\n\
         module top\n\
         \x20 port in din clk\n\
         \x20 port out dout\n\
         \x20 inst g0 BUF_X1 A=din Y=n0\n\
         \x20 inst g1 INV_X1 A=n0 Y=n1\n\
         \x20 inst cap DFF D=n1 CK=clk Q=dout\n\
         end\n\
         top top\n\
         clock clk period 10ns rise 0ns fall 5ns\n\
         clockport clk clk\n\
         arrive din clk rise 1ns\n"
    )
}

/// `eco op=scale-net net=NET percent=P`.
pub fn scale_eco(net: &str, percent: u64) -> Frame {
    Frame::new("eco")
        .arg("op", "scale-net")
        .arg("net", net)
        .arg("percent", percent)
}

/// The first leaf instance with drive headroom in its cell family —
/// a deterministic, always-applicable resize target.
pub fn resizable_instance(design: &Design, module: ModuleId, lib: &Library) -> String {
    resizable_instances(design, module, lib)
        .into_iter()
        .next()
        .expect("workload has no resizable instance")
}

/// Every leaf instance with drive headroom in its cell family, in
/// instance order: each can be resized up one step and back down.
pub fn resizable_instances(design: &Design, module: ModuleId, lib: &Library) -> Vec<String> {
    let binding = Binding::new(design, lib);
    let mut out = Vec::new();
    for (_, inst) in design.module(module).instances() {
        let InstRef::Leaf(leaf) = inst.target() else {
            continue;
        };
        let Some(cell) = binding.cell_for_leaf(leaf) else {
            continue;
        };
        let variants = lib.family_variants(lib.cell(cell).family());
        let pos = variants.iter().position(|&v| v == cell).unwrap();
        if pos + 1 < variants.len() {
            out.push(inst.name().to_owned());
        }
    }
    out
}

/// `sc89` plus a faster `_X2` drive variant of `DFF` and `DLATCH` in
/// their families, so that an ECO can resize a synchronising element:
/// shorter element delays, a lighter output stage, a shorter hold and
/// heavier input pins (which moves the loads of the data and control
/// nets too).
pub fn sized_sync_library() -> Library {
    use hb_cells::{Cell, DriveStrength, Function};
    use hb_netlist::{LeafDef, PinDir};
    use hb_units::Time;
    let mut lib = sc89();
    for (family, control) in [("DFF", "CK"), ("DLATCH", "G")] {
        let base = lib.cell(lib.cell_by_name(family).expect("sc89 cell"));
        let mut spec = *base.sync_spec().expect("a sync cell");
        spec.d_cx -= Time::from_ps(120);
        spec.d_dx -= Time::from_ps(80).min(spec.d_dx);
        spec.hold -= Time::from_ps(30);
        spec.output_delay = spec.output_delay.scaled_drive(2);
        let name = format!("{family}_X2");
        let iface = LeafDef::new(name.as_str())
            .pin("D", PinDir::Input)
            .pin(control, PinDir::Input)
            .pin("Q", PinDir::Output);
        let cell = Cell::new(
            iface,
            Function::Sync(spec),
            vec![9, 6, 0],
            DriveStrength(2),
            family,
            14,
        );
        lib.add_cell(cell);
    }
    lib
}
