//! Property-style tests of the block-analysis engine on random
//! generated networks, driven by a seeded deterministic generator.

use hb_cells::{sc89, Binding};
use hb_netlist::{Design, ModuleId, NetId, PinDir};
use hb_rng::SmallRng;
use hb_sta::analysis::{
    propagate_ready_max, propagate_ready_min, propagate_required, slack_table, table,
};
use hb_sta::paths::{critical_path, enumerate_max_arrival};
use hb_sta::{Numeric, ShardedGraph, TimingGraph};
use hb_units::{RiseFall, Time, Transition};

const CASES: u64 = 64;

/// Builds a random DAG of library gates over `n` levels; returns the
/// design and the input net.
fn random_dag(gate_picks: &[u8], fan_picks: &[u8]) -> (Design, ModuleId, NetId) {
    let lib = sc89();
    let mut d = Design::new("p");
    lib.declare_into(&mut d).unwrap();
    let m = d.add_module("top").unwrap();
    let a = d.add_net(m, "a").unwrap();
    d.add_port(m, "a", PinDir::Input, a).unwrap();
    let cells = ["INV_X1", "BUF_X1", "NAND2_X1", "NOR2_X1", "XOR2_X1"];
    let mut pool = vec![a];
    for (i, (&g, &f)) in gate_picks.iter().zip(fan_picks).enumerate() {
        let cell = cells[g as usize % cells.len()];
        let leaf = d.leaf_by_name(cell).unwrap();
        let y = d.add_net(m, format!("w{i}")).unwrap();
        let u = d.add_leaf_instance(m, format!("u{i}"), leaf).unwrap();
        let in1 = pool[f as usize % pool.len()];
        d.connect(m, u, "A", in1).unwrap();
        if d.leaf(leaf).pin_by_name("B").is_some() {
            let in2 = pool[(f as usize / 2) % pool.len()];
            d.connect(m, u, "B", in2).unwrap();
        }
        d.connect(m, u, "Y", y).unwrap();
        pool.push(y);
    }
    d.set_top(m).unwrap();
    (d, m, a)
}

fn random_picks(rng: &mut SmallRng, lo: usize, hi: usize) -> (Vec<u8>, Vec<u8>) {
    let n = rng.gen_range(lo..hi);
    let gates = (0..n).map(|_| rng.gen_range(0..256) as u8).collect();
    let fans = (0..n).map(|_| rng.gen_range(0..256) as u8).collect();
    (gates, fans)
}

/// The block method and exhaustive enumeration agree exactly.
#[test]
fn block_equals_enumeration() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x4001 + case);
        let (gates, fans) = random_picks(&mut rng, 1, 24);
        let (d, m, a) = random_dag(&gates, &fans);
        let lib = sc89();
        let binding = Binding::new(&d, &lib);
        let g = TimingGraph::build(&d, m, &binding, &lib).unwrap();

        let mut block = table(&g, Time::NEG_INF);
        block[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&g, &mut block);
        let (enumerated, stats) = enumerate_max_arrival(&g, &[(a, RiseFall::ZERO)], u64::MAX / 2);
        assert!(!stats.truncated);
        assert_eq!(enumerated, block);
    }
}

/// Minimum arrivals never exceed maximum arrivals on reached nets.
#[test]
fn min_arrival_below_max() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x4002 + case);
        let (gates, fans) = random_picks(&mut rng, 1, 24);
        let (d, m, a) = random_dag(&gates, &fans);
        let lib = sc89();
        let binding = Binding::new(&d, &lib);
        let g = TimingGraph::build(&d, m, &binding, &lib).unwrap();

        let mut rmax = table(&g, Time::NEG_INF);
        let mut rmin = table(&g, Time::INF);
        rmax[a.as_raw() as usize] = RiseFall::ZERO;
        rmin[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&g, &mut rmax);
        propagate_ready_min(&g, &mut rmin);
        for i in 0..g.node_count() {
            for tr in Transition::BOTH {
                if rmax[i][tr].is_finite() {
                    assert!(rmin[i][tr] <= rmax[i][tr]);
                }
            }
        }
    }
}

/// Every critical path is explainable: monotone arrivals, endpoints
/// consistent, and the block-method invariant that the path slack is
/// constant along a critical path. Traced on the endpoint's shard over
/// a local sweep, every reached endpoint gives the dense tracer's path,
/// step by step.
#[test]
fn critical_paths_are_consistent() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x4003 + case);
        let (gates, fans) = random_picks(&mut rng, 2, 24);
        let (d, m, a) = random_dag(&gates, &fans);
        let lib = sc89();
        let binding = Binding::new(&d, &lib);
        let g = TimingGraph::build(&d, m, &binding, &lib).unwrap();

        let mut ready = table(&g, Time::NEG_INF);
        ready[a.as_raw() as usize] = RiseFall::ZERO;
        propagate_ready_max(&g, &mut ready);

        // Pick the globally worst (net, transition) as the endpoint.
        let mut worst = (a, Transition::Rise, Time::NEG_INF);
        for (id, _) in d.module(m).nets() {
            for tr in Transition::BOTH {
                let t = ready[id.as_raw() as usize][tr];
                if t.is_finite() && t > worst.2 {
                    worst = (id, tr, t);
                }
            }
        }
        if !worst.2.is_finite() {
            continue;
        }
        let path = critical_path(&g, &ready, worst.0, worst.1).expect("reached");
        assert_eq!(path.source(), a, "worst path originates at the only seed");
        assert_eq!(path.sink(), worst.0);
        assert_eq!(path.delay(), worst.2);
        for pair in path.steps.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }

        // Slack constancy along the critical path when the endpoint is
        // required exactly at its arrival.
        let mut required = table(&g, Time::INF);
        required[worst.0.as_raw() as usize] = RiseFall::splat(worst.2);
        propagate_required(&g, &mut required);
        let slacks = slack_table(&ready, &required);
        for step in &path.steps {
            let s = slacks[step.net.as_raw() as usize][step.transition];
            assert_eq!(s, Time::ZERO, "critical path has zero slack throughout");
        }

        let sharded = ShardedGraph::new(&g);
        for (id, _) in d.module(m).nets() {
            let shard = sharded.shard(sharded.cluster_of(id));
            let mut local = shard.table(Time::NEG_INF);
            if sharded.cluster_of(a) == shard.cluster() {
                local[sharded.local_of(a) as usize] = RiseFall::ZERO;
            }
            shard.sweep_ready_max(&mut Numeric, &mut local);
            for tr in Transition::BOTH {
                let traced = shard.critical_path(&local, sharded.local_of(id), tr);
                assert_eq!(
                    traced,
                    critical_path(&g, &ready, id, tr),
                    "case {case}: net {id} {tr:?}"
                );
            }
        }
    }
}
