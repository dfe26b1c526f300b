//! The cluster-sharded slack engine.
//!
//! [`Prepared::compute_slacks`](crate::analysis::Prepared) needs, for
//! every global pass, one forward ready sweep and one backward required
//! sweep. The reference implementation runs both over the *whole*
//! graph per pass; but arcs never leave their cluster and the Section 7
//! pass plans already tell us which clusters participate in which pass,
//! so the real unit of work is one `(cluster, pass)` pair. This module
//! schedules exactly those pairs:
//!
//! * each pair becomes a [`WorkItem`] over the cluster's
//!   [`ClusterShard`] (compact CSR subgraph, local indices), with the
//!   pass-dependent seed positions resolved at build time and only the
//!   replica *offsets* left dynamic;
//! * items are executed by a work-stealing pool on
//!   [`std::thread::scope`] — workers claim items off a shared atomic
//!   counter (largest shards first) and the results are merged on the
//!   calling thread, so the outcome is bit-identical to the sequential
//!   engine at any thread count;
//! * a [`SlackCache`] keyed by each item's dynamic seed vector skips
//!   the sweeps of every cluster whose seeds did not move since the
//!   last evaluation — the incremental layer exploited heavily by
//!   Algorithms 1 and 2, which move only a few replica offsets per
//!   cycle.
//!
//! Seeding, sweeping and the cache are written once over the value
//! [`Algebra`]: [`Engine::evaluate_with`] serves both the numeric
//! driver [`Engine::evaluate`] (metrics, fault hook, worker pool) and
//! the symbolic parametric analysis, which sweeps its misses one at a
//! time, in item order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use hb_clock::{EdgeId, Timeline};
use hb_netlist::NetId;
use hb_obs::{Counter, Histogram};
use hb_sta::{Algebra, Numeric, ShardedGraph, TimingGraph};
use hb_units::{RiseFall, Time};

use crate::analysis::Boundary;
use crate::sync::Replica;

/// A seed whose position depends on a replica's movable offset:
/// the seed value is `base + offset(replicas[k])`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReplicaSeed {
    /// Replica index.
    pub k: u32,
    /// Local node index within the item's shard.
    pub local: u32,
    /// The pass-window position of the reference edge.
    pub base: Time,
}

impl ReplicaSeed {
    /// The seed value at the replica's current offset.
    pub fn at<A: Algebra>(&self, alg: &A, offset: A::Val) -> A::Val {
        alg.add(alg.lift(self.base), offset)
    }
}

/// A fully static boundary seed (primary input or output).
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundarySeed {
    /// Boundary index (into `Prepared::pis` or `Prepared::pos`).
    pub k: u32,
    /// Local node index within the item's shard.
    pub local: u32,
    /// The pass-window position of the reference edge.
    pub base: Time,
    /// The boundary's constant offset from that edge.
    pub offset: Time,
}

impl BoundarySeed {
    /// The seed value.
    pub fn at<A: Algebra>(&self, alg: &A) -> A::Val {
        alg.add_c(alg.lift(self.base), self.offset)
    }
}

/// One `(cluster, pass)` unit of sweep work.
#[derive(Clone, Debug)]
pub(crate) struct WorkItem {
    /// Raw cluster index.
    pub cluster: u32,
    /// Global pass index.
    pub pass: usize,
    /// Hash of everything static that the sweep result depends on:
    /// the shard's timing content plus every resolved seed position.
    /// Combined with the dynamic seed signature, it makes cached
    /// tables reusable across design edits, not just across cycles of
    /// one analysis.
    pub fingerprint: u64,
    /// Ready seeds at replica outputs (assertion positions).
    pub ready_replica_seeds: Vec<ReplicaSeed>,
    /// Ready seeds at primary inputs.
    pub ready_pi_seeds: Vec<BoundarySeed>,
    /// Required seeds at replica data inputs (closure positions);
    /// only present when this item is the replica's assigned pass.
    pub close_replica_seeds: Vec<ReplicaSeed>,
    /// Required seeds at primary outputs assigned to this pass.
    pub close_po_seeds: Vec<BoundarySeed>,
}

/// The swept local tables of one work item.
#[derive(Clone, Debug)]
pub(crate) struct ItemTables<V = Time> {
    /// Local forward ready times.
    pub ready: Vec<RiseFall<V>>,
    /// Local backward required times.
    pub required: Vec<RiseFall<V>>,
}

/// Sweeps a batch of missed items (indices, in item order), returning
/// their tables in the same order.
pub(crate) type BatchSweep<'f, V> = &'f dyn Fn(&[usize]) -> Vec<ItemTables<V>>;

/// The static schedule: shards plus one work item per participating
/// `(cluster, pass)` pair, largest shards first.
pub(crate) struct Engine {
    pub sharded: ShardedGraph,
    pub items: Vec<WorkItem>,
}

/// Process-global engine metrics, resolved once. The engine is too
/// deep to thread a registry handle into, so its counters live in
/// [`hb_obs::global()`]; they mirror the per-cache [`EngineStats`]
/// counters, which stay authoritative for reports.
struct EngineObs {
    scheduled: Counter,
    reused: Counter,
    evaluate: Histogram,
}

fn engine_obs() -> &'static EngineObs {
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let g = hb_obs::global();
        EngineObs {
            scheduled: g.counter(
                "hb_engine_items_scheduled_total",
                "(cluster, pass) evaluations requested of the sweep engine",
            ),
            reused: g.counter(
                "hb_engine_items_reused_total",
                "evaluations answered from the incremental slack cache",
            ),
            evaluate: g.histogram(
                "hb_engine_evaluate_nanoseconds",
                "wall time of one full engine evaluation (all items, all workers)",
            ),
        }
    })
}

/// The window position of an assertion at `edge` in the pass with
/// window start `start`.
pub(crate) fn pos_assert(timeline: &Timeline, start: Time, edge: EdgeId) -> Time {
    (timeline.edge_time(edge) - start).rem_euclid(timeline.overall_period())
}

/// The window position of a closure at `edge` (end-biased).
pub(crate) fn pos_close(timeline: &Timeline, start: Time, edge: EdgeId) -> Time {
    (timeline.edge_time(edge) - start).rem_euclid_end(timeline.overall_period())
}

impl Engine {
    /// Builds the schedule from the prepared pass plans. Seed bases are
    /// resolved here; only replica offsets stay dynamic.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        graph: &TimingGraph,
        timeline: &Timeline,
        passes: &[Time],
        cluster_passes: &[Vec<usize>],
        replicas: &[Replica],
        replica_pass: &[usize],
        pis: &[Boundary],
        pos: &[Boundary],
        po_pass: &[usize],
    ) -> Engine {
        let sharded = ShardedGraph::new(graph);
        let mut items: Vec<WorkItem> = Vec::new();
        let mut index: HashMap<(u32, usize), usize> = HashMap::new();
        for (c, passes_of) in cluster_passes.iter().enumerate() {
            for &p in passes_of {
                index.insert((c as u32, p), items.len());
                items.push(WorkItem {
                    cluster: c as u32,
                    pass: p,
                    fingerprint: 0,
                    ready_replica_seeds: Vec::new(),
                    ready_pi_seeds: Vec::new(),
                    close_replica_seeds: Vec::new(),
                    close_po_seeds: Vec::new(),
                });
            }
        }
        let cluster_of = |net: NetId| graph.cluster_of(net).as_raw();
        for (k, r) in replicas.iter().enumerate() {
            for out in [r.output_net, r.output_bar_net].into_iter().flatten() {
                let c = cluster_of(out);
                for &p in &cluster_passes[c as usize] {
                    let item = &mut items[index[&(c, p)]];
                    item.ready_replica_seeds.push(ReplicaSeed {
                        k: k as u32,
                        local: sharded.local_of(out),
                        base: pos_assert(timeline, passes[p], r.assert_edge),
                    });
                }
            }
            let c = cluster_of(r.data_net);
            let p = replica_pass[k];
            let item = &mut items[index[&(c, p)]];
            item.close_replica_seeds.push(ReplicaSeed {
                k: k as u32,
                local: sharded.local_of(r.data_net),
                base: pos_close(timeline, passes[p], r.close_edge),
            });
        }
        for (k, pi) in pis.iter().enumerate() {
            let c = cluster_of(pi.net);
            for &p in &cluster_passes[c as usize] {
                let item = &mut items[index[&(c, p)]];
                item.ready_pi_seeds.push(BoundarySeed {
                    k: k as u32,
                    local: sharded.local_of(pi.net),
                    base: pos_assert(timeline, passes[p], pi.edge),
                    offset: pi.offset,
                });
            }
        }
        for (k, po) in pos.iter().enumerate() {
            let c = cluster_of(po.net);
            let p = po_pass[k];
            let item = &mut items[index[&(c, p)]];
            item.close_po_seeds.push(BoundarySeed {
                k: k as u32,
                local: sharded.local_of(po.net),
                base: pos_close(timeline, passes[p], po.edge),
                offset: po.offset,
            });
        }
        // Resolve each item's static fingerprint: shard content plus
        // every seed position. Replica seeds keep only their static
        // base here — the movable offsets are covered by the dynamic
        // signature at evaluation time.
        for item in &mut items {
            let shard = sharded.shard(hb_sta::ClusterId::from_raw(item.cluster));
            let mut h = hb_rng::mix64(shard.fingerprint(), item.pass as u64);
            for s in &item.ready_replica_seeds {
                h = hb_rng::mix64(h, 1);
                h = hb_rng::mix64(h, (s.k as u64) << 32 | s.local as u64);
                h = hb_rng::mix64(h, s.base.as_ps() as u64);
            }
            for s in &item.ready_pi_seeds {
                h = hb_rng::mix64(h, 2);
                h = hb_rng::mix64(h, (s.k as u64) << 32 | s.local as u64);
                h = hb_rng::mix64(h, s.at(&Numeric).as_ps() as u64);
            }
            for s in &item.close_replica_seeds {
                h = hb_rng::mix64(h, 3);
                h = hb_rng::mix64(h, (s.k as u64) << 32 | s.local as u64);
                h = hb_rng::mix64(h, s.base.as_ps() as u64);
            }
            for s in &item.close_po_seeds {
                h = hb_rng::mix64(h, 4);
                h = hb_rng::mix64(h, (s.k as u64) << 32 | s.local as u64);
                h = hb_rng::mix64(h, s.at(&Numeric).as_ps() as u64);
            }
            item.fingerprint = h;
        }
        // Schedule the heaviest sweeps first so the pool drains evenly.
        items.sort_by_key(|it| {
            std::cmp::Reverse(
                sharded
                    .shard(hb_sta::ClusterId::from_raw(it.cluster))
                    .arc_count(),
            )
        });
        Engine { sharded, items }
    }

    /// Seeds and sweeps one item at the replica offsets `offs`. In the
    /// numeric instance this is the reference engine's per-pass seeding
    /// and the dense sweeps, operation for operation.
    pub fn compute_item<A: Algebra>(
        &self,
        alg: &mut A,
        item: &WorkItem,
        offs: &[(A::Val, A::Val)],
    ) -> ItemTables<A::Val> {
        let shard = self
            .sharded
            .shard(hb_sta::ClusterId::from_raw(item.cluster));
        let mut ready = shard.table(A::NEG_INF);
        for s in &item.ready_replica_seeds {
            let at = RiseFall::splat(s.at(alg, offs[s.k as usize].0));
            let slot = &mut ready[s.local as usize];
            *slot = alg.max_rf(*slot, at);
        }
        for s in &item.ready_pi_seeds {
            let at = RiseFall::splat(s.at(alg));
            let slot = &mut ready[s.local as usize];
            *slot = alg.max_rf(*slot, at);
        }
        shard.sweep_ready_max(alg, &mut ready);

        let mut required = shard.table(A::INF);
        for s in &item.close_replica_seeds {
            let at = RiseFall::splat(s.at(alg, offs[s.k as usize].1));
            let slot = &mut required[s.local as usize];
            *slot = alg.min_rf(*slot, at);
        }
        for s in &item.close_po_seeds {
            let at = RiseFall::splat(s.at(alg));
            let slot = &mut required[s.local as usize];
            *slot = alg.min_rf(*slot, at);
        }
        shard.sweep_required(alg, &mut required);

        ItemTables { ready, required }
    }

    /// Evaluates every item at the replica offsets `offs`, reusing
    /// cached tables for items whose seed signature did not change.
    /// Misses are swept in item order as they are met; with `batch`,
    /// they are collected and handed over at once instead (`batch`
    /// returns their tables in the order given). Results are positionally
    /// indexed by item.
    pub fn evaluate_with<A: Algebra>(
        &self,
        alg: &mut A,
        offs: &[(A::Val, A::Val)],
        cache: &mut SlackCache<A::Val>,
        batch: Option<BatchSweep<'_, A::Val>>,
    ) -> Vec<Arc<ItemTables<A::Val>>> {
        let n = self.items.len();
        let mut tables: Vec<Option<Arc<ItemTables<A::Val>>>> = Vec::with_capacity(n);
        let mut todo: Vec<(usize, Vec<A::Val>)> = Vec::new();
        let mut swept = 0;
        for (i, item) in self.items.iter().enumerate() {
            // The dynamic seed values — the cache key: two items with
            // equal signatures are guaranteed to sweep to equal tables.
            let assert = item
                .ready_replica_seeds
                .iter()
                .map(|s| s.at(alg, offs[s.k as usize].0));
            let close = item
                .close_replica_seeds
                .iter()
                .map(|s| s.at(alg, offs[s.k as usize].1));
            let sig: Vec<A::Val> = assert.chain(close).collect();
            match cache.entries.get(&(item.cluster, item.pass as u32)) {
                Some(e) if e.fingerprint == item.fingerprint && e.sig == sig => {
                    tables.push(Some(e.tables.clone()));
                }
                _ if batch.is_some() => {
                    tables.push(None);
                    todo.push((i, sig));
                }
                _ => {
                    let t = Arc::new(self.compute_item(alg, item, offs));
                    cache.insert(item, sig, t.clone());
                    tables.push(Some(t));
                    swept += 1;
                }
            }
        }
        if let Some(batch) = batch {
            let misses: Vec<usize> = todo.iter().map(|&(i, _)| i).collect();
            for ((i, sig), t) in todo.into_iter().zip(batch(&misses)) {
                let t = Arc::new(t);
                cache.insert(&self.items[i], sig, t.clone());
                tables[i] = Some(t);
                swept += 1;
            }
        }
        cache.scheduled += n as u64;
        cache.reused += (n - swept) as u64;
        tables
            .into_iter()
            .map(|t| t.expect("every item evaluated"))
            .collect()
    }

    /// The numeric evaluation: [`Engine::evaluate_with`] in the
    /// [`Numeric`] instance, with the misses swept on `threads`
    /// work-stealing workers. The merge is positional, so the outcome
    /// is bit-identical at any thread count.
    pub fn evaluate(
        &self,
        offs: &[(Time, Time)],
        cache: &mut SlackCache,
        threads: usize,
    ) -> Vec<Arc<ItemTables>> {
        // Chaos hook: lets the fault harness prove a panic deep inside
        // a sweep cannot brick a resident session. Compiles down to
        // one relaxed atomic load when no global plan is installed.
        if hb_fault::global_fires(hb_fault::ENGINE_SWEEP_PANIC) {
            panic!("injected fault: {}", hb_fault::ENGINE_SWEEP_PANIC);
        }
        let obs = engine_obs();
        let _eval_span = obs.evaluate.span();
        let before = cache.stats();
        let sweep = |todo: &[usize]| self.sweep_numeric(offs, todo, threads);
        let tables = self.evaluate_with(&mut Numeric, offs, cache, Some(&sweep));
        let delta = cache.stats().since(before);
        obs.scheduled.add(delta.items_scheduled);
        obs.reused.add(delta.items_reused);
        tables
    }

    /// Sweeps the numeric misses `todo`, on up to `threads` workers
    /// claiming items off a shared counter, each sweep under its
    /// per-pass span timer when the process is armed. Tables come back
    /// in `todo` order.
    fn sweep_numeric(
        &self,
        offs: &[(Time, Time)],
        todo: &[usize],
        threads: usize,
    ) -> Vec<ItemTables> {
        // Per-pass sweep histograms, resolved outside the hot loops and
        // only when the process is armed: the disarmed path never
        // touches the registry or the clock per item.
        let pass_hists: Option<HashMap<usize, Histogram>> = hb_obs::armed().then(|| {
            let mut hists: HashMap<usize, Histogram> = HashMap::new();
            for &i in todo {
                let p = self.items[i].pass;
                hists.entry(p).or_insert_with(|| {
                    hb_obs::global().histogram_with(
                        "hb_engine_sweep_nanoseconds",
                        "duration of one (cluster, pass) sweep item, by global pass",
                        &[("pass", &p.to_string())],
                    )
                });
            }
            hists
        });
        let timed = |i: usize| {
            let item = &self.items[i];
            let _span = pass_hists.as_ref().map(|h| h[&item.pass].span());
            self.compute_item(&mut Numeric, item, offs)
        };

        let threads = threads.min(todo.len()).max(1);
        if threads <= 1 {
            return todo.iter().map(|&i| timed(i)).collect();
        }
        let next = AtomicUsize::new(0);
        let mut swept: Vec<(usize, ItemTables)> = std::thread::scope(|scope| {
            let next = &next;
            let timed = &timed;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            let t = next.fetch_add(1, Ordering::Relaxed);
                            if t >= todo.len() {
                                break;
                            }
                            out.push((t, timed(todo[t])));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        swept.sort_unstable_by_key(|&(t, _)| t);
        swept.into_iter().map(|(_, tables)| tables).collect()
    }
}

/// One memoised `(cluster, pass)` sweep result.
struct CacheEntry<V> {
    /// Static fingerprint of the shard and seed positions that
    /// produced the tables.
    fingerprint: u64,
    /// Dynamic seed signature that produced the tables.
    sig: Vec<V>,
    tables: Arc<ItemTables<V>>,
}

/// Memo of the last swept tables per `(cluster, pass)` pair, keyed by
/// the item's static fingerprint and dynamic seed signature. This is
/// the dirty-cluster tracking: a cluster whose replica offsets moved
/// gets a different signature and is re-swept; a cluster whose arc
/// delays or seed structure changed (an ECO edit) gets a different
/// fingerprint and is re-swept; everything else is reused.
///
/// Because entries are keyed by content rather than by item position,
/// one cache may outlive the [`Analyzer`] that filled it: a resident
/// session can re-prepare an edited design and hand the same cache to
/// [`Analyzer::analyze_with_cache`](crate::Analyzer::analyze_with_cache),
/// paying sweeps only for the clusters the edit actually touched.
///
/// The cache is generic over the value type it memoises; the public
/// instantiation is the numeric one (`V = Time`). The parametric
/// analysis keeps a symbolic one per parameter region: an affine
/// identity on a region restricts to any subregion, so its entries stay
/// valid as the region shrinks.
pub struct SlackCache<V = Time> {
    entries: HashMap<(u32, u32), CacheEntry<V>>,
    /// Item evaluations requested over the cache's lifetime.
    pub(crate) scheduled: u64,
    /// Evaluations answered from cache (clean clusters).
    pub(crate) reused: u64,
}

impl<V> Default for SlackCache<V> {
    fn default() -> Self {
        SlackCache {
            entries: HashMap::new(),
            scheduled: 0,
            reused: 0,
        }
    }
}

impl SlackCache {
    /// An empty cache. It adapts to whatever engine uses it, so one
    /// cache can serve successive analyses of successively edited
    /// designs.
    pub fn new() -> SlackCache {
        SlackCache::default()
    }
}

impl<V> SlackCache<V> {
    /// The number of memoised `(cluster, pass)` sweep results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no memoised sweeps.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn insert(&mut self, item: &WorkItem, sig: Vec<V>, tables: Arc<ItemTables<V>>) {
        let entry = CacheEntry {
            fingerprint: item.fingerprint,
            sig,
            tables,
        };
        self.entries.insert((item.cluster, item.pass as u32), entry);
    }

    /// Drops every memoised sweep but keeps the lifetime counters.
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
    }

    /// The reuse counters, for reporting.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            items_scheduled: self.scheduled,
            items_reused: self.reused,
        }
    }
}

/// Work counters of the sharded engine over one analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total `(cluster, pass)` evaluations requested by the algorithms.
    pub items_scheduled: u64,
    /// Evaluations served from the incremental cache without sweeping.
    pub items_reused: u64,
}

impl EngineStats {
    /// Counters accumulated since an `earlier` snapshot of the same
    /// cache — the per-analysis delta when a cache outlives a session.
    pub fn since(self, earlier: EngineStats) -> EngineStats {
        EngineStats {
            items_scheduled: self.items_scheduled - earlier.items_scheduled,
            items_reused: self.items_reused - earlier.items_reused,
        }
    }

    /// Evaluations that actually ran the sweeps (scheduled − reused).
    pub fn items_swept(&self) -> u64 {
        self.items_scheduled - self.items_reused
    }
}
