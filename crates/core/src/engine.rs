//! The cluster-sharded slack engine.
//!
//! A slack evaluation needs, for every global pass, one forward ready
//! sweep and one backward required sweep. The reference implementation
//! runs both over the *whole* graph per pass; but arcs never leave their
//! cluster and the Section 7 pass plans already tell us which clusters
//! participate in which pass, so the real unit of work is one
//! `(cluster, pass)` pair. This module schedules exactly those pairs:
//!
//! * each pair becomes a [`WorkItem`] over the cluster's
//!   [`ClusterShard`] (compact CSR subgraph, local indices), with the
//!   pass-dependent seed positions resolved at build time and only the
//!   replica *offsets* left dynamic;
//! * an evaluation starts from the previous one of the same analysis
//!   ([`Cycles`]): an item none of whose seed replicas moved is carried
//!   over untouched, and only the terminals that changed items feed are
//!   recomputed;
//! * the remaining items are looked up in a [`SlackCache`] keyed by
//!   each item's static fingerprint and dynamic seed signature, and the
//!   misses are swept by a work-stealing pool on [`std::thread::scope`]
//!   — workers claim items off a shared atomic counter (largest shards
//!   first) and the results are merged on the calling thread, so the
//!   outcome is bit-identical to the sequential engine at any thread
//!   count.
//!
//! An intermediate cycle of Algorithm 1 or 2 reads an item only at its
//! seed nodes, so the cache keeps two resolutions: one value per seed
//! for every version of an item the last analysis used, and the full
//! tables only for the item's newest sweep and for the versions a
//! report view read. A report view ([`Engine::materialise_with`]) takes
//! full tables from the cache or re-sweeps them.
//!
//! Seeding, sweeping, the cache and the incremental cycles are written
//! once over the value [`Algebra`]: [`Engine::evaluate_with`] serves
//! both the numeric entry point [`Engine::evaluate`] (metrics, fault hook,
//! worker pool) and the symbolic parametric analysis, which sweeps its
//! misses one at a time, in item order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use hb_clock::{EdgeId, Timeline};
use hb_netlist::NetId;
use hb_obs::{Counter, Histogram};
use hb_sta::{Algebra, Numeric, ShardedGraph, TimingGraph};
use hb_units::{RiseFall, Time};

use crate::analysis::{Boundary, Terminals};
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
    /// Position of the item's first per-seed value in an evaluation's
    /// flat per-seed table. The item's values are, in order: the
    /// arrival at each closing replica seed, the node slack at each
    /// asserting replica seed and at each primary input, and the
    /// arrival at each primary output.
    pub seeds_at: u32,
}

impl WorkItem {
    /// The number of per-seed values.
    fn seed_count(&self) -> usize {
        self.close_replica_seeds.len()
            + self.ready_replica_seeds.len()
            + self.ready_pi_seeds.len()
            + self.close_po_seeds.len()
    }

    /// The dynamic seed values at the replica offsets `offs` — the
    /// cache key: equal fingerprints and equal signatures sweep to
    /// equal tables.
    fn signature<A: Algebra>(&self, alg: &A, offs: &[(A::Val, A::Val)]) -> Vec<A::Val> {
        let assert = self
            .ready_replica_seeds
            .iter()
            .map(|s| s.at(alg, offs[s.k as usize].0));
        let close = self
            .close_replica_seeds
            .iter()
            .map(|s| s.at(alg, offs[s.k as usize].1));
        let mut sig = Vec::with_capacity(self.sig_len() + self.seed_count());
        sig.extend(assert.chain(close));
        sig
    }

    /// The signature length.
    fn sig_len(&self) -> usize {
        self.ready_replica_seeds.len() + self.close_replica_seeds.len()
    }

    /// The cache key.
    fn key(&self) -> (u32, u32) {
        (self.cluster, self.pass as u32)
    }

    /// The terminal (report order, with `replicas` replicas and `pis`
    /// primary inputs) each per-seed value feeds, in value order.
    fn terminals(&self, replicas: u32, pis: u32) -> impl Iterator<Item = u32> + '_ {
        let n = replicas;
        (self.close_replica_seeds.iter().map(|s| s.k))
            .chain(self.ready_replica_seeds.iter().map(move |s| n + s.k))
            .chain(self.ready_pi_seeds.iter().map(move |s| 2 * n + s.k))
            .chain(self.close_po_seeds.iter().map(move |s| 2 * n + pis + s.k))
    }
}

/// The swept local tables of one work item.
#[derive(Clone, Debug)]
pub(crate) struct ItemTables<V = Time> {
    /// Local forward ready times.
    pub ready: Vec<RiseFall<V>>,
    /// Local backward required times.
    pub required: Vec<RiseFall<V>>,
}

/// Sweeps a batch of items (indices, in item order) at the given
/// replica offsets, returning their tables in the same order.
pub(crate) type BatchSweep<'f, V> = &'f dyn Fn(&[(V, V)], &[usize]) -> Vec<ItemTables<V>>;

/// Rows of values packed into one array.
#[derive(Debug)]
struct Csr<T = u32> {
    heads: Vec<u32>,
    values: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Packs `(row, value)` pairs into `rows` rows, keeping the pairs'
    /// order within each row.
    fn new(rows: usize, pairs: &[(u32, T)]) -> Csr<T> {
        let mut heads = vec![0u32; rows + 1];
        for &(r, _) in pairs {
            heads[r as usize + 1] += 1;
        }
        for r in 0..rows {
            heads[r + 1] += heads[r];
        }
        let mut fill = heads.clone();
        // Any values of the right length; each is overwritten below.
        let mut values: Vec<T> = pairs.iter().map(|&(_, v)| v).collect();
        for &(r, v) in pairs {
            values[fill[r as usize] as usize] = v;
            fill[r as usize] += 1;
        }
        Csr { heads, values }
    }

    fn row(&self, r: usize) -> &[T] {
        &self.values[self.heads[r] as usize..self.heads[r + 1] as usize]
    }
}

/// Where each net's values sit in the per-item tables of one engine,
/// for readers that outlive it (a report's constraints).
#[derive(Debug)]
pub(crate) struct NetItems {
    /// Per net: its cluster and its local index there.
    at: Vec<(u32, u32)>,
    /// Per cluster: its items as `(pass, item)`.
    items: Csr<(u32, u32)>,
}

impl NetItems {
    /// The item (index) holding `net` in pass `pass`, and the net's
    /// local index there; `None` when its cluster is not in the pass.
    pub fn get(&self, pass: usize, net: NetId) -> Option<(usize, usize)> {
        let (c, local) = self.at[net.as_raw() as usize];
        let row = self.items.row(c as usize);
        let &(_, item) = row.iter().find(|&&(p, _)| p as usize == pass)?;
        Some((item as usize, local as usize))
    }
}

/// The static schedule: shards plus one work item per participating
/// `(cluster, pass)` pair, largest shards first, and the index from
/// terminals to the per-seed values that feed them.
pub(crate) struct Engine {
    pub sharded: ShardedGraph,
    pub items: Vec<WorkItem>,
    /// Per terminal, in report order (replica inputs, replica outputs,
    /// primary inputs, primary outputs): the flat positions of the
    /// per-seed values it folds, in item order. A replica input and a
    /// primary output have exactly one; a replica output or a primary
    /// input has one per pass of its cluster(s).
    feeds: Csr,
    /// Per flat per-seed position: its item.
    seed_item: Vec<u32>,
    replicas: usize,
    pis: usize,
    pos: usize,
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

/// The incremental state of one analysis call: the replica offsets,
/// the cache version serving each item, the per-seed values and the
/// terminal slacks of its previous evaluation.
///
/// It is owned by the analysis call, never by a [`SlackCache`]: its
/// contents are positional (item and terminal indices of one
/// [`Engine`]), so a panic mid-analysis or a cache handed to another
/// analyzer can never carry them over.
pub(crate) struct Cycles<V = Time> {
    /// Offsets of the previous evaluation (empty before the first).
    offs: Vec<(V, V)>,
    /// Per item: the index of its cache version in use.
    held: Vec<u32>,
    /// Per-seed values, flat (see [`WorkItem::seeds_at`]).
    seeds: Vec<V>,
    /// Terminal slacks of the previous evaluation.
    pub terms: Terminals<V>,
}

impl<V: Copy> Cycles<V> {
    /// The state before the first evaluation of `engine`.
    pub fn new<A: Algebra<Val = V>>(engine: &Engine) -> Cycles<V> {
        Cycles {
            offs: Vec::new(),
            held: vec![0; engine.items.len()],
            seeds: vec![A::INF; engine.seed_item.len()],
            terms: Terminals::unset(engine.replicas, engine.pis, engine.pos, A::INF),
        }
    }
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
                    seeds_at: 0,
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
        // Lay out the per-seed values in item order and index, per
        // terminal, the values that feed it.
        let (n, n_pi) = (replicas.len() as u32, pis.len() as u32);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut seed_item: Vec<u32> = Vec::new();
        for (i, item) in items.iter_mut().enumerate() {
            let at = seed_item.len() as u32;
            item.seeds_at = at;
            for (j, t) in item.terminals(n, n_pi).enumerate() {
                pairs.push((t, at + j as u32));
            }
            seed_item.resize(seed_item.len() + item.seed_count(), i as u32);
        }
        let feeds = Csr::new(2 * replicas.len() + pis.len() + pos.len(), &pairs);
        Engine {
            sharded,
            items,
            feeds,
            seed_item,
            replicas: replicas.len(),
            pis: pis.len(),
            pos: pos.len(),
        }
    }

    /// The per-net index into this engine's item tables.
    pub fn net_items(&self) -> NetItems {
        let sharded = &self.sharded;
        let at = (0..sharded.node_count() as u32)
            .map(NetId::from_raw)
            .map(|net| (sharded.cluster_of(net).as_raw(), sharded.local_of(net)))
            .collect();
        let items: Vec<(u32, (u32, u32))> = (self.items.iter().enumerate())
            .map(|(i, item)| (item.cluster, (item.pass as u32, i as u32)))
            .collect();
        NetItems {
            at,
            items: Csr::new(self.sharded.shard_count(), &items),
        }
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

    /// Writes the values an intermediate cycle reads of one swept item
    /// to `out`, in [`WorkItem::seeds_at`] order: the arrival at a
    /// closing seed, the node slack at an asserting one.
    fn seed_values<A: Algebra>(
        alg: &mut A,
        item: &WorkItem,
        t: &ItemTables<A::Val>,
        out: &mut [A::Val],
    ) {
        let closing = (item.close_replica_seeds.iter().map(|s| (s.local, true)))
            .chain(item.ready_replica_seeds.iter().map(|s| (s.local, false)))
            .chain(item.ready_pi_seeds.iter().map(|s| (s.local, false)))
            .chain(item.close_po_seeds.iter().map(|s| (s.local, true)));
        for (slot, (l, closing)) in out.iter_mut().zip(closing) {
            let l = l as usize;
            *slot = match closing {
                true => alg.worst(t.ready[l]),
                false => alg.slack(t.required[l], t.ready[l]),
            };
        }
    }

    /// Caches a swept item as its newest version and records its
    /// per-seed values in `cycles`.
    fn store<A: Algebra>(
        &self,
        alg: &mut A,
        i: usize,
        sig: Vec<A::Val>,
        tables: ItemTables<A::Val>,
        cycles: &mut Cycles<A::Val>,
        cache: &mut SlackCache<A::Val>,
    ) {
        let item = &self.items[i];
        let at = item.seeds_at as usize;
        Self::seed_values(
            alg,
            item,
            &tables,
            &mut cycles.seeds[at..at + item.seed_count()],
        );
        let per_seed = |t: &ItemTables<A::Val>| {
            let mut out = vec![A::INF; item.seed_count()];
            Self::seed_values(alg, item, t, &mut out);
            out.into_boxed_slice()
        };
        cycles.held[i] = cache.insert(item, sig, Arc::new(tables), per_seed);
    }

    /// Evaluates every item at the replica offsets `offs`, starting from
    /// the previous evaluation in `cycles` (a fresh [`Cycles`] evaluates
    /// everything):
    ///
    /// * an item none of whose seed replicas moved is carried over — no
    ///   signature, no cache probe;
    /// * every other item is served from `cache` when a version with its
    ///   fingerprint and seed signature exists, and swept otherwise: in
    ///   item order as met, or, with `batch`, all at once;
    /// * only the terminals the changed items feed are recomputed, each
    ///   folding its feeding values in item order.
    ///
    /// Every item counts as scheduled, every unswept one as reused.
    pub fn evaluate_with<A: Algebra>(
        &self,
        alg: &mut A,
        offs: Vec<(A::Val, A::Val)>,
        cycles: &mut Cycles<A::Val>,
        cache: &mut SlackCache<A::Val>,
        batch: Option<BatchSweep<'_, A::Val>>,
    ) {
        let n = self.items.len();
        let dirty: Vec<usize> = if cycles.offs.is_empty() {
            (0..n).collect()
        } else {
            // The items a replica seeds are those feeding its output
            // terminal (assertion) and its input terminal (closure).
            let mut dirty = Vec::new();
            for (k, (now, was)) in offs.iter().zip(&cycles.offs).enumerate() {
                if now.0 != was.0 {
                    dirty.extend(self.fed_by(self.replicas + k));
                }
                if now.1 != was.1 {
                    dirty.extend(self.fed_by(k));
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
            dirty
        };

        let mut todo: Vec<(usize, Vec<A::Val>)> = Vec::new();
        let mut swept = 0;
        for &i in &dirty {
            let item = &self.items[i];
            let sig = item.signature(alg, &offs);
            if let Some(v) = cache.find(item, &sig) {
                let at = item.seeds_at as usize;
                let out = &mut cycles.seeds[at..at + item.seed_count()];
                match cache.held(item, v) {
                    Held::Seeds(seeds) => out.copy_from_slice(seeds),
                    Held::Tables(tables) => Self::seed_values(alg, item, tables, out),
                }
                cycles.held[i] = v;
            } else if batch.is_some() {
                todo.push((i, sig));
            } else {
                let tables = self.compute_item(alg, item, &offs);
                self.store(alg, i, sig, tables, cycles, cache);
                swept += 1;
            }
        }
        if let Some(batch) = batch {
            let misses: Vec<usize> = todo.iter().map(|&(i, _)| i).collect();
            for ((i, sig), tables) in todo.into_iter().zip(batch(&offs, &misses)) {
                self.store(alg, i, sig, tables, cycles, cache);
                swept += 1;
            }
        }
        cache.scheduled += n as u64;
        cache.reused += (n - swept) as u64;

        // The terminals the changed items feed, recomputed in report
        // order from the per-seed values.
        let (n, n_pi) = (self.replicas as u32, self.pis as u32);
        let mut terms: Vec<u32> = Vec::new();
        for &i in &dirty {
            terms.extend(self.items[i].terminals(n, n_pi));
        }
        terms.sort_unstable();
        terms.dedup();
        for t in terms {
            let slack = self.terminal(alg, t as usize, &offs, &cycles.seeds);
            *cycles.terms.slot_mut(t as usize) = slack;
        }
        cycles.offs = offs;
    }

    /// The items feeding terminal `t` (report order).
    fn fed_by(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        (self.feeds.row(t).iter()).map(|&p| self.seed_item[p as usize] as usize)
    }

    /// The slack of terminal `t` (report order) from the per-seed
    /// values: a closing terminal's seed position against its arrival,
    /// an asserting terminal's smallest node slack — the reference
    /// engine's terminal slacks, operation for operation.
    fn terminal<A: Algebra>(
        &self,
        alg: &mut A,
        t: usize,
        offs: &[(A::Val, A::Val)],
        seeds: &[A::Val],
    ) -> A::Val {
        let po_from = 2 * self.replicas + self.pis;
        let mut slack = A::INF;
        for &p in self.feeds.row(t) {
            let p = p as usize;
            let value = if t < self.replicas || t >= po_from {
                let item = &self.items[self.seed_item[p] as usize];
                let slot = p - item.seeds_at as usize;
                let close = if t < self.replicas {
                    item.close_replica_seeds[slot].at(alg, offs[t].1)
                } else {
                    let before = item.seed_count() - item.close_po_seeds.len();
                    item.close_po_seeds[slot - before].at(alg)
                };
                alg.sub(close, seeds[p])
            } else {
                seeds[p]
            };
            slack = alg.min(slack, value);
        }
        slack
    }

    /// The full tables of every item at the last evaluation in
    /// `cycles` — a report view. A version that kept its tables serves
    /// them; the others are re-swept (in item order, or all at once by
    /// `batch`), each counted as a scheduled and swept item. Every
    /// version read is marked as read by this analysis's report, so it
    /// keeps its tables for the next analysis.
    pub fn materialise_with<A: Algebra>(
        &self,
        alg: &mut A,
        cycles: &Cycles<A::Val>,
        cache: &mut SlackCache<A::Val>,
        batch: Option<BatchSweep<'_, A::Val>>,
    ) -> Vec<Arc<ItemTables<A::Val>>> {
        let mut tables: Vec<Option<Arc<ItemTables<A::Val>>>> = Vec::with_capacity(self.items.len());
        let mut todo: Vec<usize> = Vec::new();
        for (i, item) in self.items.iter().enumerate() {
            let kept = cache.read_for_report(item, cycles.held[i]);
            if kept.is_none() {
                todo.push(i);
            }
            tables.push(kept);
        }
        let swept: Vec<ItemTables<A::Val>> = match batch {
            Some(batch) => batch(&cycles.offs, &todo),
            None => (todo.iter())
                .map(|&i| self.compute_item(alg, &self.items[i], &cycles.offs))
                .collect(),
        };
        for (&i, t) in todo.iter().zip(swept) {
            let t = Arc::new(t);
            cache.restore(&self.items[i], cycles.held[i], t.clone());
            tables[i] = Some(t);
        }
        cache.scheduled += todo.len() as u64;
        tables
            .into_iter()
            .map(|t| t.expect("every item materialised"))
            .collect()
    }

    /// The numeric evaluation: [`Engine::evaluate_with`] in the
    /// [`Numeric`] instance, with the misses swept on `threads`
    /// work-stealing workers. The merge is positional, so the outcome
    /// is bit-identical at any thread count.
    pub fn evaluate(
        &self,
        offs: Vec<(Time, Time)>,
        cycles: &mut Cycles,
        cache: &mut SlackCache,
        threads: usize,
    ) {
        // Chaos hook: lets the fault harness prove a panic deep inside
        // a sweep cannot brick a resident session. Compiles down to
        // one relaxed atomic load when no global plan is installed.
        if hb_fault::global_fires(hb_fault::ENGINE_SWEEP_PANIC) {
            panic!("injected fault: {}", hb_fault::ENGINE_SWEEP_PANIC);
        }
        let obs = engine_obs();
        let _eval_span = obs.evaluate.span();
        let before = cache.stats();
        let sweep = |offs: &[(Time, Time)], todo: &[usize]| self.sweep_numeric(offs, todo, threads);
        self.evaluate_with(&mut Numeric, offs, cycles, cache, Some(&sweep));
        Self::count(cache.stats().since(before));
    }

    /// The numeric report view: [`Engine::materialise_with`] with the
    /// re-sweeps on `threads` workers.
    pub fn materialise(
        &self,
        cycles: &Cycles,
        cache: &mut SlackCache,
        threads: usize,
    ) -> Vec<Arc<ItemTables>> {
        let before = cache.stats();
        let sweep = |offs: &[(Time, Time)], todo: &[usize]| self.sweep_numeric(offs, todo, threads);
        let tables = self.materialise_with(&mut Numeric, cycles, cache, Some(&sweep));
        Self::count(cache.stats().since(before));
        tables
    }

    /// Mirrors a cache counter delta into the global metrics.
    fn count(delta: EngineStats) {
        let obs = engine_obs();
        obs.scheduled.add(delta.items_scheduled);
        obs.reused.add(delta.items_reused);
    }

    /// Sweeps the numeric items `todo`, on up to `threads` workers
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

/// A version record's fixed share of [`SlackCache::approx_bytes`]: the
/// record itself, its map slot and the allocation headers of its
/// values.
const VERSION_RECORD_BYTES: usize = 64;

/// What every version records besides its key.
struct Kept<V> {
    /// The full tables, kept while this is the item's newest sweep or
    /// when a report view of the last analysis read it.
    tables: Option<Arc<ItemTables<V>>>,
    /// The last analysis (epoch) that used this version.
    used: u32,
    /// The last analysis whose report view read it (0: none).
    reported: u32,
}

impl<V> Kept<V> {
    /// Whether a report view of the analysis `epoch` or of the one
    /// before read this version.
    fn reported_since(&self, epoch: u32) -> bool {
        self.reported != 0 && epoch.wrapping_sub(self.reported) <= 1
    }
}

/// An item's newest sweep.
struct Newest<V> {
    /// The static fingerprint it was swept under; the item's older
    /// versions share it.
    fingerprint: u64,
    /// Its seed signature, followed — only when it has no tables — by
    /// its per-seed values.
    data: Box<[V]>,
    kept: Kept<V>,
}

impl<V> Newest<V> {
    /// The signature, for an item with `seeds` per-seed values.
    fn sig(&self, seeds: usize) -> &[V] {
        let stored = if self.kept.tables.is_some() { 0 } else { seeds };
        &self.data[..self.data.len() - stored]
    }
}

/// A version superseded by a newer sweep of its item.
struct Older<V> {
    /// Where its seed signature differs from the newest's, as
    /// `(position, value)` by position.
    diff: Box<[(u32, V)]>,
    /// Its per-seed values (see [`WorkItem::seeds_at`]).
    seeds: Box<[V]>,
    kept: Kept<V>,
}

/// The values a held version serves an intermediate cycle.
enum Held<'c, V> {
    /// Stored per-seed values.
    Seeds(&'c [V]),
    /// Full tables to derive them from.
    Tables(&'c ItemTables<V>),
}

/// The signature `base` with the entries of `diff` replaced.
fn patched<'s, V: Copy>(base: &'s [V], diff: &'s [(u32, V)]) -> impl Iterator<Item = V> + 's {
    let mut diff = diff.iter().peekable();
    base.iter().enumerate().map(
        move |(j, &b)| match diff.next_if(|(at, _)| *at as usize == j) {
            Some(&(_, v)) => v,
            None => b,
        },
    )
}

/// Where the signature `sig` differs from `base`, by position.
fn diff<V: Copy + PartialEq>(base: &[V], sig: impl IntoIterator<Item = V>) -> Box<[(u32, V)]> {
    (base.iter().zip(sig).enumerate())
        .filter(|(_, (&b, v))| b != *v)
        .map(|(j, (_, v))| (j as u32, v))
        .collect()
}

/// Re-expresses older versions stored against the signature `from`
/// against the signature `to`.
fn rebase<V: Copy + PartialEq>(older: &mut [Older<V>], from: &[V], to: &[V]) {
    for v in older {
        v.diff = diff(to, patched(from, &v.diff));
    }
}

/// Memo of swept `(cluster, pass)` items, keyed by the item's static
/// fingerprint and an exact comparison of its dynamic seed signature.
/// This is the dirty-cluster tracking: a cluster whose replica offsets
/// moved gets a different signature and is re-swept; a cluster whose
/// arc delays or seed structure changed (an ECO edit) gets a different
/// fingerprint and is re-swept; everything else is reused.
///
/// An item may have several versions: the cache keeps every version
/// that the last analysis used, so a repeated analysis sweeps nothing
/// and an edit re-sweeps only what it moved. The cache holds two
/// resolutions. A version keeps its full tables only while it is the
/// item's newest sweep or when a report view of the last analysis read
/// it; every other version keeps only its per-seed values — all that an
/// intermediate cycle of Algorithm 1 or 2 reads — and its signature as
/// the few positions where it differs from the newest's. When an
/// analysis ends, every version it did not use is dropped; there is no
/// capacity, age or size setting.
///
/// Because versions are keyed by content rather than by item position,
/// one cache may outlive the [`Analyzer`] that filled it: a resident
/// session can re-prepare an edited design and hand the same cache to
/// [`Analyzer::analyze_with_cache`](crate::Analyzer::analyze_with_cache),
/// paying sweeps only for the clusters the edit actually touched. The
/// per-analysis incremental state (previous offsets, item results and
/// terminal view) is never stored here.
///
/// The cache is generic over the value type it memoises; the public
/// instantiation is the numeric one (`V = Time`). The parametric
/// analysis keeps a symbolic one per parameter region: an affine
/// identity on a region restricts to any subregion, so its versions stay
/// valid as the region shrinks.
///
/// [`Analyzer`]: crate::Analyzer
pub struct SlackCache<V = Time> {
    /// Per `(cluster, pass)`: its newest sweep.
    newest: HashMap<(u32, u32), Newest<V>>,
    /// Per `(cluster, pass)` with superseded versions: those, in the
    /// order they were superseded. Version `v` of an item is
    /// `older[v]`, or its newest for `v == older.len()`.
    older: HashMap<(u32, u32), Vec<Older<V>>>,
    /// The analysis in progress or last finished.
    epoch: u32,
    /// Item evaluations requested over the cache's lifetime.
    pub(crate) scheduled: u64,
    /// Evaluations answered from cache (clean clusters).
    pub(crate) reused: u64,
}

impl<V> Default for SlackCache<V> {
    fn default() -> Self {
        SlackCache {
            newest: HashMap::new(),
            older: HashMap::new(),
            epoch: 0,
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
    /// The number of `(cluster, pass)` items with memoised sweeps.
    pub fn len(&self) -> usize {
        self.newest.len()
    }

    /// Whether the cache holds no memoised sweeps.
    pub fn is_empty(&self) -> bool {
        self.newest.is_empty()
    }

    /// A deterministic estimate of the memoised content in bytes: per
    /// version, a fixed record size plus its signature and per-seed
    /// values, plus its full tables when it kept them.
    pub fn approx_bytes(&self) -> usize {
        let value = std::mem::size_of::<V>();
        let tables = |k: &Kept<V>| {
            let pairs = k
                .tables
                .as_ref()
                .map_or(0, |t| t.ready.len() + t.required.len());
            pairs * std::mem::size_of::<RiseFall<V>>()
        };
        let newest = (self.newest.values())
            .map(|n| VERSION_RECORD_BYTES + n.data.len() * value + tables(&n.kept));
        let older = self.older.values().flatten().map(|o| {
            let diff = o.diff.len() * std::mem::size_of::<(u32, V)>();
            VERSION_RECORD_BYTES + diff + o.seeds.len() * value + tables(&o.kept)
        });
        newest.chain(older).sum()
    }

    /// Drops every memoised sweep but keeps the lifetime counters.
    pub fn invalidate_all(&mut self) {
        self.newest.clear();
        self.older.clear();
    }

    /// The reuse counters, for reporting.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            items_scheduled: self.scheduled,
            items_reused: self.reused,
        }
    }

    /// Opens an analysis.
    pub(crate) fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1).max(1);
    }

    /// The record of version `v` of `item`.
    fn kept_mut(&mut self, item: &WorkItem, v: u32) -> &mut Kept<V> {
        match self.older.get_mut(&item.key()) {
            Some(older) if (v as usize) < older.len() => &mut older[v as usize].kept,
            _ => &mut self.newest.get_mut(&item.key()).expect("held").kept,
        }
    }

    /// What version `v` of `item` serves an intermediate cycle.
    fn held(&self, item: &WorkItem, v: u32) -> Held<'_, V> {
        if let Some(o) = self.older.get(&item.key()).and_then(|o| o.get(v as usize)) {
            return Held::Seeds(&o.seeds);
        }
        let n = &self.newest[&item.key()];
        match &n.kept.tables {
            Some(t) => Held::Tables(t),
            None => Held::Seeds(&n.data[item.sig_len()..]),
        }
    }

    /// The full tables version `v` of `item` kept, if any, marking it as
    /// read by this analysis's report.
    fn read_for_report(&mut self, item: &WorkItem, v: u32) -> Option<Arc<ItemTables<V>>> {
        let epoch = self.epoch;
        let kept = self.kept_mut(item, v);
        kept.reported = epoch;
        kept.tables.clone()
    }
}

impl<V: Copy + PartialEq> SlackCache<V> {
    /// Closes the analysis: drops every version it did not use, and
    /// keeps full tables only on each item's newest version and on the
    /// versions its report views read.
    pub(crate) fn finish(&mut self) {
        let epoch = self.epoch;
        let older = &mut self.older;
        self.newest.retain(|key, n| {
            let mut versions = older.remove(key).unwrap_or_default();
            versions.retain(|v| v.kept.used == epoch);
            if n.kept.used != epoch {
                // The most recently superseded version takes over.
                let Some(v) = versions.pop() else {
                    return false;
                };
                let from = n.sig(v.seeds.len());
                let sig: Vec<V> = patched(from, &v.diff).collect();
                rebase(&mut versions, from, &sig);
                let mut data = sig;
                if v.kept.tables.is_none() {
                    data.extend_from_slice(&v.seeds);
                }
                n.data = data.into_boxed_slice();
                n.kept = v.kept;
            }
            for v in versions.iter_mut().filter(|v| v.kept.reported != epoch) {
                v.kept.tables = None;
            }
            if !versions.is_empty() {
                versions.shrink_to_fit();
                older.insert(*key, versions);
            }
            true
        });
    }

    /// The version of `item` with the signature `sig`, marked used.
    fn find(&mut self, item: &WorkItem, sig: &[V]) -> Option<u32> {
        let epoch = self.epoch;
        let n = self.newest.get_mut(&item.key())?;
        if n.fingerprint != item.fingerprint {
            return None;
        }
        let d = diff(n.sig(item.seed_count()), sig.iter().copied());
        let older = self.older.get_mut(&item.key());
        let count = older.as_ref().map_or(0, |o| o.len());
        if d.is_empty() {
            n.kept.used = epoch;
            return Some(count as u32);
        }
        let older = older?;
        let v = older.iter().position(|v| v.diff == d)?;
        older[v].kept.used = epoch;
        Some(v as u32)
    }

    /// Gives version `v` of `item` back its re-swept full tables.
    fn restore(&mut self, item: &WorkItem, v: u32, tables: Arc<ItemTables<V>>) {
        let older = self.older.get_mut(&item.key());
        if let Some(o) = older.and_then(|o| o.get_mut(v as usize)) {
            o.kept.tables = Some(tables);
            return;
        }
        let n = self.newest.get_mut(&item.key()).expect("held");
        // With tables back, the newest derives its per-seed values.
        let sig = n.sig(item.seed_count()).to_vec();
        n.data = sig.into_boxed_slice();
        n.kept.tables = Some(tables);
    }

    /// Adds a freshly swept item with signature `sig` as its newest
    /// version (marked used) and returns the version's index. The
    /// previous newest becomes an older version: `per_seed` derives its
    /// per-seed values from its tables, which it keeps only when a
    /// report view of this or the last analysis read it. Versions of
    /// another fingerprint predate an edit, so no analysis of this
    /// design can use them: they go.
    fn insert(
        &mut self,
        item: &WorkItem,
        sig: Vec<V>,
        tables: Arc<ItemTables<V>>,
        per_seed: impl FnOnce(&ItemTables<V>) -> Box<[V]>,
    ) -> u32 {
        let fresh = Newest {
            fingerprint: item.fingerprint,
            data: sig.into_boxed_slice(),
            kept: Kept {
                tables: Some(tables),
                used: self.epoch,
                reported: 0,
            },
        };
        let key = item.key();
        let Some(n) = self.newest.get_mut(&key) else {
            self.newest.insert(key, fresh);
            return 0;
        };
        if n.fingerprint != item.fingerprint {
            *n = fresh;
            self.older.remove(&key);
            return 0;
        }
        let old = std::mem::replace(n, fresh);
        let seeds = match &old.kept.tables {
            Some(t) => per_seed(t),
            None => old.data[item.sig_len()..].into(),
        };
        let versions = self.older.entry(key).or_default();
        let from = old.sig(item.seed_count());
        rebase(versions, from, &n.data);
        let diff = diff(&n.data, from.iter().copied());
        let mut kept = old.kept;
        if !kept.reported_since(self.epoch) {
            kept.tables = None;
        }
        versions.push(Older { diff, seeds, kept });
        versions.len() as u32
    }
}

/// Work counters of the sharded engine over one analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Total `(cluster, pass)` evaluations requested by the algorithms,
    /// including the re-sweeps a report view needed.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-pass item of `cluster` with `seeds` asserting replica seeds.
    fn item(cluster: u32, seeds: u32) -> WorkItem {
        let seed = |k| ReplicaSeed {
            k,
            local: k,
            base: Time::ZERO,
        };
        WorkItem {
            cluster,
            pass: 0,
            fingerprint: 7,
            ready_replica_seeds: (0..seeds).map(seed).collect(),
            ready_pi_seeds: Vec::new(),
            close_replica_seeds: Vec::new(),
            close_po_seeds: Vec::new(),
            seeds_at: 0,
        }
    }

    fn tables(nodes: usize) -> Arc<ItemTables> {
        Arc::new(ItemTables {
            ready: vec![RiseFall::splat(Time::ZERO); nodes],
            required: vec![RiseFall::splat(Time::INF); nodes],
        })
    }

    fn sig(ps: &[i64]) -> Vec<Time> {
        ps.iter().map(|&p| Time::from_ps(p)).collect()
    }

    /// Per-seed values derived from a version's tables: its first
    /// ready time, once per seed.
    fn per_seed(t: &ItemTables) -> Box<[Time]> {
        vec![t.ready[0].rise; 2].into()
    }

    #[test]
    fn approx_bytes_counts_content_not_entries() {
        let mut cache = SlackCache::new();
        assert_eq!(cache.approx_bytes(), 0);
        cache.begin();
        let (small, big) = (item(0, 2), item(1, 2));
        cache.insert(&small, sig(&[1, 1]), tables(3), per_seed);
        cache.insert(&big, sig(&[1, 1]), tables(300), per_seed);
        let newest = |nodes: usize| VERSION_RECORD_BYTES + 2 * 8 + 2 * nodes * 16;
        assert_eq!(cache.approx_bytes(), newest(3) + newest(300));

        // A new sweep of `big` supersedes the first, which drops its
        // tables and keeps its per-seed values plus the one signature
        // position where it differs from the newest.
        cache.insert(&big, sig(&[1, 2]), tables(300), per_seed);
        let older = VERSION_RECORD_BYTES + std::mem::size_of::<(u32, Time)>() + 2 * 8;
        assert_eq!(cache.approx_bytes(), newest(3) + newest(300) + older);
        assert_eq!(cache.len(), 2);

        // Every version was used by this analysis, so finishing keeps
        // them; an analysis that uses none drops them all.
        cache.finish();
        assert_eq!(cache.approx_bytes(), newest(3) + newest(300) + older);
        cache.begin();
        cache.finish();
        assert_eq!(cache.approx_bytes(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn versions_are_found_by_exact_signature() {
        let mut cache = SlackCache::new();
        cache.begin();
        let it = item(0, 2);
        let sigs = [sig(&[1, 1]), sig(&[1, 2]), sig(&[3, 2]), sig(&[3, 1])];
        for (v, s) in sigs.iter().enumerate() {
            assert_eq!(cache.find(&it, s), None);
            let t = Arc::new(ItemTables {
                ready: vec![RiseFall::splat(Time::from_ps(10 * v as i64)); 1],
                required: vec![RiseFall::splat(Time::INF); 1],
            });
            assert_eq!(cache.insert(&it, s.clone(), t, per_seed), v as u32);
        }
        // Older versions serve their own per-seed values, the newest
        // its tables; each signature finds exactly its version.
        for (v, s) in sigs.iter().enumerate() {
            assert_eq!(cache.find(&it, s), Some(v as u32));
            match cache.held(&it, v as u32) {
                Held::Seeds(seeds) => assert_eq!(seeds, &[Time::from_ps(10 * v as i64); 2]),
                Held::Tables(t) => {
                    assert_eq!(v, sigs.len() - 1);
                    assert_eq!(t.ready[0].rise, Time::from_ps(10 * v as i64));
                }
            }
        }
        assert_eq!(cache.find(&it, &sig(&[2, 2])), None);
        // Another fingerprint finds nothing.
        let edited = WorkItem {
            fingerprint: 8,
            ..it.clone()
        };
        assert_eq!(cache.find(&edited, &sigs[0]), None);

        // When the newest goes unused, the latest used version takes
        // over and the others are re-expressed against it.
        cache.begin();
        for v in [0, 2] {
            assert_eq!(cache.find(&it, &sigs[v]), Some(v as u32));
        }
        cache.finish();
        cache.begin();
        assert_eq!(cache.find(&it, &sigs[0]), Some(0));
        assert_eq!(cache.find(&it, &sigs[2]), Some(1));
        assert_eq!(cache.find(&it, &sigs[1]), None);
        assert_eq!(cache.find(&it, &sigs[3]), None);
        match cache.held(&it, 1) {
            Held::Seeds(seeds) => assert_eq!(seeds, &[Time::from_ps(20); 2]),
            Held::Tables(_) => panic!("a superseded version kept its tables"),
        }
    }
}
