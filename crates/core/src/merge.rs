//! Mergeable shard samples — the algebra behind multi-core ingest.
//!
//! §5 of the paper shows that temporally-biased samples can be maintained
//! over *partitioned* data: D-R-TBS keeps the scalar driver state `(W, C)`
//! on a master and the items on workers, and its `Dist,CP` strategy needs
//! no per-item coordination at all. This module pushes that observation to
//! its logical end: run **K fully independent samplers**, one per shard of
//! the stream, with *zero* coordination during ingest, and only combine
//! their states when a sample is actually requested.
//!
//! ## Why the merge is exact
//!
//! Shard `k` sees the sub-stream `B_1^k, B_2^k, …` of a deterministic
//! partitioning (`Σ_k |B_j^k| = |B_j|`), so its total weight obeys
//! `Σ_k W_t^k = W_t`. By Theorem 4.2 each shard-local R-TBS holds every
//! item `i` of its sub-stream with probability `(C^k/W^k)·w_t(i)` where
//! `C^k = min(n_k, W^k)`. The single-node target is `(C/W)·w_t(i)` with
//! `C = min(n, W)`. Downsampling shard `k`'s latent sample from `C^k` to
//!
//! ```text
//! c_k = C · W^k / W
//! ```
//!
//! rescales all of its inclusion probabilities uniformly (Theorem 4.1), so
//! every item lands at exactly `(C/W)·w_t(i)` — the single-node law — and
//! the union of the downsampled shard samples carries total weight
//! `Σ_k c_k = C`. The union of K latent samples has up to K fractional
//! partial items; the internal `merge_latent` fold combines them pairwise
//! with the stochastic rounding of §4.1, preserving each partial item's
//! exact inclusion probability while restoring the `⌊C⌋ + 1` footprint
//! bound.
//!
//! The downsample step requires `c_k ≤ C^k`, i.e. the shard must not have
//! discarded weight the merged sample still needs: `n_k ≥ n·W^k/W`. How
//! much per-shard headroom that takes depends on how evenly the split
//! spreads weight. A *rotated* chunk split bounds the skew only by the
//! decay-geometric series, `|W^k − W/K| < 1/(1−e^{−λ})` — headroom that
//! is paid **per shard** and grows relative to `⌈n/K⌉` as K rises, until
//! shards fall off the saturated fast path (the old "8-shard cliff").
//!
//! [`BalancedSplitter`] amortizes the headroom across the merge instead.
//! It tracks each shard's *decayed item-count deviation*
//! `D_k ← e^{−λ}·D_k + (|B^k| − |B|/K)` and hands every batch's
//! `b mod K` remainder items to the shards with the smallest deviations.
//! By induction the deviation spread never exceeds one (giving +1 to the
//! `r` smallest of a set with spread ≤ 1 keeps the spread ≤ 1), and the
//! deviations sum to zero, so
//!
//! ```text
//! |W^k − W/K| = |D_k| ≤ 1       for every schedule, at every K
//! ```
//!
//! which shrinks the required capacity to
//!
//! ```text
//! n_k = ⌈n/K⌉ + 1               (headroom 0 for K = 1)
//! ```
//!
//! because `c_k = C·W^k/W ≤ (C/W)·(W/K + 1) ≤ n/K + 1 ≤ n_k`. The one
//! spare slot keeps each shard *saturated* whenever the merged sampler
//! comfortably is (`W/K − 1 ≥ n_k`), so shards run the cheap in-place
//! replacement transition, not the O(n_k) unsaturated transition.
//!
//! ## The merge tree
//!
//! Theorem 4.1's merge algebra is associative: once every shard is
//! downsampled to its target `c_k`, the pairwise latent union can be
//! folded in **any** tree shape. [`merge_replay`] is the canonical
//! log-depth schedule: leaves downsample in shard order, internal nodes
//! pair adjacent subtrees level by level ([`MergePlan`]), and every node
//! draws from its **own** RNG substream (`2^128`-spaced splits of the
//! caller's generator, see `Xoshiro256PlusPlus::split_streams`). Node
//! randomness is therefore a pure function of `(caller RNG state, node
//! id)` — the tree can execute sequentially on one thread or scattered
//! across shard workers and produce **bit-identical** results either
//! way. After splitting, the caller's generator `long_jump`s once past
//! the whole substream block; realization draws ride that trajectory.
//!
//! T-TBS is simpler: its acceptance rate `q = n(1−e^{−λ})/b` is a constant
//! independent of the sub-stream, so identically-configured shards already
//! hold every item with the single-node probability `q·e^{−λ·age}` and the
//! merge is a plain union; the per-shard equilibrium sizes `n·b_k/b` sum
//! to `n`. Its tree merge concatenates in leaf order, which reproduces the
//! shard-order concatenation of the linear fold exactly.

use crate::jumps::IngestMode;
use crate::latent::LatentSample;
use crate::rtbs::RTbs;
use crate::ttbs::TTbs;
use rand::Rng;
use tbs_stats::rng::Xoshiro256PlusPlus;

/// Configuration of a sharded sampler family: the single-node sampler the
/// merged state must be equivalent to, plus the shard count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardSpec {
    /// Exponential decay rate λ (must be positive when `shards > 1`; the
    /// skew headroom `1/(1−e^{−λ})` diverges at λ = 0).
    pub lambda: f64,
    /// Single-node capacity `n` (R-TBS hard bound / T-TBS target size).
    pub capacity: usize,
    /// Number of shards K.
    pub shards: usize,
    /// Mean batch size `b` of the *whole* stream (T-TBS's assumed rate;
    /// ignored by R-TBS).
    pub mean_batch: f64,
    /// Ingest strategy every shard-local sampler runs (see
    /// [`crate::jumps::IngestMode`]). Jump mode composes with the merge
    /// algebra unchanged: it alters only *how* each shard spends
    /// randomness per batch, not the shard-state law the merge relies on.
    pub ingest: IngestMode,
    /// Batch-granular downsampling drift threshold θ ∈ (0, 1] applied to
    /// every shard-local R-TBS (see [`RTbs::set_defer_threshold`]); 1.0
    /// (the default) keeps the eager per-step downsample. Ignored by
    /// T-TBS, which has no latent downsample to defer.
    pub defer_threshold: f64,
    /// Shard-group threshold: when the per-cell reservoir share
    /// `⌈n/G⌉` would fall below this bound, shard threads are grouped
    /// onto fewer shared *cells* (reservoirs) — `G` starts at `shards`
    /// and halves until `⌈n/G⌉ ≥ threshold` (see [`Self::cells`]) — so
    /// per-reservoir fixed costs scale with the cell count instead of the
    /// thread count. 0 (the default) disables grouping (`cells == shards`).
    pub group_threshold: usize,
}

impl ShardSpec {
    /// Spec for a single-node-equivalent R-TBS sharding.
    pub fn rtbs(lambda: f64, capacity: usize, shards: usize) -> Self {
        Self {
            lambda,
            capacity,
            shards,
            mean_batch: 0.0,
            ingest: IngestMode::PerItem,
            defer_threshold: 1.0,
            group_threshold: 0,
        }
    }

    /// Spec for a single-node-equivalent T-TBS sharding.
    pub fn ttbs(lambda: f64, target: usize, mean_batch: f64, shards: usize) -> Self {
        Self {
            lambda,
            capacity: target,
            shards,
            mean_batch,
            ingest: IngestMode::PerItem,
            defer_threshold: 1.0,
            group_threshold: 0,
        }
    }

    /// Run every shard in the given ingest mode (default
    /// [`IngestMode::PerItem`]).
    pub fn with_ingest_mode(mut self, mode: IngestMode) -> Self {
        self.ingest = mode;
        self
    }

    /// Enable batch-granular downsampling on every shard-local R-TBS with
    /// drift threshold `theta ∈ (0, 1]` (default 1.0 = eager).
    pub fn with_defer_threshold(mut self, theta: f64) -> Self {
        self.defer_threshold = theta;
        self
    }

    /// Group shard threads onto shared reservoir cells once `⌈n/G⌉`
    /// falls below `threshold` (default 0 = never group).
    pub fn with_group_threshold(mut self, threshold: usize) -> Self {
        self.group_threshold = threshold;
        self
    }

    /// Number of logical reservoir *cells* `G ≤ K`: the unit the sampler
    /// states, batch splits, and merge tree are sized by. Without
    /// grouping (`group_threshold == 0`) every shard thread owns its own
    /// cell, `G = K`. With grouping, `G` halves from `shards` until the
    /// per-cell reservoir share `⌈n/G⌉` reaches the threshold — so at
    /// high K several threads share one cell and the per-batch reservoir
    /// fixed costs (decay/downsample bookkeeping) scale with `G`, not K.
    pub fn cells(&self) -> usize {
        let mut g = self.shards;
        if self.group_threshold == 0 {
            return g;
        }
        while g > 1 && self.capacity.div_ceil(g) < self.group_threshold {
            g = g.div_ceil(2);
        }
        g
    }

    /// Per-cell R-TBS capacity `n_k = ⌈n/G⌉ + 1` over the `G =`
    /// [`Self::cells`] reservoir cells (no headroom for G = 1).
    ///
    /// The single spare slot is all the headroom mergeability needs
    /// *under the engine's balanced split*: [`BalancedSplitter`] keeps
    /// every cell's decayed weight within one item of `W/G`, so the
    /// downsample target `C·W^k/W` never exceeds `⌈n/G⌉ + 1` (module
    /// docs). This replaces the old per-shard `⌈1/(1−e^{−λ})⌉` headroom,
    /// which grew relative to `⌈n/K⌉` as K rose and pushed high-K shards
    /// off the saturated fast path.
    pub fn shard_capacity(&self) -> usize {
        let cells = self.cells();
        if cells <= 1 {
            return self.capacity;
        }
        self.capacity.div_ceil(cells) + 1
    }

    fn validate(&self) {
        assert!(self.shards > 0, "need at least one shard");
        assert!(self.capacity > 0, "capacity must be positive");
        assert!(
            self.lambda.is_finite() && self.lambda >= 0.0,
            "decay rate must be finite and non-negative"
        );
        assert!(
            self.cells() == 1 || self.lambda > 0.0,
            "sharded sampling requires λ > 0: the skew headroom 1/(1−e^{{−λ}}) \
             diverges at λ = 0 (use a single shard for undecayed sampling)"
        );
        assert!(
            self.defer_threshold.is_finite()
                && self.defer_threshold > 0.0
                && self.defer_threshold <= 1.0,
            "defer threshold must lie in (0, 1]"
        );
    }
}

/// Scalar state of one merge, computed **once** over all shard forks
/// before the tree executes (see [`MergeableSample::merge_targets`]).
///
/// Precomputing the global scalars is what makes the tree embarrassingly
/// parallel: each leaf's downsample target depends on the *global* weight
/// ratio `C·W^k/W`, so it cannot be derived pairwise — but it can be
/// derived upfront from the forks alone, after which every tree node is
/// independent of every non-descendant.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeScalars {
    /// Per-leaf downsample targets `c_k = min(C·W^k/W, C^k)` in shard-id
    /// order (empty for schemes that need no leaf step, e.g. T-TBS).
    pub leaf_targets: Vec<f64>,
    /// Single-node-equivalent total stream weight `W = Σ_k W^k`, summed
    /// in shard-id order (bit-identical to the linear fold's sum).
    pub total_weight: f64,
    /// Step counter for the merged sampler (max over shards).
    pub steps: u64,
}

/// A sampler whose state can be maintained shard-locally and merged into a
/// single-node-equivalent sample. Implemented by [`RTbs`] and [`TTbs`];
/// the parallel ingest engine in `tbs-distributed` is generic over this
/// trait.
///
/// The merge is expressed as four orthogonal primitives — scalar
/// precompute ([`merge_targets`](Self::merge_targets)), per-leaf
/// preparation ([`merge_leaf`](Self::merge_leaf)), the associative
/// pairwise combine ([`merge_pair`](Self::merge_pair)), and root
/// finalization ([`merge_finalize`](Self::merge_finalize)) — so the fold
/// can run as a log-depth tree across threads. The provided
/// [`merge_shards`](Self::merge_shards) runs the canonical sequential
/// schedule ([`merge_replay`]), which is bit-identical to any parallel
/// execution of the same tree.
pub trait MergeableSample: Sized {
    /// The stream item type.
    type Item;

    /// Build the K shard-local samplers for `spec`, in shard-id order.
    fn make_shards(spec: &ShardSpec) -> Vec<Self>;

    /// Compute the merge's global scalars from the shard forks (in
    /// shard-id order). Consumes no randomness.
    fn merge_targets(shards: &[Self], spec: &ShardSpec) -> MergeScalars;

    /// Prepare one leaf for the tree: downsample this shard's state to
    /// its precomputed `target` weight (Theorem 4.1). Identity for
    /// schemes whose shard states already obey the single-node law.
    fn merge_leaf(self, target: f64, rng: &mut Xoshiro256PlusPlus) -> Self;

    /// Combine two adjacent subtrees (left child first — implementations
    /// must preserve left-to-right order so any tree shape reproduces the
    /// shard-order linear fold).
    fn merge_pair(left: Self, right: Self, spec: &ShardSpec, rng: &mut Xoshiro256PlusPlus) -> Self;

    /// Stamp the root with the merge's global scalars, producing the
    /// single-node-equivalent sampler. Consumes no randomness.
    fn merge_finalize(root: Self, scalars: &MergeScalars, spec: &ShardSpec) -> Self;

    /// Merge shard states (in shard-id order) into one sampler whose
    /// realized sample is statistically equivalent to a single-node run
    /// over the interleaved stream. Consumes the shards. This is the
    /// canonical sequential execution of the merge tree — see
    /// [`merge_replay`] for the RNG-substream contract.
    fn merge_shards(shards: Vec<Self>, spec: &ShardSpec, rng: &mut Xoshiro256PlusPlus) -> Self {
        merge_replay(shards, spec, rng)
    }

    /// Shard-local ingest of one sub-batch (drain-based: the buffer's
    /// allocation survives for recycling). Monomorphized over the RNG.
    fn observe_shard<R: Rng + ?Sized>(&mut self, batch: &mut Vec<Self::Item>, rng: &mut R);

    /// Total decayed stream weight `W_t` seen by this sampler, for
    /// schemes that track one (`None` for T-TBS, which needs no
    /// stream-level scalar state). On a merged sampler this is the
    /// single-node-equivalent `W_t = Σ_k W_t^k`.
    fn total_stream_weight(&self) -> Option<f64>;

    /// Realize the current sample into `out` (cleared first).
    fn realize_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<Self::Item>);

    /// Expected realized sample size (`C` for R-TBS, `|S|` for T-TBS).
    fn expected_size(&self) -> f64;
}

/// Deterministically split `batch` into `out.len()` shard sub-batches.
///
/// Shard `i` receives a contiguous chunk of `⌊b/K⌋` or `⌈b/K⌉` items; the
/// `b mod K` extra items go to the shards starting at `rotation % K`
/// (callers rotate per batch so remainders spread evenly). Each `out[i]`
/// is cleared and refilled — allocation-free once the buffers have reached
/// their high-water capacity. The split is a pure function of
/// `(b, K, rotation)`, which is what makes sharded runs reproducible.
pub fn partition_batch<T>(batch: &mut Vec<T>, rotation: usize, out: &mut [Vec<T>]) {
    let k = out.len();
    debug_assert!(k > 0, "cannot partition into zero shards");
    let b = batch.len();
    let base = b / k;
    let rem = b % k;
    // Walk shards from last to first so each chunk drains from the tail —
    // O(chunk) per shard instead of O(b) front-shifts.
    let mut end = b;
    for i in (0..k).rev() {
        let extra = usize::from((i + k - rotation % k) % k < rem);
        let len = base + extra;
        let buf = &mut out[i];
        buf.clear();
        buf.extend(batch.drain(end - len..));
        end -= len;
    }
    debug_assert_eq!(end, 0);
    debug_assert!(batch.is_empty());
}

/// Deviation-balanced deterministic batch splitter — the engine's split
/// policy, co-designed with [`ShardSpec::shard_capacity`].
///
/// Like [`partition_batch`], shard `i` receives a contiguous chunk of
/// `⌊b/K⌋` or `⌈b/K⌉` items, but the `b mod K` remainder items go to the
/// shards whose *decayed item-count deviation* `D_k` is smallest (ties
/// break toward the lower shard id) instead of following a fixed
/// rotation. The deviations evolve as `D_k ← e^{−λ}·D_k + (chunk_k −
/// b/K)`, which makes `D_k` exactly the shard's decayed-weight deviation
/// `W^k − W/K`; the balancing rule keeps `|D_k| ≤ 1` for **every**
/// schedule (see the module docs), which is what licenses the `⌈n/K⌉+1`
/// shard capacity.
///
/// The split is a pure function of the deviation state and the batch
/// lengths — independent of thread timing — so sharded runs stay
/// reproducible, and the state is a plain `Vec<f64>` that checkpoints
/// alongside the engine. All scratch space is pre-sized at construction;
/// `split` performs no heap allocation once the output buffers have
/// reached their high-water capacity.
#[derive(Debug, Clone)]
pub struct BalancedSplitter {
    /// Per-batch decay factor `e^{−λ}`.
    decay: f64,
    /// Decayed item-count deviations `D_k = W^k − W/K`, one per shard.
    deviations: Vec<f64>,
    /// Scratch: shard ids sorted by deviation (remainder placement).
    order: Vec<usize>,
    /// Scratch: per-shard chunk length of the current batch.
    sizes: Vec<usize>,
}

impl BalancedSplitter {
    /// A fresh splitter for `shards` shards at decay rate λ.
    pub fn new(lambda: f64, shards: usize) -> Self {
        Self::from_deviations(lambda, vec![0.0; shards])
    }

    /// Rebuild a splitter from checkpointed deviations.
    pub fn from_deviations(lambda: f64, deviations: Vec<f64>) -> Self {
        assert!(!deviations.is_empty(), "need at least one shard");
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "decay rate must be finite and non-negative"
        );
        let shards = deviations.len();
        Self {
            decay: (-lambda).exp(),
            deviations,
            order: Vec::with_capacity(shards),
            sizes: vec![0; shards],
        }
    }

    /// The current deviation state (shard-id order), for checkpointing.
    pub fn deviations(&self) -> &[f64] {
        &self.deviations
    }

    /// Split `batch` into `out.len()` shard sub-batches and advance the
    /// deviation state. Each `out[i]` is cleared and refilled.
    pub fn split<T>(&mut self, batch: &mut Vec<T>, out: &mut [Vec<T>]) {
        let k = out.len();
        debug_assert_eq!(k, self.deviations.len(), "shard count mismatch");
        let b = batch.len();
        let base = b / k;
        let rem = b % k;
        for d in &mut self.deviations {
            *d *= self.decay;
        }
        self.sizes.clear();
        self.sizes.resize(k, base);
        if rem > 0 {
            // The remainder goes to the `rem` smallest deviations;
            // `select_nth_unstable_by` is in-place (no allocation).
            self.order.clear();
            self.order.extend(0..k);
            let dev = &self.deviations;
            self.order.select_nth_unstable_by(rem - 1, |&a, &b| {
                dev[a].total_cmp(&dev[b]).then(a.cmp(&b))
            });
            for &shard in &self.order[..rem] {
                self.sizes[shard] += 1;
            }
        }
        // Walk shards from last to first so each chunk drains from the
        // tail — O(chunk) per shard instead of O(b) front-shifts.
        let even = if k > 0 { b as f64 / k as f64 } else { 0.0 };
        let mut end = b;
        for i in (0..k).rev() {
            let len = self.sizes[i];
            let buf = &mut out[i];
            buf.clear();
            buf.extend(batch.drain(end - len..));
            end -= len;
            self.deviations[i] += len as f64 - even;
        }
        debug_assert_eq!(end, 0);
        debug_assert!(batch.is_empty());
    }
}

/// The shape of the canonical log-depth merge tree over K shard leaves.
///
/// Nodes are numbered `0..2K−1`: leaves `0..K` in shard-id order,
/// internal nodes `K..2K−1` in level-order creation order (adjacent
/// subtrees pair up; an odd subtree carries to the next level). The
/// numbering is what gives every node a stable RNG substream in
/// [`merge_replay`] regardless of execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergePlan {
    /// Children `(left, right)` of internal node `K + i`, in creation
    /// order — always topologically sorted (children precede parents).
    pairs: Vec<(usize, usize)>,
    /// `parent[node]`, with `usize::MAX` at the root.
    parent: Vec<usize>,
    /// Number of pairing levels, `⌈log₂ K⌉`.
    depth: usize,
}

impl MergePlan {
    /// Build the plan for `leaves` shards (`leaves ≥ 1`).
    pub fn new(leaves: usize) -> Self {
        assert!(leaves > 0, "need at least one leaf");
        let mut pairs = Vec::with_capacity(leaves.saturating_sub(1));
        let mut parent = vec![usize::MAX; 2 * leaves - 1];
        let mut level: Vec<usize> = (0..leaves).collect();
        let mut next_id = leaves;
        let mut depth = 0;
        while level.len() > 1 {
            depth += 1;
            let mut up = Vec::with_capacity(level.len().div_ceil(2));
            for chunk in level.chunks(2) {
                if let [l, r] = *chunk {
                    pairs.push((l, r));
                    parent[l] = next_id;
                    parent[r] = next_id;
                    up.push(next_id);
                    next_id += 1;
                } else {
                    up.push(chunk[0]);
                }
            }
            level = up;
        }
        debug_assert_eq!(pairs.len(), leaves - 1);
        Self {
            pairs,
            parent,
            depth,
        }
    }

    /// Number of leaves K.
    pub fn leaves(&self) -> usize {
        self.pairs.len() + 1
    }

    /// Total node count `2K − 1`.
    pub fn node_count(&self) -> usize {
        self.parent.len()
    }

    /// Children of internal node `leaves() + i`, topologically sorted.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Parent of `node`, or `None` at the root.
    pub fn parent(&self, node: usize) -> Option<usize> {
        match self.parent[node] {
            usize::MAX => None,
            p => Some(p),
        }
    }

    /// The root node id (the last-created internal node; leaf 0 if K=1).
    pub fn root(&self) -> usize {
        self.node_count() - 1
    }

    /// Number of pairing levels, `⌈log₂ K⌉`.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Execute the canonical merge tree sequentially: the reference schedule
/// every parallel execution must (and does) reproduce bit-for-bit.
///
/// RNG-substream contract: the caller's generator is split into `2K`
/// jump-spaced substreams **without advancing it** — tree node `n` draws
/// exclusively from substream `n + 1` — and is then advanced by one
/// `long_jump` past the whole block. Realization draws made by the caller
/// after this function ride the post-`long_jump` trajectory, disjoint
/// from every node substream. Node randomness is thus a pure function of
/// `(entry RNG state, node id)`: executing the same tree on shard worker
/// threads in any completion order yields identical bits.
pub fn merge_replay<S: MergeableSample>(
    shards: Vec<S>,
    spec: &ShardSpec,
    rng: &mut Xoshiro256PlusPlus,
) -> S {
    assert_eq!(shards.len(), spec.cells(), "shard cell count mismatch");
    let k = shards.len();
    let plan = MergePlan::new(k);
    let scalars = S::merge_targets(&shards, spec);
    let mut streams = rng.split_streams(2 * k);
    rng.long_jump();
    let mut slots: Vec<Option<S>> = shards.into_iter().map(Some).collect();
    slots.resize_with(plan.node_count(), || None);
    for leaf in 0..k {
        let s = slots[leaf].take().expect("leaf occupied");
        let target = scalars.leaf_targets.get(leaf).copied().unwrap_or(0.0);
        slots[leaf] = Some(S::merge_leaf(s, target, &mut streams[leaf + 1]));
    }
    for (i, &(l, r)) in plan.pairs().iter().enumerate() {
        let node = k + i;
        let left = slots[l].take().expect("left child computed");
        let right = slots[r].take().expect("right child computed");
        slots[node] = Some(S::merge_pair(left, right, spec, &mut streams[node + 1]));
    }
    let root = slots[plan.root()].take().expect("root computed");
    S::merge_finalize(root, &scalars, spec)
}

/// Fold `incoming` into the accumulating latent union `(acc, acc_weight)`.
///
/// Full items concatenate; the two partial items are combined by the §4.1
/// stochastic-rounding algebra so that each keeps its exact inclusion
/// probability: with fractional parts α (accumulator) and β (incoming),
/// either the combined fraction stays below one — keep a single partial
/// item, the accumulator's with probability α/(α+β) — or it crosses one,
/// promoting one of the two to full (the accumulator's with probability
/// `(1−β)/(2−α−β)`, which solves `Pr[promoted or realized] = α`) while the
/// other remains partial with fraction α+β−1.
fn merge_latent<T, R: Rng + ?Sized>(
    acc: &mut LatentSample<T>,
    incoming: LatentSample<T>,
    rng: &mut R,
) {
    let (inc_full, inc_partial, inc_weight) = incoming.into_parts();
    let (mut full, acc_partial, acc_weight) = std::mem::take(acc).into_parts();
    let alpha = acc_weight - acc_weight.floor();
    let beta = inc_weight - inc_weight.floor();
    let new_weight = acc_weight + inc_weight;
    full.extend(inc_full);

    // Ground truth for the structure is the *computed* new weight: the
    // number of partial-item promotions is whatever reconciles the full
    // count with ⌊new_weight⌋ (0 or 1 in exact arithmetic; the clamp
    // guards the representability edge where α or β rounded to 1).
    let mut promotions = (new_weight.floor() as usize).saturating_sub(full.len());
    let mut candidates: Vec<(T, f64)> = acc_partial
        .map(|p| (p, alpha))
        .into_iter()
        .chain(inc_partial.map(|p| (p, beta)))
        .collect();
    promotions = promotions.min(candidates.len());

    if promotions == 1 && candidates.len() == 2 {
        // Promote one of the two partials; the other keeps fraction α+β−1.
        let (_, a) = candidates[0];
        let (_, b) = candidates[1];
        let p_first = (1.0 - b) / (2.0 - a - b);
        let keep = if rng.gen::<f64>() < p_first { 0 } else { 1 };
        full.push(candidates.swap_remove(keep).0);
    } else {
        for _ in 0..promotions {
            // 0 or 1 candidates: promotion is forced, not randomized.
            full.push(candidates.pop().expect("promotion needs a candidate").0);
        }
    }

    let frac = new_weight - new_weight.floor();
    let partial = if frac > 0.0 && !candidates.is_empty() {
        let item = if candidates.len() == 2 {
            // Both partials survived below the integer boundary: keep the
            // accumulator's with probability α/(α+β).
            let (_, a) = candidates[0];
            let (_, b) = candidates[1];
            let idx = usize::from(rng.gen::<f64>() >= a / (a + b));
            candidates.swap_remove(idx).0
        } else {
            candidates.pop().expect("candidate").0
        };
        Some(item)
    } else {
        None
    };

    *acc = LatentSample::from_raw_parts(full, partial, new_weight);
}

impl<T: Clone> MergeableSample for RTbs<T> {
    type Item = T;

    fn make_shards(spec: &ShardSpec) -> Vec<Self> {
        spec.validate();
        let n_k = spec.shard_capacity();
        (0..spec.cells())
            .map(|_| {
                let mut s = RTbs::new(spec.lambda, n_k);
                s.set_ingest_mode(spec.ingest);
                s.set_defer_threshold(spec.defer_threshold);
                s
            })
            .collect()
    }

    fn merge_targets(shards: &[Self], spec: &ShardSpec) -> MergeScalars {
        assert_eq!(shards.len(), spec.cells(), "shard cell count mismatch");
        let n = spec.capacity as f64;
        let w: f64 = shards.iter().map(|s| s.total_weight()).sum();
        let c = w.min(n);
        let leaf_targets = shards
            .iter()
            .map(|s| {
                let w_k = s.total_weight();
                let c_k = s.sample_weight();
                if w_k <= 0.0 || c_k <= 0.0 {
                    return 0.0;
                }
                // The min() guards floating-point ulps at the c_k
                // boundary (the balanced split guarantees c·w_k/w ≤ c_k
                // analytically).
                (c * w_k / w).min(c_k)
            })
            .collect();
        MergeScalars {
            leaf_targets,
            total_weight: w,
            steps: shards
                .iter()
                .map(|s| s.batches_observed())
                .max()
                .unwrap_or(0),
        }
    }

    fn merge_leaf(mut self, target: f64, rng: &mut Xoshiro256PlusPlus) -> Self {
        // A fork taken mid-deferral materializes on the leaf's own
        // substream (the live shard keeps its pending state untouched);
        // no-op consuming no randomness when nothing is deferred.
        self.materialize_deferred(rng);
        if target > 0.0 && target < self.sample_weight() {
            crate::downsample::downsample(self.latent_mut(), target, rng);
        }
        self
    }

    fn merge_pair(left: Self, right: Self, spec: &ShardSpec, rng: &mut Xoshiro256PlusPlus) -> Self {
        let (_, _, l_w, l_steps, mut latent) = left.into_merge_parts();
        let (_, _, r_w, r_steps, incoming) = right.into_merge_parts();
        merge_latent(&mut latent, incoming, rng);
        // Subtree weight/steps are only carried for bookkeeping; the root
        // gets the exact global scalars in merge_finalize.
        RTbs::from_merge_parts(
            spec.lambda,
            spec.capacity,
            l_w + r_w,
            l_steps.max(r_steps),
            latent,
        )
    }

    fn merge_finalize(root: Self, scalars: &MergeScalars, spec: &ShardSpec) -> Self {
        let (_, _, _, _, latent) = root.into_merge_parts();
        RTbs::from_merge_parts(
            spec.lambda,
            spec.capacity,
            scalars.total_weight,
            scalars.steps,
            latent,
        )
    }

    fn observe_shard<R: Rng + ?Sized>(&mut self, batch: &mut Vec<T>, rng: &mut R) {
        self.observe_drain(batch, rng);
    }

    fn total_stream_weight(&self) -> Option<f64> {
        Some(self.total_weight())
    }

    fn realize_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<T>) {
        self.sample_into(rng, out);
    }

    fn expected_size(&self) -> f64 {
        self.sample_weight()
    }
}

impl<T: Clone> MergeableSample for TTbs<T> {
    type Item = T;

    fn make_shards(spec: &ShardSpec) -> Vec<Self> {
        spec.validate();
        // Every shard runs the *global* configuration: the acceptance rate
        // q = n(1−e^{−λ})/b does not depend on the sub-stream, so shard
        // samples already obey the single-node inclusion law and sum to
        // the global equilibrium size n.
        (0..spec.cells())
            .map(|_| {
                let mut s = TTbs::new(spec.lambda, spec.capacity, spec.mean_batch);
                s.set_ingest_mode(spec.ingest);
                s
            })
            .collect()
    }

    fn merge_targets(shards: &[Self], spec: &ShardSpec) -> MergeScalars {
        assert_eq!(shards.len(), spec.cells(), "shard cell count mismatch");
        MergeScalars {
            // No leaf step: shard states already obey the single-node law.
            leaf_targets: Vec::new(),
            total_weight: 0.0,
            steps: shards
                .iter()
                .map(|s| s.batches_observed())
                .max()
                .unwrap_or(0),
        }
    }

    fn merge_leaf(self, _target: f64, _rng: &mut Xoshiro256PlusPlus) -> Self {
        self
    }

    fn merge_pair(
        left: Self,
        right: Self,
        spec: &ShardSpec,
        _rng: &mut Xoshiro256PlusPlus,
    ) -> Self {
        // Left-then-right concatenation: any tree shape over ordered
        // leaves reproduces the shard-order concatenation exactly.
        let mut items = Vec::with_capacity(left.len() + right.len());
        items.extend_from_slice(left.items());
        items.extend_from_slice(right.items());
        let mut merged = TTbs::with_initial(spec.lambda, spec.capacity, spec.mean_batch, items);
        merged.set_steps(left.batches_observed().max(right.batches_observed()));
        merged
    }

    fn merge_finalize(root: Self, scalars: &MergeScalars, spec: &ShardSpec) -> Self {
        let mut merged = TTbs::with_initial(
            spec.lambda,
            spec.capacity,
            spec.mean_batch,
            root.items().to_vec(),
        );
        merged.set_steps(scalars.steps);
        merged
    }

    fn observe_shard<R: Rng + ?Sized>(&mut self, batch: &mut Vec<T>, rng: &mut R) {
        self.observe_drain(batch, rng);
    }

    fn total_stream_weight(&self) -> Option<f64> {
        None
    }

    fn realize_into<R: Rng + ?Sized>(&self, _rng: &mut R, out: &mut Vec<T>) {
        out.clear();
        out.extend_from_slice(self.items());
    }

    fn expected_size(&self) -> f64 {
        self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    #[test]
    fn partition_is_deterministic_and_exhaustive() {
        let mut a: Vec<u32> = (0..17).collect();
        let mut b: Vec<u32> = (0..17).collect();
        let mut out_a = vec![Vec::new(); 4];
        let mut out_b = vec![Vec::new(); 4];
        partition_batch(&mut a, 2, &mut out_a);
        partition_batch(&mut b, 2, &mut out_b);
        assert_eq!(out_a, out_b);
        let total: usize = out_a.iter().map(Vec::len).sum();
        assert_eq!(total, 17);
        let mut all: Vec<u32> = out_a.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn partition_sizes_stay_within_one_of_even() {
        let mut out = vec![Vec::new(); 3];
        for (b, rotation) in [(10usize, 0usize), (11, 1), (12, 2), (0, 0), (2, 5)] {
            let mut batch: Vec<u32> = (0..b as u32).collect();
            partition_batch(&mut batch, rotation, &mut out);
            for part in &out {
                let diff = part.len() as f64 - b as f64 / 3.0;
                assert!(diff.abs() < 1.0, "b={b}: shard got {}", part.len());
            }
        }
    }

    #[test]
    fn partition_rotation_moves_the_remainder() {
        // 7 items over 3 shards: the shard receiving 3 items follows the
        // rotation.
        let mut heavy = Vec::new();
        for rotation in 0..3 {
            let mut batch: Vec<u32> = (0..7).collect();
            let mut out = vec![Vec::new(); 3];
            partition_batch(&mut batch, rotation, &mut out);
            heavy.push(out.iter().position(|p| p.len() == 3).unwrap());
        }
        assert_eq!(heavy.len(), 3);
        assert_ne!(heavy[0], heavy[1]);
    }

    #[test]
    fn shard_capacity_has_headroom() {
        // ⌈1000/4⌉ + 1: one spare slot, amortized across the merge by the
        // balanced split — not the old per-shard ⌈1/(1−e^{−λ})⌉.
        assert_eq!(ShardSpec::rtbs(0.1, 1000, 4).shard_capacity(), 251);
        assert_eq!(ShardSpec::rtbs(0.1, 1000, 8).shard_capacity(), 126);
        assert_eq!(ShardSpec::rtbs(0.1, 1000, 16).shard_capacity(), 64);
        assert_eq!(ShardSpec::rtbs(0.1, 1000, 32).shard_capacity(), 33);
        assert_eq!(ShardSpec::rtbs(0.1, 1000, 1).shard_capacity(), 1000);
    }

    #[test]
    fn cells_halve_until_group_threshold_is_met() {
        // Grouping off (threshold 0): cells == shards.
        assert_eq!(ShardSpec::rtbs(0.1, 1000, 64).cells(), 64);
        // ⌈1000/64⌉ = 16 < 24 → halve to 32; ⌈1000/32⌉ = 32 ≥ 24 → stop.
        let spec = ShardSpec::rtbs(0.1, 1000, 64).with_group_threshold(24);
        assert_eq!(spec.cells(), 32);
        assert_eq!(spec.shard_capacity(), 33);
        // K = 32 already meets the threshold: ungrouped.
        let spec = ShardSpec::rtbs(0.1, 1000, 32).with_group_threshold(24);
        assert_eq!(spec.cells(), 32);
        // Tiny reservoir: halving bottoms out at a single shared cell.
        let spec = ShardSpec::rtbs(0.1, 10, 64).with_group_threshold(24);
        assert_eq!(spec.cells(), 1);
        assert_eq!(spec.shard_capacity(), 10);
        // Threshold met exactly at K: no grouping.
        let spec = ShardSpec::rtbs(0.1, 96, 4).with_group_threshold(24);
        assert_eq!(spec.cells(), 4);
    }

    /// A latent sample tagged from `base`: ⌊w⌋ full items plus a partial
    /// (`base + 99`) when `w` is fractional.
    fn raw_with_weight(base: u32, w: f64) -> LatentSample<u32> {
        let full: Vec<u32> = (base..base + w.floor() as u32).collect();
        let partial = (w.fract() > 0.0).then_some(base + 99);
        LatentSample::from_raw_parts(full, partial, w)
    }

    #[test]
    fn absorb_matches_merge_latent_bit_for_bit() {
        // `LatentSample::absorb` (the deferred-downsample union) must be
        // draw-for-draw identical to the merge tree's `merge_latent` —
        // same RNG consumption, same structure — across every candidate
        // configuration: 0/1/2 partials, promotion and no-promotion.
        let weights = [2.0f64, 2.7, 2.2, 1.6, 1.3, 0.4, 0.9, 3.0, 1.0];
        for (i, &w1) in weights.iter().enumerate() {
            for (j, &w2) in weights.iter().enumerate() {
                for seed in 0..10u64 {
                    let seed = 1000 + seed + (i * weights.len() + j) as u64 * 100;
                    let mut rng_m = Xoshiro256PlusPlus::seed_from_u64(seed);
                    let mut rng_a = Xoshiro256PlusPlus::seed_from_u64(seed);

                    let mut acc_m = raw_with_weight(0, w1);
                    let inc_m = raw_with_weight(100, w2);
                    merge_latent(&mut acc_m, inc_m, &mut rng_m);

                    let mut acc_a = raw_with_weight(0, w1);
                    let mut inc_a = raw_with_weight(100, w2);
                    acc_a.absorb(&mut inc_a, &mut rng_a);

                    assert_eq!(
                        acc_m.full_items(),
                        acc_a.full_items(),
                        "({w1}, {w2}) seed {seed}: full items diverged"
                    );
                    assert_eq!(acc_m.partial_item(), acc_a.partial_item());
                    assert_eq!(acc_m.weight().to_bits(), acc_a.weight().to_bits());
                    // Same number of draws: the streams stay in lockstep.
                    assert_eq!(rng_m.gen::<u64>(), rng_a.gen::<u64>());
                }
            }
        }
    }

    #[test]
    fn balanced_split_is_deterministic_and_exhaustive() {
        let mut sa = BalancedSplitter::new(0.1, 4);
        let mut sb = BalancedSplitter::new(0.1, 4);
        let mut out_a = vec![Vec::new(); 4];
        let mut out_b = vec![Vec::new(); 4];
        for t in 0..20u32 {
            let b = [17u32, 0, 5, 100, 3][t as usize % 5];
            let mut batch_a: Vec<u32> = (0..b).collect();
            let mut batch_b = batch_a.clone();
            sa.split(&mut batch_a, &mut out_a);
            sb.split(&mut batch_b, &mut out_b);
            assert_eq!(out_a, out_b, "t={t}: split depends on something hidden");
            let mut all: Vec<u32> = out_a.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, (0..b).collect::<Vec<_>>(), "t={t}: items lost");
            for part in &out_a {
                let diff = part.len() as f64 - b as f64 / 4.0;
                assert!(diff.abs() < 1.0, "t={t}: chunk {}", part.len());
            }
        }
        assert_eq!(sa.deviations(), sb.deviations());
    }

    #[test]
    fn balanced_split_bounds_every_deviation_by_one() {
        // |D_k| ≤ 1 for adversarial schedules at several K and λ — the
        // invariant that licenses the ⌈n/K⌉+1 capacity.
        for k in [2usize, 3, 7, 8, 16, 32] {
            for lambda in [0.01f64, 0.1, 0.5, 2.0] {
                let mut splitter = BalancedSplitter::new(lambda, k);
                let mut out = vec![Vec::new(); k];
                // Remainder-heavy sizes (b mod K ≠ 0 almost always).
                for t in 0..500usize {
                    let b = [1usize, k - 1, 3 * k + 1, 0, 2 * k + k / 2, 1000][t % 6];
                    let mut batch: Vec<u32> = (0..b as u32).collect();
                    splitter.split(&mut batch, &mut out);
                    let sum: f64 = splitter.deviations().iter().sum();
                    assert!(sum.abs() < 1e-6, "K={k} λ={lambda}: ΣD = {sum}");
                    for (i, d) in splitter.deviations().iter().enumerate() {
                        assert!(
                            d.abs() <= 1.0 + 1e-9,
                            "K={k} λ={lambda} t={t}: |D_{i}| = {}",
                            d.abs()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn balanced_split_state_round_trips() {
        let mut a = BalancedSplitter::new(0.2, 3);
        let mut out = vec![Vec::new(); 3];
        for t in 0..7u32 {
            let mut batch: Vec<u32> = (0..10 + t).collect();
            a.split(&mut batch, &mut out);
        }
        let mut b = BalancedSplitter::from_deviations(0.2, a.deviations().to_vec());
        for _ in 0..7 {
            let mut batch_a: Vec<u32> = (0..11).collect();
            let mut batch_b = batch_a.clone();
            let mut out_b = vec![Vec::new(); 3];
            a.split(&mut batch_a, &mut out);
            b.split(&mut batch_b, &mut out_b);
            assert_eq!(out, out_b, "restored splitter diverged");
        }
    }

    #[test]
    fn merge_plan_shapes_are_canonical() {
        for k in [1usize, 2, 3, 5, 8, 13, 16, 32] {
            let plan = MergePlan::new(k);
            assert_eq!(plan.leaves(), k);
            assert_eq!(plan.node_count(), 2 * k - 1);
            assert_eq!(plan.pairs().len(), k - 1);
            let expect_depth = (k as f64).log2().ceil() as usize;
            assert_eq!(plan.depth(), expect_depth, "K={k}");
            assert_eq!(plan.parent(plan.root()), None);
            // Children precede parents, every non-root has a parent, and
            // each node is referenced as a child exactly once.
            let mut seen = vec![0u32; plan.node_count()];
            for (i, &(l, r)) in plan.pairs().iter().enumerate() {
                let node = k + i;
                assert!(l < node && r < node, "K={k}: pair {i} not topo-sorted");
                assert_eq!(plan.parent(l), Some(node));
                assert_eq!(plan.parent(r), Some(node));
                seen[l] += 1;
                seen[r] += 1;
            }
            for (node, &count) in seen.iter().enumerate() {
                let expect = u32::from(node != plan.root());
                assert_eq!(count, expect, "K={k}: node {node} referenced {count}×");
            }
        }
    }

    #[test]
    fn merge_plan_pairs_preserve_leaf_order() {
        // In-order traversal of any plan must visit leaves 0..K in order:
        // the property that lets T-TBS concatenate pairwise.
        for k in [2usize, 3, 6, 7, 16] {
            let plan = MergePlan::new(k);
            fn visit(plan: &MergePlan, node: usize, out: &mut Vec<usize>) {
                if node < plan.leaves() {
                    out.push(node);
                } else {
                    let (l, r) = plan.pairs()[node - plan.leaves()];
                    visit(plan, l, out);
                    visit(plan, r, out);
                }
            }
            let mut order = Vec::new();
            visit(&plan, plan.root(), &mut order);
            assert_eq!(order, (0..k).collect::<Vec<_>>(), "K={k}");
        }
    }

    #[test]
    fn merge_replay_does_not_touch_node_substreams_afterwards() {
        // The caller's RNG must land exactly one long_jump past its entry
        // state, regardless of how much randomness the tree consumed.
        let spec = ShardSpec::rtbs(0.3, 40, 4);
        let mut shards = RTbs::<u64>::make_shards(&spec);
        let mut feed_rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut splitter = BalancedSplitter::new(spec.lambda, 4);
        let mut out = vec![Vec::new(); 4];
        for t in 0..50u64 {
            let mut batch: Vec<u64> = (0..33).map(|i| t * 100 + i).collect();
            splitter.split(&mut batch, &mut out);
            for (shard, sub) in shards.iter_mut().zip(out.iter_mut()) {
                shard.observe_drain(sub, &mut feed_rng);
            }
        }
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut expected = rng.clone();
        expected.long_jump();
        let _ = merge_replay(shards, &spec, &mut rng);
        assert_eq!(rng.state(), expected.state());
    }

    #[test]
    #[should_panic(expected = "requires λ > 0")]
    fn rejects_undecayed_sharding() {
        let spec = ShardSpec::rtbs(0.0, 100, 4);
        let _ = RTbs::<u64>::make_shards(&spec);
    }

    #[test]
    fn merge_latent_weight_and_counts_consistent() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        // Fold several fractional latent samples and check invariants hold
        // after every fold.
        let mut acc = LatentSample::<u32>::empty();
        let mut expect_weight = 0.0;
        for (full, frac) in [(3usize, 0.25), (2, 0.5), (0, 0.9), (4, 0.0), (1, 0.75)] {
            let l = if frac > 0.0 {
                // Downsample from an integral state to produce a valid
                // fractional latent sample of weight full + frac.
                let mut x = LatentSample::from_full((0..=full as u32).collect());
                crate::downsample::downsample(&mut x, full as f64 + frac, &mut rng);
                x
            } else {
                LatentSample::from_full((0..full as u32).collect())
            };
            expect_weight += l.weight();
            merge_latent(&mut acc, l, &mut rng);
            acc.check_invariants().unwrap();
            assert!((acc.weight() - expect_weight).abs() < 1e-9);
        }
    }

    #[test]
    fn merge_latent_partial_inclusion_probabilities_are_exact() {
        // Two latent samples with only partial items (weights α and β):
        // after merging, item A must realize with probability α and item B
        // with probability β, for α+β below and above one.
        let trials = 200_000u64;
        for (alpha, beta) in [(0.3f64, 0.4f64), (0.7, 0.6), (0.5, 0.5), (0.9, 0.2)] {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
            let mut hits_a = 0u64;
            let mut hits_b = 0u64;
            for _ in 0..trials {
                let a = LatentSample::from_raw_parts(vec![], Some(1u8), alpha);
                let b = LatentSample::from_raw_parts(vec![], Some(2u8), beta);
                let mut acc = LatentSample::empty();
                merge_latent(&mut acc, a, &mut rng);
                merge_latent(&mut acc, b, &mut rng);
                acc.check_invariants().unwrap();
                let mut out = Vec::new();
                acc.realize_into(&mut rng, &mut out);
                hits_a += u64::from(out.contains(&1));
                hits_b += u64::from(out.contains(&2));
            }
            let pa = hits_a as f64 / trials as f64;
            let pb = hits_b as f64 / trials as f64;
            assert!(
                (pa - alpha).abs() < 0.005,
                "α={alpha}, β={beta}: Pr[A]={pa}"
            );
            assert!((pb - beta).abs() < 0.005, "α={alpha}, β={beta}: Pr[B]={pb}");
        }
    }

    #[test]
    fn rtbs_merge_preserves_weights_exactly() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let spec = ShardSpec::rtbs(0.1, 50, 4);
        let mut shards = RTbs::<u64>::make_shards(&spec);
        let mut splitter = BalancedSplitter::new(spec.lambda, 4);
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for t in 0..200u64 {
            let b = [30u64, 0, 120, 5][t as usize % 4];
            let mut batch: Vec<u64> = (0..b).map(|i| t * 1000 + i).collect();
            splitter.split(&mut batch, &mut out);
            for (shard, sub) in shards.iter_mut().zip(out.iter_mut()) {
                shard.observe_drain(sub, &mut rng);
            }
        }
        let w: f64 = shards.iter().map(|s| s.total_weight()).sum();
        let merged = RTbs::merge_shards(shards, &spec, &mut rng);
        assert!((merged.total_weight() - w).abs() < 1e-9);
        assert!((merged.sample_weight() - w.min(50.0)).abs() < 1e-9);
        assert!(merged.latent().check_invariants().is_ok());
        let mut sample = Vec::new();
        merged.realize_into(&mut rng, &mut sample);
        assert!(sample.len() <= 50);
    }

    #[test]
    fn ttbs_merge_concatenates() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let spec = ShardSpec::ttbs(0.1, 100, 40.0, 2);
        let mut shards = TTbs::<u64>::make_shards(&spec);
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); 2];
        for t in 0..100u64 {
            let mut batch: Vec<u64> = (0..40).map(|i| t * 100 + i).collect();
            partition_batch(&mut batch, t as usize, &mut out);
            for (shard, sub) in shards.iter_mut().zip(out.iter_mut()) {
                shard.observe_drain(sub, &mut rng);
            }
        }
        let total: usize = shards.iter().map(TTbs::len).sum();
        let merged = TTbs::merge_shards(shards, &spec, &mut rng);
        assert_eq!(merged.len(), total);
    }
}
