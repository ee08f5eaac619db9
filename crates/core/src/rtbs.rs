//! R-TBS — reservoir-based time-biased sampling (§4, Algorithm 2).
//!
//! The paper's headline contribution: the first sampling scheme that
//! simultaneously
//!
//! 1. enforces the exponential relative-inclusion property (1) **at all
//!    times** — `Pr[i ∈ S_t] = (C_t/W_t)·w_t(i)` for every item (Thm 4.2);
//! 2. guarantees the hard bound `|S_t| ≤ n`;
//! 3. handles **unknown, arbitrarily varying** arrival rates, including
//!    real-valued inter-arrival gaps.
//!
//! Among all decay-correct schemes it *maximizes* the expected sample size
//! whenever the total weight is below `n` (Thm 4.3) and *minimizes*
//! sample-size variance (Thm 4.4, via stochastic rounding).
//!
//! The state is a latent fractional sample (see [`crate::latent`]) plus the
//! total weight `W_t = Σ_j |B_j|·e^{−λ(t−j)}`; the sample weight is always
//! `C_t = min(n, W_t)`. Four transitions arise per batch, depending on
//! whether the reservoir is *saturated* (`W ≥ n`) before and after.

use crate::checkpoint::{check_non_negative, CheckpointError, Reader, Wire, Writer};
use crate::downsample::downsample_with;
use crate::jumps::IngestMode;
use crate::latent::LatentSample;
use crate::util::check_gap;
use crate::util::{uniform_index, DecayCache};
use rand::Rng;
use tbs_stats::binomial::CachedBinomial;
use tbs_stats::rounding::stochastic_round;

/// Reservoir-based time-biased sampler with decay rate λ and capacity `n`.
///
/// # Performance
///
/// The inherent `observe`/`observe_after`/`sample` methods are generic
/// over the RNG — call them with a concrete generator (e.g.
/// `Xoshiro256PlusPlus`) and the whole per-batch transition is
/// monomorphized with the RNG inlined into the inner loops. Steady-state
/// ingest performs **zero heap allocations** beyond the caller-provided
/// batch: victims are overwritten by in-place swaps, the unit-gap decay
/// factor is memoized, and the latent sample's buffers persist at their
/// high-water capacity.
#[derive(Debug, Clone)]
pub struct RTbs<T> {
    latent: LatentSample<T>,
    /// Total decayed weight `W_t` of all items seen so far.
    total_weight: f64,
    decay: DecayCache,
    capacity: usize,
    steps: u64,
    mode: IngestMode,
    /// Memoized BINV setup for the jump path's per-batch accept-count
    /// draw; pure acceleration state (never persisted, draw-for-draw
    /// identical to the one-shot sampler).
    binom: CachedBinomial,
    /// Deferred-downsample drift threshold θ ∈ (0, 1]. At 1.0 (the
    /// default) every unsaturated step physically downsamples, exactly as
    /// Algorithm 2 writes it. Below 1.0 the unsaturated transition instead
    /// accumulates the decay factor into [`Self::pending_scale`] (one
    /// multiply per batch) and parks arrivals in [`Self::pending`]; the
    /// physical sweep runs only when the accumulated scale drifts below θ
    /// or a merge/realize/saturation forces materialization. Theorem 4.1's
    /// uniform scaling composes multiplicatively, so the deferred sweep
    /// realizes exactly the same inclusion probabilities (see
    /// [`Self::materialize_deferred`]).
    defer_threshold: f64,
    /// Accumulated lazy decay scale `P = Π e^{−λ·gap}` since the last
    /// materialization; 1.0 when nothing is deferred.
    pending_scale: f64,
    /// Arrival segments deferred since the last materialization:
    /// `(item count, P at arrival)` in arrival order. An item that arrived
    /// when the scale was `P_j` must, at materialization scale `P`, be
    /// included with probability `P/P_j` — the product of every per-step
    /// decay factor since its arrival.
    segments: Vec<(usize, f64)>,
    /// The deferred arrivals themselves, concatenated in segment order.
    pending: Vec<T>,
    /// Scratch latent sample for the per-segment downsample during
    /// materialization; retained so the fold allocates nothing at its
    /// high-water footprint.
    scratch: LatentSample<T>,
}

impl<T> RTbs<T> {
    /// Create an empty R-TBS sampler.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative/non-finite or `capacity` is zero.
    pub fn new(lambda: f64, capacity: usize) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "decay rate must be finite and non-negative, got {lambda}"
        );
        assert!(capacity > 0, "capacity must be positive");
        Self {
            latent: LatentSample::empty(),
            total_weight: 0.0,
            decay: DecayCache::new(lambda),
            capacity,
            steps: 0,
            mode: IngestMode::PerItem,
            binom: CachedBinomial::new(),
            defer_threshold: 1.0,
            pending_scale: 1.0,
            segments: Vec::new(),
            pending: Vec::new(),
            scratch: LatentSample::empty(),
        }
    }

    /// The active [`IngestMode`].
    pub fn ingest_mode(&self) -> IngestMode {
        self.mode
    }

    /// Switch between per-item and jump-ahead ingest. The mode is a
    /// *strategy*, not sampler identity: it may be flipped at any batch
    /// boundary (including after a checkpoint restore) and both modes
    /// realize the same Theorem 4.2 inclusion probabilities — they just
    /// spend the RNG stream differently. Not persisted by
    /// [`Self::save_state`]; restore paths re-apply the caller's config.
    pub fn set_ingest_mode(&mut self, mode: IngestMode) {
        self.mode = mode;
    }

    /// Create a sampler pre-loaded with an initial sample `A₀`
    /// (`|A₀| ≤ n` required); its items carry weight 1 each.
    pub fn with_initial(lambda: f64, capacity: usize, initial: Vec<T>) -> Self {
        assert!(initial.len() <= capacity, "initial sample exceeds capacity");
        let mut s = Self::new(lambda, capacity);
        s.total_weight = initial.len() as f64;
        s.latent = LatentSample::from_full(initial);
        s
    }

    /// Total decayed weight `W_t`.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The deferred-downsample drift threshold θ (see
    /// [`Self::set_defer_threshold`]); 1.0 means eager downsampling.
    pub fn defer_threshold(&self) -> f64 {
        self.defer_threshold
    }

    /// Enable batch-granular (deferred) downsampling with drift threshold
    /// `theta ∈ (0, 1]`. At 1.0 (the default) the sampler runs Algorithm 2
    /// eagerly; below 1.0 unsaturated steps accumulate the decay factor as
    /// a lazy scalar and the physical downsample sweep is deferred until
    /// the scale drifts below θ (or a merge/realize/saturation forces it),
    /// turning the per-batch `O(n_k)` bookkeeping into `O(1)` amortized.
    /// The realized inclusion probabilities are exactly those of the eager
    /// path (Theorem 4.1 scaling composes multiplicatively); only the RNG
    /// spend schedule differs. For `theta > e^{−λ}` materialization fires
    /// every step and the run is bit-identical to the eager path.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not in `(0, 1]`, or if a deferral is already
    /// pending (the threshold is configuration, set before ingest).
    pub fn set_defer_threshold(&mut self, theta: f64) {
        assert!(
            theta.is_finite() && theta > 0.0 && theta <= 1.0,
            "defer threshold must lie in (0, 1], got {theta}"
        );
        assert!(
            !self.has_deferred(),
            "cannot change the defer threshold mid-deferral"
        );
        self.defer_threshold = theta;
    }

    /// Whether a deferred downsample is pending (the latent sample lags
    /// the true weight by the accumulated scale `P < 1`).
    pub fn has_deferred(&self) -> bool {
        self.pending_scale < 1.0
    }

    /// Sample weight `C_t = min(n, W_t)` — the expected realized size.
    pub fn sample_weight(&self) -> f64 {
        if self.has_deferred() {
            // Deferral only happens while unsaturated, where C = W; the
            // physical latent weight is stale until materialization.
            self.total_weight.min(self.capacity as f64)
        } else {
            self.latent.weight()
        }
    }

    /// Whether the reservoir is saturated (`W_t ≥ n`, so `|S_t| = n`).
    pub fn is_saturated(&self) -> bool {
        self.total_weight >= self.capacity as f64
    }

    /// Access the underlying latent sample (full items + optional partial).
    ///
    /// While a deferral is pending ([`Self::has_deferred`]) this is the
    /// *stale* physical state — its weight lags `C_t` by the accumulated
    /// scale and the deferred arrivals are not yet folded in. Realization
    /// and merging materialize first; use [`Self::sample_weight`] for the
    /// true `C_t`.
    pub fn latent(&self) -> &LatentSample<T> {
        &self.latent
    }

    /// Mutable access for the shard-merge algebra, which downsamples a
    /// shard's latent state to its merged target weight.
    pub(crate) fn latent_mut(&mut self) -> &mut LatentSample<T> {
        &mut self.latent
    }

    /// The capacity bound `n`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Advance the clock by one time unit and absorb the arriving batch —
    /// the monomorphized fast path (see the type-level docs).
    #[inline]
    pub fn observe<R: Rng + ?Sized>(&mut self, mut batch: Vec<T>, rng: &mut R) {
        let decay = self.decay.unit();
        self.step_with_decay(&mut batch, decay, rng);
    }

    /// [`Self::observe`] from a caller-owned buffer: the batch items are
    /// drained out of `batch` (accepted ones move into the sample; rejected
    /// ones and any evicted victims are left behind for the caller to
    /// `clear`), and the buffer's allocation survives the call. This is the
    /// ingest entry point for pipelines that recycle batch buffers — e.g.
    /// the sharded parallel engine in `tbs-distributed` — where dropping a
    /// `Vec` per batch would force a fresh allocation per batch upstream.
    ///
    /// Statistically and RNG-stream-wise identical to [`Self::observe`].
    #[inline]
    pub fn observe_drain<R: Rng + ?Sized>(&mut self, batch: &mut Vec<T>, rng: &mut R) {
        let decay = self.decay.unit();
        self.step_with_decay(batch, decay, rng);
    }

    /// Absorb a batch arriving `gap` time units after the previous one.
    /// Repeated gaps reuse the memoized decay factor instead of calling
    /// `exp`.
    ///
    /// # Panics
    ///
    /// Panics if `gap` is negative or non-finite.
    pub fn observe_after<R: Rng + ?Sized>(&mut self, mut batch: Vec<T>, gap: f64, rng: &mut R) {
        check_gap(gap);
        let decay = self.decay.factor(gap);
        self.step_with_decay(&mut batch, decay, rng);
    }

    /// Advance one step with an explicit per-step decay factor in `(0, 1]`.
    ///
    /// This is the arbitrary-decay extension point the paper's §8 points
    /// toward: any decay law whose *relative* item weights shrink by a
    /// common per-step factor (e.g. forward decay with a monotone gauge
    /// `g`, see [`crate::forward`]) reduces to R-TBS with time-varying
    /// factors. The invariant `Pr[i ∈ S_t] = (C_t/W_t)·w_t(i)` is
    /// maintained for the induced weights.
    ///
    /// # Panics
    ///
    /// Panics if `decay` is outside `(0, 1]`.
    pub fn observe_with_decay<R: Rng + ?Sized>(
        &mut self,
        mut batch: Vec<T>,
        decay: f64,
        rng: &mut R,
    ) {
        assert!(
            decay > 0.0 && decay <= 1.0,
            "per-step decay factor must lie in (0, 1], got {decay}"
        );
        self.step_with_decay(&mut batch, decay, rng);
    }

    /// Expected size of `S_t` — the sample weight `C_t`.
    pub fn expected_size(&self) -> f64 {
        self.sample_weight()
    }

    /// Hard upper bound on the sample size: `Some(n)`.
    pub fn max_size(&self) -> Option<usize> {
        Some(self.capacity)
    }

    /// Exponential decay rate λ.
    pub fn decay_rate(&self) -> f64 {
        self.decay.lambda()
    }

    /// Number of batches observed so far.
    pub fn batches_observed(&self) -> u64 {
        self.steps
    }

    /// Short identifier used in experiment output.
    pub fn name(&self) -> &'static str {
        "R-TBS"
    }

    /// One batch transition. Items are *drained* out of `batch` (its
    /// allocation is never dropped here), so both the owned `observe` entry
    /// points and the buffer-recycling `observe_drain` share this body.
    fn step_with_decay<R: Rng + ?Sized>(&mut self, batch: &mut Vec<T>, decay: f64, rng: &mut R) {
        let n = self.capacity as f64;
        let batch_size = batch.len();

        // Jump mode spends randomness per batch instead of per item; the
        // retention sweeps inside `downsample` switch to complement-side
        // draws, and the saturated→saturated transition below replaces the
        // per-victim Fisher–Yates loop with a binomial count plus windowed
        // segment swaps (see `crate::jumps` for the equivalence argument).
        let cheap = self.mode == IngestMode::Jump;

        if self.total_weight < n {
            // ——— Previously unsaturated: C = W. ———
            if self.defer_threshold < 1.0 {
                self.step_unsaturated_deferred(batch, batch_size, decay, n, cheap, rng);
            } else {
                self.total_weight *= decay; // line 6: decay current items
                if self.total_weight > 0.0 && !self.latent.is_empty() {
                    // line 8: downsample to the decayed weight
                    downsample_with(&mut self.latent, self.total_weight, rng, cheap);
                } else if self.total_weight == 0.0 {
                    self.latent.clear();
                }
                // line 9-10: accept all arriving items as full
                self.latent.push_full(batch.drain(..));
                self.total_weight += batch_size as f64;
                if self.total_weight > n {
                    // line 12: overshoot — downsample to n; now saturated.
                    downsample_with(&mut self.latent, n, rng, cheap);
                }
            }
        } else {
            // ——— Previously saturated: C = n, no partial item. ———
            let new_weight = self.total_weight * decay + batch_size as f64; // line 14
            if new_weight >= n {
                if cheap && batch_size <= self.capacity && self.latent.frac() == 0.0 {
                    // Jump path: each batch item is accepted independently
                    // w.p. p = n/W, so draw the accept *count* exactly as
                    // M ~ Binomial(|B|, p) and exchange a random donor
                    // window against a random victim window — three RNG
                    // draws and a couple of `memcpy`-grade segment swaps
                    // for the whole batch. Guarded on |B| ≤ n so M can
                    // never exceed the victim pool (when it could, the
                    // per-item path below handles the batch instead).
                    let p = (n / new_weight).min(1.0);
                    let m = self.binom.draw(rng, batch_size as u64, p) as usize;
                    if m > 0 {
                        let c = uniform_index(rng, self.latent.full_items().len());
                        let r = uniform_index(rng, batch_size);
                        self.latent.replace_window_from(batch, m, c, r);
                    }
                } else {
                    // Per-item path: accept each batch item w.p. n/W via a
                    // single stochastically rounded count (lines 16-17),
                    // then swap the accepted items over uniformly chosen
                    // victims in place — no intermediate vectors. The
                    // evicted victims are swapped back into `batch`, whose
                    // leftover contents the caller discards.
                    let m_exact = batch_size as f64 * n / new_weight;
                    let m = (stochastic_round(rng, m_exact) as usize)
                        .min(batch_size)
                        .min(self.capacity);
                    self.latent.replace_random_full_from(batch, m, rng);
                }
            } else {
                // Undershoot: shrink the old sample to the decayed weight
                // W' = W_new − |B_t|, then accept the batch as full items
                // (lines 19-20); now unsaturated with C = W again.
                let decayed_old = new_weight - batch_size as f64;
                downsample_with(&mut self.latent, decayed_old, rng, cheap);
                self.latent.push_full(batch.drain(..));
            }
            self.total_weight = new_weight;
        }
        self.steps += 1;
        debug_assert!(self.latent.check_invariants().is_ok());
        debug_assert!(self.latent.weight() <= n + 1e-9);
    }

    /// The unsaturated transition with batch-granular downsampling
    /// (`defer_threshold < 1`). Instead of physically downsampling every
    /// step (lines 6–8 of Algorithm 2), the decay factor accumulates into
    /// the lazy scale `P` and arrivals park in [`Self::pending`] stamped
    /// with the scale at arrival. The physical sweep runs when `P` drifts
    /// below θ, when the pending buffer exceeds its high-water bound, or
    /// when saturation forces it.
    ///
    /// **Exactness (Theorem 4.1).** Downsampling scales every item's
    /// inclusion probability by the same factor, so consecutive
    /// downsamples compose multiplicatively: an item resident since scale
    /// `P_j` owes a total factor `P/P_j` at materialization scale `P` —
    /// exactly the product of the per-step factors the eager path would
    /// have applied. The weight recursion `W_t = d·W_{t−1} + |B_t|` is
    /// maintained eagerly either way, so `C = W` stays bit-identical to
    /// the eager path and the overshoot/saturation boundary fires on the
    /// same step.
    fn step_unsaturated_deferred<R: Rng + ?Sized>(
        &mut self,
        batch: &mut Vec<T>,
        batch_size: usize,
        decay: f64,
        n: f64,
        cheap: bool,
        rng: &mut R,
    ) {
        self.total_weight *= decay;
        self.pending_scale *= decay;
        if self.total_weight == 0.0 {
            self.latent.clear();
            self.pending.clear();
            self.segments.clear();
            self.pending_scale = 1.0;
        } else if self.pending_scale < self.defer_threshold
            || self.pending.len() >= self.capacity.saturating_mul(4)
        {
            self.materialize_deferred(rng);
        }
        if self.pending_scale < 1.0 {
            // Park the arrivals; they are certain acceptances (C = W), so
            // only their count and arrival scale matter until the sweep.
            if batch_size > 0 {
                self.segments.push((batch_size, self.pending_scale));
                self.pending.append(batch);
            }
        } else {
            self.latent.push_full(batch.drain(..));
        }
        self.total_weight += batch_size as f64;
        if self.total_weight > n {
            // Overshoot — materialize (the current batch folds in at
            // scale 1, spending no randomness, exactly like the eager
            // accept) and downsample to n; now saturated.
            self.materialize_deferred(rng);
            // The materialized weight equals the eagerly tracked W up to
            // float ulps; clamp so the target never exceeds the physical C.
            let target = n.min(self.latent.weight());
            downsample_with(&mut self.latent, target, rng, cheap);
        }
    }

    /// Run the deferred physical downsample: bring the resident latent
    /// sample to scale, then fold every pending arrival segment in at its
    /// composed scale `P/P_j` (a segment-local downsample + the §4.1
    /// stochastic-rounding union, [`LatentSample::absorb`]). Consumes no
    /// randomness when nothing is deferred; resets `P` to 1. The pending
    /// buffers keep their allocations for reuse.
    pub(crate) fn materialize_deferred<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.pending_scale >= 1.0 {
            return;
        }
        let cheap = self.mode == IngestMode::Jump;
        if !self.latent.is_empty() {
            let target = self.pending_scale * self.latent.weight();
            if target > 0.0 {
                downsample_with(&mut self.latent, target, rng, cheap);
            } else {
                // The scale underflowed (e.g. one enormous gap): the
                // resident items' inclusion probability is ≈ 0.
                self.latent.clear();
            }
        }
        let mut items = self.pending.drain(..);
        for &(count, stamp) in &self.segments {
            let scale = self.pending_scale / stamp;
            if scale >= 1.0 {
                // Arrived at the current scale (the segment pushed this
                // very step): certain acceptance, no randomness — the
                // eager path's line 9-10.
                self.latent.push_full(items.by_ref().take(count));
            } else {
                let seg_target = scale * count as f64;
                if seg_target > 0.0 {
                    self.scratch.clear();
                    self.scratch.push_full(items.by_ref().take(count));
                    downsample_with(&mut self.scratch, seg_target, rng, cheap);
                    self.latent.absorb(&mut self.scratch, rng);
                } else {
                    items.by_ref().take(count).for_each(drop);
                }
            }
        }
        debug_assert!(items.next().is_none(), "segment counts cover pending");
        drop(items);
        self.segments.clear();
        self.pending_scale = 1.0;
        debug_assert!(self.latent.check_invariants().is_ok());
    }

    /// Decompose into the merge-relevant parts `(λ, n, W, steps, latent)` —
    /// consumed by [`crate::merge`]'s shard-union algebra. The caller must
    /// have materialized any deferred downsample first (the merge's leaf
    /// step does).
    pub(crate) fn into_merge_parts(self) -> (f64, usize, f64, u64, LatentSample<T>) {
        debug_assert!(!self.has_deferred(), "merge parts require materialization");
        (
            self.decay.lambda(),
            self.capacity,
            self.total_weight,
            self.steps,
            self.latent,
        )
    }

    /// Reassemble a sampler from merged parts. The caller (the shard-merge
    /// algebra) must supply a latent sample whose weight equals
    /// `min(capacity, total_weight)` up to rounding.
    pub(crate) fn from_merge_parts(
        lambda: f64,
        capacity: usize,
        total_weight: f64,
        steps: u64,
        latent: LatentSample<T>,
    ) -> Self {
        let s = Self {
            latent,
            total_weight,
            decay: DecayCache::new(lambda),
            capacity,
            steps,
            mode: IngestMode::PerItem,
            binom: CachedBinomial::new(),
            defer_threshold: 1.0,
            pending_scale: 1.0,
            segments: Vec::new(),
            pending: Vec::new(),
            scratch: LatentSample::empty(),
        };
        debug_assert!(s.latent.check_invariants().is_ok());
        s
    }
}

impl<T: Wire> RTbs<T> {
    /// Serialize the complete sampler state — configuration, weights, the
    /// latent sample — into `w`. [`Self::load_state`] rebuilds a sampler
    /// that continues the stream **bit-identically** to an uninterrupted
    /// run (given the caller also persists its RNG position).
    pub fn save_state(&self, w: &mut Writer) {
        w.put_f64(self.decay.lambda());
        w.put_u64(self.capacity as u64);
        w.put_f64(self.total_weight);
        w.put_u64(self.steps);
        w.put_f64(self.latent.weight());
        w.put_items(self.latent.full_items().iter());
        match self.latent.partial_item() {
            Some(p) => {
                w.put_u8(1);
                w.put_item(p);
            }
            None => w.put_u8(0),
        }
        // Batch-granular downsampling state (format v4). A mid-deferral
        // snapshot persists the lazy scale and the parked segments
        // *verbatim* — materializing here would consume randomness and
        // break the bit-identical-resume contract.
        w.put_f64(self.defer_threshold);
        w.put_f64(self.pending_scale);
        w.put_u64(self.segments.len() as u64);
        for &(count, stamp) in &self.segments {
            w.put_u64(count as u64);
            w.put_f64(stamp);
        }
        w.put_items(self.pending.iter());
    }

    /// Rebuild a sampler from a [`Self::save_state`] payload, validating
    /// every field (no panics on corrupt input).
    pub fn load_state(r: &mut Reader) -> Result<Self, CheckpointError> {
        let lambda = check_non_negative(r.get_f64()?, "R-TBS lambda")?;
        let capacity = r.get_u64()? as usize;
        if capacity == 0 {
            return Err(CheckpointError::Corrupt("R-TBS capacity"));
        }
        let total_weight = check_non_negative(r.get_f64()?, "R-TBS total weight")?;
        let steps = r.get_u64()?;
        let weight = check_non_negative(r.get_f64()?, "R-TBS sample weight")?;
        if weight > capacity as f64 + 1e-6 {
            return Err(CheckpointError::Corrupt("R-TBS sample weight > capacity"));
        }
        let full = r.get_items()?;
        let partial = match r.get_u8()? {
            0 => None,
            1 => Some(r.get_item()?),
            _ => return Err(CheckpointError::Corrupt("R-TBS partial tag")),
        };
        let latent = LatentSample::try_from_raw_parts(full, partial, weight)
            .map_err(|_| CheckpointError::Corrupt("R-TBS latent sample"))?;
        let defer_threshold = r.get_f64()?;
        if !defer_threshold.is_finite() || defer_threshold <= 0.0 || defer_threshold > 1.0 {
            return Err(CheckpointError::Corrupt("R-TBS defer threshold"));
        }
        let pending_scale = r.get_f64()?;
        // The step invariant keeps P in [θ, 1]: P only leaves 1 by decay
        // multiplication and materializes back to 1 the moment it drifts
        // below θ. Anything else (NaN, > 1, below θ, ≤ 0) is corruption.
        if !pending_scale.is_finite() || pending_scale > 1.0 || pending_scale < defer_threshold {
            return Err(CheckpointError::Corrupt("R-TBS lazy scale"));
        }
        let seg_count = r.get_u64()? as usize;
        r.check_count(seg_count, 16)?;
        let mut segments = Vec::with_capacity(seg_count);
        let mut total_pending = 0usize;
        let mut prev_stamp = 1.0f64;
        for _ in 0..seg_count {
            let count = r.get_u64()? as usize;
            let stamp = r.get_f64()?;
            // Segments are stamped with P at arrival: positive counts,
            // stamps non-increasing in arrival order, all within
            // [pending_scale, 1].
            if count == 0
                || !stamp.is_finite()
                || stamp > prev_stamp
                || stamp < pending_scale
                || stamp <= 0.0
            {
                return Err(CheckpointError::Corrupt("R-TBS deferred segment"));
            }
            total_pending = total_pending.saturating_add(count);
            prev_stamp = stamp;
            segments.push((count, stamp));
        }
        let pending: Vec<T> = r.get_items()?;
        if pending.len() != total_pending || (pending_scale >= 1.0 && !pending.is_empty()) {
            return Err(CheckpointError::Corrupt("R-TBS deferred arrivals"));
        }
        Ok(Self {
            latent,
            total_weight,
            decay: DecayCache::new(lambda),
            capacity,
            steps,
            mode: IngestMode::PerItem,
            binom: CachedBinomial::new(),
            defer_threshold,
            pending_scale,
            segments,
            pending,
            scratch: LatentSample::empty(),
        })
    }
}

impl<T: Clone> RTbs<T> {
    /// Realize the current sample `S_t` — the monomorphized fast path.
    ///
    /// With batch-granular downsampling enabled a pending deferral is
    /// materialized on a clone first (the live ingest state is never
    /// disturbed by realization), so `S_t` carries exactly the Theorem 4.2
    /// inclusion probabilities at every `t`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<T> {
        if self.has_deferred() {
            let mut snap = self.clone();
            snap.materialize_deferred(rng);
            return snap.latent.realize(rng);
        }
        self.latent.realize(rng)
    }

    /// Realize `S_t` into a caller-owned buffer; allocation-free once the
    /// buffer capacity covers the sample footprint (a pending deferral is
    /// materialized on a clone first, as in [`Self::sample`]).
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<T>) {
        if self.has_deferred() {
            let mut snap = self.clone();
            snap.materialize_deferred(rng);
            snap.latent.realize_into(rng, out);
            return;
        }
        self.latent.realize_into(rng, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tbs_stats::rng::Xoshiro256PlusPlus;

    fn feed_constant(s: &mut RTbs<u64>, batches: u64, b: u64, rng: &mut Xoshiro256PlusPlus) {
        for t in 0..batches {
            s.observe((0..b).map(|i| t * b + i).collect(), rng);
        }
    }

    #[test]
    fn never_exceeds_capacity() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
        let mut s = RTbs::new(0.05, 100);
        for t in 0..200u64 {
            // Erratic batch sizes, including empty and huge.
            let b = [0u64, 1, 250, 7, 90, 1000][t as usize % 6];
            s.observe((0..b).collect(), &mut rng);
            let sample = s.sample(&mut rng);
            assert!(sample.len() <= 100, "overflow at t={t}: {}", sample.len());
            assert!(s.sample_weight() <= 100.0 + 1e-9);
        }
    }

    #[test]
    fn saturated_with_fast_stream_holds_exactly_n() {
        // Fig 1(b): constant b=100, λ=0.1 → W* = 100/(1−e^{-0.1}) ≈ 1051 > n
        // for n = 1000, so after fill-up the sample is pinned at n.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(2);
        let mut s = RTbs::new(0.1, 1000);
        feed_constant(&mut s, 100, 100, &mut rng);
        for t in 0..100u64 {
            s.observe((0..100).map(|i| t * 100 + i).collect(), &mut rng);
            assert!(s.is_saturated());
            assert_eq!(s.sample(&mut rng).len(), 1000);
        }
    }

    #[test]
    fn unsaturated_equilibrium_matches_paper_1479() {
        // §6.3: n=1600, b=100, λ=0.07 → reservoir never fills, stabilizing
        // at b/(1−e^{-λ}) ≈ 1479 items.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(3);
        let mut s = RTbs::new(0.07, 1600);
        feed_constant(&mut s, 400, 100, &mut rng);
        assert!(!s.is_saturated());
        let c = s.sample_weight();
        assert!(
            (c - 1479.0).abs() < 2.0,
            "equilibrium sample weight {c}, expected ≈1479"
        );
    }

    #[test]
    fn total_weight_recursion_is_exact() {
        // W_t = e^{-λ} W_{t-1} + |B_t| regardless of saturation state.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(4);
        let lambda = 0.3;
        let mut s = RTbs::new(lambda, 50);
        let mut w = 0.0f64;
        for t in 0..100u64 {
            let b = [30u64, 0, 120, 5][t as usize % 4];
            w = w * (-lambda).exp() + b as f64;
            s.observe((0..b).collect(), &mut rng);
            assert!(
                (s.total_weight() - w).abs() < 1e-6 * w.max(1.0),
                "t={t}: tracked {} vs exact {w}",
                s.total_weight()
            );
        }
    }

    #[test]
    fn inclusion_probability_matches_theorem_4_2() {
        // Monte-Carlo check of Pr[i ∈ S_t] = (C_t/W_t)·w_t(i) on a stream
        // that exercises unsaturated → saturated → unsaturated transitions.
        let lambda = 0.4f64;
        let n = 6usize;
        let schedule: &[u64] = &[4, 4, 0, 8, 0, 0, 3];
        let trials = 120_000usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(5);

        // Count appearances keyed by (batch index, item) — all items of one
        // batch are exchangeable, so aggregate per batch.
        let mut appear: Vec<u64> = vec![0; schedule.len()];
        let mut w_final = 0.0;
        let mut c_final = 0.0;
        for _ in 0..trials {
            let mut s: RTbs<(usize, u64)> = RTbs::new(lambda, n);
            for (bi, &b) in schedule.iter().enumerate() {
                s.observe((0..b).map(|i| (bi, i)).collect(), &mut rng);
            }
            w_final = s.total_weight();
            c_final = s.sample_weight();
            for (bi, _) in s.sample(&mut rng) {
                appear[bi] += 1;
            }
        }
        let t_final = schedule.len() as f64 - 1.0;
        for (bi, &b) in schedule.iter().enumerate() {
            if b == 0 {
                continue;
            }
            // w_t(i) for an item of batch bi (arrival time bi, 0-indexed).
            let age = t_final - bi as f64;
            let w_item = (-lambda * age).exp();
            let expect = (c_final / w_final) * w_item;
            let phat = appear[bi] as f64 / (trials as f64 * b as f64);
            let tol = 4.5 * (expect * (1.0 - expect) / (trials as f64 * b as f64)).sqrt() + 0.003;
            assert!(
                (phat - expect).abs() < tol,
                "batch {bi}: phat {phat} vs expect {expect}"
            );
        }
    }

    #[test]
    fn relative_inclusion_property_eq_1() {
        // Items two batches apart must appear with probability ratio e^{-2λ}.
        let lambda = 0.35f64;
        let trials = 100_000usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
        let mut old_hits = 0u64;
        let mut new_hits = 0u64;
        for _ in 0..trials {
            let mut s: RTbs<u8> = RTbs::new(lambda, 4);
            s.observe(vec![1, 1], &mut rng); // t=1 items tagged 1
            s.observe(vec![2, 2], &mut rng); // t=2
            s.observe(vec![3, 3], &mut rng); // t=3
            for item in s.sample(&mut rng) {
                match item {
                    1 => old_hits += 1,
                    3 => new_hits += 1,
                    _ => {}
                }
            }
        }
        let ratio = old_hits as f64 / new_hits as f64;
        let expect = (-2.0 * lambda).exp();
        assert!(
            (ratio - expect).abs() < 0.02,
            "ratio {ratio} vs e^(-2λ) {expect}"
        );
    }

    #[test]
    fn empty_stream_decays_weight_to_zero() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(7);
        let mut s = RTbs::with_initial(1.0, 10, (0..10u64).collect());
        for _ in 0..50 {
            s.observe(vec![], &mut rng);
        }
        assert!(s.total_weight() < 1e-6);
        assert!(s.sample(&mut rng).len() <= 1);
    }

    #[test]
    fn zero_decay_behaves_like_uniform_reservoir_size() {
        // λ = 0: weight equals item count; sample size = min(n, count).
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(8);
        let mut s = RTbs::new(0.0, 25);
        feed_constant(&mut s, 10, 10, &mut rng);
        assert_eq!(s.total_weight(), 100.0);
        assert_eq!(s.sample(&mut rng).len(), 25);
    }

    #[test]
    fn real_valued_gaps_decay_correctly() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(9);
        let lambda = 0.5;
        let mut s = RTbs::new(lambda, 100);
        s.observe_after(vec![0u8; 10], 1.0, &mut rng);
        s.observe_after(vec![], 2.5, &mut rng);
        let expect = 10.0 * (-lambda * 2.5f64).exp();
        assert!((s.total_weight() - expect).abs() < 1e-9);
    }

    #[test]
    fn single_giant_batch_saturates_immediately() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(10);
        let mut s = RTbs::new(0.1, 10);
        s.observe((0..1000u64).collect(), &mut rng);
        assert!(s.is_saturated());
        assert_eq!(s.sample(&mut rng).len(), 10);
        assert_eq!(s.total_weight(), 1000.0);
    }

    #[test]
    fn saturation_boundary_exact_n() {
        // Arrivals summing exactly to n: saturated with full integral sample.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(11);
        let mut s = RTbs::new(0.0, 20);
        s.observe((0..20u64).collect(), &mut rng);
        assert!(s.is_saturated());
        assert_eq!(s.sample(&mut rng).len(), 20);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        RTbs::<u8>::new(0.1, 0);
    }

    #[test]
    fn trait_metadata() {
        let s = RTbs::<u8>::new(0.07, 11);
        assert_eq!(s.name(), "R-TBS");
        assert_eq!(s.max_size(), Some(11));
        assert_eq!(s.decay_rate(), 0.07);
    }

    #[test]
    fn deferral_with_high_threshold_is_bit_identical_to_eager() {
        // θ > e^{-λ} forces materialization every unsaturated step, which
        // must replay the eager path draw-for-draw: same RNG consumption,
        // same latent bits, same saturation boundary. This pins the lazy
        // machinery to Algorithm 2 exactly in the degenerate regime.
        let lambda = 0.2f64; // e^{-0.2} ≈ 0.819 < θ = 0.9
        let mut rng_e = Xoshiro256PlusPlus::seed_from_u64(40);
        let mut rng_l = Xoshiro256PlusPlus::seed_from_u64(40);
        let mut eager: RTbs<u64> = RTbs::new(lambda, 64);
        let mut lazy: RTbs<u64> = RTbs::new(lambda, 64);
        lazy.set_defer_threshold(0.9);
        for t in 0..300u64 {
            // Erratic sizes crossing the saturation boundary both ways.
            let b = [9u64, 0, 31, 2, 0, 80, 1, 200][t as usize % 8];
            let items: Vec<u64> = (0..b).map(|i| t * 1000 + i).collect();
            eager.observe(items.clone(), &mut rng_e);
            lazy.observe(items, &mut rng_l);
            assert!(!lazy.has_deferred());
            assert_eq!(
                eager.total_weight().to_bits(),
                lazy.total_weight().to_bits(),
                "weight diverged at t={t}"
            );
            assert_eq!(
                eager.latent().weight().to_bits(),
                lazy.latent().weight().to_bits()
            );
            assert_eq!(
                eager.latent().full_items(),
                lazy.latent().full_items(),
                "full items diverged at t={t}"
            );
            assert_eq!(eager.latent().partial_item(), lazy.latent().partial_item());
        }
    }

    #[test]
    fn deferred_weight_recursion_and_capacity_hold() {
        // Deep deferral must not perturb the exact W recursion or let the
        // realized sample exceed n.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
        let lambda = 0.3;
        let mut s: RTbs<u64> = RTbs::new(lambda, 50);
        s.set_defer_threshold(1e-9);
        let mut w = 0.0f64;
        for t in 0..200u64 {
            let b = [30u64, 0, 120, 5, 0, 0, 2][t as usize % 7];
            w = w * (-lambda).exp() + b as f64;
            s.observe((0..b).collect(), &mut rng);
            assert!(
                (s.total_weight() - w).abs() < 1e-6 * w.max(1.0),
                "t={t}: tracked {} vs exact {w}",
                s.total_weight()
            );
            assert!(s.sample_weight() <= 50.0 + 1e-9);
            assert!(s.sample(&mut rng).len() <= 50);
        }
    }

    #[test]
    fn deferred_inclusion_probability_matches_theorem_4_2() {
        // The eager Theorem 4.2 Monte-Carlo, re-run with θ small enough
        // that deferral windows span multiple steps and materialization
        // composes scales P/P_j across parked segments (λ=0.4 ⇒ per-step
        // decay 0.67 ≫ θ). Tiny n keeps the unsaturated↔saturated churn.
        let lambda = 0.4f64;
        let n = 6usize;
        let schedule: &[u64] = &[4, 4, 0, 8, 0, 0, 3];
        let trials = 120_000usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(43);

        let mut appear: Vec<u64> = vec![0; schedule.len()];
        let mut w_final = 0.0;
        let mut c_final = 0.0;
        for _ in 0..trials {
            let mut s: RTbs<(usize, u64)> = RTbs::new(lambda, n);
            s.set_defer_threshold(0.01);
            for (bi, &b) in schedule.iter().enumerate() {
                s.observe((0..b).map(|i| (bi, i)).collect(), &mut rng);
            }
            w_final = s.total_weight();
            c_final = s.sample_weight();
            for (bi, _) in s.sample(&mut rng) {
                appear[bi] += 1;
            }
        }
        let t_final = schedule.len() as f64 - 1.0;
        for (bi, &b) in schedule.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let age = t_final - bi as f64;
            let w_item = (-lambda * age).exp();
            let expect = (c_final / w_final) * w_item;
            let phat = appear[bi] as f64 / (trials as f64 * b as f64);
            let tol = 4.5 * (expect * (1.0 - expect) / (trials as f64 * b as f64)).sqrt() + 0.003;
            assert!(
                (phat - expect).abs() < tol,
                "batch {bi}: phat {phat} vs expect {expect}"
            );
        }
    }

    #[test]
    fn deferred_unsaturated_window_matches_exponential_weights() {
        // A purely unsaturated stream inside one long deferral window:
        // C = W throughout, so Pr[i ∈ S] = w_t(i) = e^{-λ·age} exactly.
        let lambda = 0.4f64;
        let schedule: &[u64] = &[3, 2, 0, 1, 2, 0, 1];
        let trials = 60_000usize;
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(44);
        let mut appear: Vec<u64> = vec![0; schedule.len()];
        for _ in 0..trials {
            let mut s: RTbs<(usize, u64)> = RTbs::new(lambda, 20);
            s.set_defer_threshold(1e-4);
            for (bi, &b) in schedule.iter().enumerate() {
                s.observe((0..b).map(|i| (bi, i)).collect(), &mut rng);
            }
            assert!(s.has_deferred(), "window must span the whole stream");
            for (bi, _) in s.sample(&mut rng) {
                appear[bi] += 1;
            }
        }
        let t_final = schedule.len() as f64 - 1.0;
        for (bi, &b) in schedule.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let expect = (-lambda * (t_final - bi as f64)).exp();
            let phat = appear[bi] as f64 / (trials as f64 * b as f64);
            let tol = 4.5 * (expect * (1.0 - expect) / (trials as f64 * b as f64)).sqrt() + 0.003;
            assert!(
                (phat - expect).abs() < tol,
                "batch {bi}: phat {phat} vs expect {expect}"
            );
        }
    }

    #[test]
    fn mid_deferral_checkpoint_resumes_bit_identically() {
        // Snapshot while a downsample is pending, restore, and continue:
        // the restored run must track the uninterrupted one bit-for-bit.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(45);
        let batch = |t: u64| -> Vec<u64> {
            let b = [7u64, 0, 12, 3][t as usize % 4];
            (0..b).map(|i| t * 100 + i).collect()
        };
        let mut s: RTbs<u64> = RTbs::new(0.1, 500);
        s.set_defer_threshold(1e-6);
        for t in 0..10 {
            s.observe(batch(t), &mut rng);
        }
        assert!(s.has_deferred(), "the cut must land mid-deferral");

        let mut w = Writer::new();
        s.save_state(&mut w);
        let mut r = Reader::new(w.finish()).unwrap();
        let mut restored = RTbs::<u64>::load_state(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert!(restored.has_deferred());
        assert_eq!(restored.defer_threshold(), s.defer_threshold());

        let mut rng2 = rng.clone();
        for t in 10..40 {
            s.observe(batch(t), &mut rng);
            restored.observe(batch(t), &mut rng2);
            assert_eq!(
                s.total_weight().to_bits(),
                restored.total_weight().to_bits()
            );
            assert_eq!(s.latent().full_items(), restored.latent().full_items());
            assert_eq!(s.latent().partial_item(), restored.latent().partial_item());
        }
        let mut rc1 = rng.clone();
        let mut rc2 = rng2.clone();
        assert_eq!(s.sample(&mut rc1), restored.sample(&mut rc2));
    }

    fn header_through_empty_latent(w: &mut Writer) {
        w.put_f64(0.1); // lambda
        w.put_u64(8); // capacity
        w.put_f64(4.0); // total weight
        w.put_u64(3); // steps
        w.put_f64(0.0); // latent weight
        w.put_items(std::iter::empty::<&u64>()); // full items
        w.put_u8(0); // no partial
    }

    #[test]
    fn load_state_rejects_impossible_lazy_scale() {
        // P must live in [θ, 1]; a scale above 1 (or below θ) is corrupt.
        let mut w = Writer::new();
        header_through_empty_latent(&mut w);
        w.put_f64(0.5); // θ
        w.put_f64(1.5); // P > 1 — impossible
        w.put_u64(0); // no segments
        w.put_items(std::iter::empty::<&u64>()); // no pending
        let mut r = Reader::new(w.finish()).unwrap();
        assert_eq!(
            RTbs::<u64>::load_state(&mut r).unwrap_err(),
            CheckpointError::Corrupt("R-TBS lazy scale")
        );

        let mut w = Writer::new();
        header_through_empty_latent(&mut w);
        w.put_f64(0.5); // θ
        w.put_f64(0.25); // P < θ — the step invariant forbids this
        w.put_u64(0);
        w.put_items(std::iter::empty::<&u64>());
        let mut r = Reader::new(w.finish()).unwrap();
        assert_eq!(
            RTbs::<u64>::load_state(&mut r).unwrap_err(),
            CheckpointError::Corrupt("R-TBS lazy scale")
        );
    }

    #[test]
    fn load_state_rejects_malformed_deferred_segments() {
        // Segment stamps must be non-increasing within [P, 1].
        let mut w = Writer::new();
        header_through_empty_latent(&mut w);
        w.put_f64(0.5); // θ
        w.put_f64(0.6); // P
        w.put_u64(1);
        w.put_u64(2); // count
        w.put_f64(0.4); // stamp below P — impossible
        w.put_items([1u64, 2].iter());
        let mut r = Reader::new(w.finish()).unwrap();
        assert_eq!(
            RTbs::<u64>::load_state(&mut r).unwrap_err(),
            CheckpointError::Corrupt("R-TBS deferred segment")
        );

        // Segment counts must cover the pending arrivals exactly.
        let mut w = Writer::new();
        header_through_empty_latent(&mut w);
        w.put_f64(0.5);
        w.put_f64(0.6);
        w.put_u64(1);
        w.put_u64(2); // claims two arrivals…
        w.put_f64(0.8);
        w.put_items([1u64].iter()); // …but carries one
        let mut r = Reader::new(w.finish()).unwrap();
        assert_eq!(
            RTbs::<u64>::load_state(&mut r).unwrap_err(),
            CheckpointError::Corrupt("R-TBS deferred arrivals")
        );
    }

    #[test]
    #[should_panic(expected = "cannot change the defer threshold mid-deferral")]
    fn defer_threshold_is_fixed_while_deferred() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(46);
        let mut s: RTbs<u8> = RTbs::new(0.2, 100);
        s.set_defer_threshold(0.001);
        s.observe(vec![1, 2, 3], &mut rng);
        s.observe(vec![4], &mut rng);
        assert!(s.has_deferred());
        s.set_defer_threshold(0.5);
    }
}
