//! The storage budget `s` (§V-A of the paper).
//!
//! `s ∈ [0, 1]` specifies how much memory *on top of* the CSR graph may be
//! spent on ProbGraph structures (the evaluation never exceeds 33 %). This
//! module turns a budget into concrete per-set sketch parameters: Bloom
//! filter bits `B`, MinHash `k`, KMV `k`.
//!
//! Two planners share the same never-exceeds-budget integer arithmetic:
//!
//! * [`BudgetPlan`] — the paper's resolution: identical parameters for
//!   every set, which is what gives ProbGraph its load-balancing
//!   behaviour.
//! * [`StratifiedPlan`] — degree-stratified resolution: sets are split
//!   into degree-quantile strata (e.g. top-1% / next-9% / rest) and each
//!   stratum gets its own [`SketchParams`], scaled by a power-of-two
//!   byte multiplier over a common base, all at the **same total byte
//!   budget**. Hub vertices dominate both intersection error and runtime
//!   on skewed graphs, so spending the same bytes non-uniformly buys
//!   accuracy exactly where the error concentrates. A 1-stratum spec
//!   resolves bit-identically to the uniform plan.
//!
//! Multipliers are powers of two so that every wider sketch folds
//! *exactly* onto a narrower one (Bloom's Lemire-bucket group-OR fold,
//! HLL's precision downgrade, MinHash's seed-prefix property), which is
//! what keeps cross-stratum estimates identical to both sketches having
//! been built at the narrower geometry.

use crate::geometry::SetGeometry;
use std::fmt;

/// Concrete parameters for one probabilistic representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SketchParams {
    /// Bloom filter: `bits_per_set` bits and `b` hash functions per set.
    Bloom { bits_per_set: usize, b: usize },
    /// Counting Bloom filter: `bits_per_set` buckets, each costing one
    /// derived-view bit **plus** a [`crate::counting_bloom::COUNTER_BITS`]-bit
    /// saturating counter, with `b` hash functions per set.
    CountingBloom { bits_per_set: usize, b: usize },
    /// k-hash MinHash with `k` hash functions (k 32-bit words per set).
    KHash { k: usize },
    /// 1-hash / bottom-k MinHash with sample size `k`.
    OneHash { k: usize },
    /// KMV with `k` stored 64-bit hash values.
    Kmv { k: usize },
    /// HyperLogLog with `2^precision` one-byte registers per set.
    Hll { precision: u8 },
}

impl SketchParams {
    /// Width of one set's sketch window in its collection's slot unit:
    /// view words for (counting) Bloom filters, signature / sample slots
    /// for MinHash, bottom-k and KMV, registers for HLL. Whether a width
    /// is legal is for the collection to decide, not this mapping.
    pub fn window_slots(&self) -> usize {
        match *self {
            SketchParams::Bloom { bits_per_set, .. }
            | SketchParams::CountingBloom { bits_per_set, .. } => bits_per_set.div_ceil(64).max(1),
            SketchParams::KHash { k } | SketchParams::OneHash { k } | SketchParams::Kmv { k } => k,
            SketchParams::Hll { precision } => {
                1usize.checked_shl(u32::from(precision)).unwrap_or(0)
            }
        }
    }
}

/// Why a budget could not be resolved into usable sketch parameters.
///
/// Returned by the `try_*` planners instead of silently degrading the
/// sketch to a floor size the budget cannot actually pay for (the
/// infallible planners debug-assert on the same condition).
// Not `Eq`: the stratum-context variant carries its quantile bounds (f64).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanError {
    /// The per-set byte budget cannot afford even the representation's
    /// minimal sketch (one slot plus its fixed bookkeeping).
    BudgetTooSmall {
        /// Which planner rejected the budget.
        representation: &'static str,
        /// Bytes per set the minimal sketch needs.
        needed_bytes: usize,
        /// Bytes per set the budget provides.
        available_bytes: usize,
    },
    /// A [`StratifiedPlan`] stratum's share of the budget cannot afford
    /// the representation's minimal sketch. Carries the stratum index and
    /// its degree-quantile bounds so the diagnostic names *which* slice of
    /// the degree distribution is underfunded, not just that one is.
    StratumBudgetTooSmall {
        /// Which planner rejected the budget.
        representation: &'static str,
        /// Index of the failing stratum (0 = highest-degree stratum).
        stratum: usize,
        /// Total strata in the spec.
        n_strata: usize,
        /// The stratum covers degree ranks in `[quantile_lo, quantile_hi)`
        /// of the degree-descending order (fractions of `n_sets`).
        quantile_lo: f64,
        /// Exclusive upper quantile bound (1.0 for the base stratum).
        quantile_hi: f64,
        /// Bytes per set the minimal sketch needs.
        needed_bytes: usize,
        /// Bytes per set this stratum's budget share provides.
        available_bytes: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BudgetTooSmall {
                representation,
                needed_bytes,
                available_bytes,
            } => write!(
                f,
                "budget too small for {representation}: minimal sketch needs \
                 {needed_bytes} bytes/set, budget provides {available_bytes}"
            ),
            PlanError::StratumBudgetTooSmall {
                representation,
                stratum,
                n_strata,
                quantile_lo,
                quantile_hi,
                needed_bytes,
                available_bytes,
            } => write!(
                f,
                "budget too small for {representation} in stratum \
                 {stratum}/{n_strata} (degree quantiles \
                 [{quantile_lo:.4}, {quantile_hi:.4})): minimal sketch \
                 needs {needed_bytes} bytes/set, stratum share provides \
                 {available_bytes}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A storage budget resolved against a concrete base representation.
#[derive(Clone, Copy, Debug)]
pub struct BudgetPlan {
    base_bytes: usize,
    n_sets: usize,
    s: f64,
}

impl BudgetPlan {
    /// `base_bytes` is the memory of the exact representation (CSR), and
    /// `s` the additional fraction of it the sketches may use. `n_sets`
    /// may be zero (an empty graph sketches nothing).
    pub fn new(base_bytes: usize, n_sets: usize, s: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&s),
            "storage budget s={s} outside [0,1]"
        );
        BudgetPlan {
            base_bytes,
            n_sets,
            s,
        }
    }

    /// Total sketch bytes allowed.
    ///
    /// `s` is resolved to a 32-bit fixed-point fraction once, then scaled
    /// in pure integer arithmetic with round-half-up — deterministic
    /// across platforms and FP modes, unlike the previous
    /// `(base as f64 * s) as usize`, whose truncation toward zero made
    /// the budget depend on the rounding direction of one multiply.
    /// `s ≤ 1` guarantees the result never exceeds `base_bytes`.
    #[inline]
    pub fn budget_bytes(&self) -> usize {
        let frac = (self.s * (1u64 << 32) as f64).round() as u128;
        let bytes = ((self.base_bytes as u128 * frac + (1u128 << 31)) >> 32) as usize;
        debug_assert!(bytes <= self.base_bytes, "budget exceeds the base bytes");
        bytes
    }

    /// Bytes available per set (zero sets ⇒ zero bytes; parameter
    /// resolution still floors at each representation's minimum size).
    ///
    /// The integer division strands `budget_bytes() % n_sets` bytes — up
    /// to `n_sets - 1` — which the uniform plan cannot spend: handing the
    /// remainder to *some* sets would break the identical-parameters
    /// invariant the whole uniform stack is built on. The stratified
    /// planner ([`StratifiedPlan`]) redistributes that remainder into the
    /// top stratum in whole-slot units instead of stranding it.
    #[inline]
    pub fn bytes_per_set(&self) -> usize {
        match self.n_sets {
            0 => 0,
            n => self.budget_bytes() / n,
        }
    }

    /// Bloom parameters: the largest whole-word bit count fitting the
    /// budget (at least one word — a sketch of zero bits is useless), with
    /// the caller-chosen number of hash functions `b`.
    pub fn bloom(&self, b: usize) -> SketchParams {
        assert!(b > 0);
        let bits = (self.bytes_per_set() * 8) / 64 * 64;
        SketchParams::Bloom {
            bits_per_set: bits.max(64),
            b,
        }
    }

    /// Counting Bloom parameters: each bucket costs one derived-view bit
    /// **plus** a [`crate::counting_bloom::COUNTER_BITS`]-bit saturating
    /// counter, so a byte budget buys `8·bytes / (1 + COUNTER_BITS)`
    /// buckets — the counter width is deducted up front, not borrowed
    /// (the plain-Bloom planner would hand out 5× the buckets for the
    /// same bytes; deletions are what the difference pays for). Rounded
    /// down to whole 64-bit view words (at least one), with the
    /// caller-chosen number of hash functions `b`.
    pub fn counting_bloom(&self, b: usize) -> SketchParams {
        assert!(b > 0);
        let bucket_bits = 1 + crate::counting_bloom::COUNTER_BITS;
        let bits = (self.bytes_per_set() * 8 / bucket_bits) / 64 * 64;
        SketchParams::CountingBloom {
            bits_per_set: bits.max(64),
            b,
        }
    }

    /// Shared guard for the fixed-slot planners: the per-set byte budget,
    /// provided it affords at least the minimal footprint. The vacuous
    /// zero-sets plan returns the minimum itself — nothing will be
    /// allocated, but callers still resolve usable minimal parameters —
    /// so the planners below need no `.max(1)` floors: this guard is the
    /// single source of `k ≥ 1`.
    #[inline]
    fn afford(
        &self,
        representation: &'static str,
        needed_bytes: usize,
    ) -> Result<usize, PlanError> {
        if self.n_sets == 0 {
            return Ok(needed_bytes);
        }
        let available_bytes = self.bytes_per_set();
        if available_bytes >= needed_bytes {
            Ok(available_bytes)
        } else {
            Err(PlanError::BudgetTooSmall {
                representation,
                needed_bytes,
                available_bytes,
            })
        }
    }

    /// k-hash parameters: `k` = number of 4-byte signature slots that
    /// fit, or [`PlanError::BudgetTooSmall`] when not even one does.
    pub fn try_khash(&self) -> Result<SketchParams, PlanError> {
        let bytes = self.afford("k-hash MinHash", 4)?;
        Ok(SketchParams::KHash { k: bytes / 4 })
    }

    /// k-hash parameters: `k` = number of 4-byte signature slots that fit.
    ///
    /// A budget below one slot is a planning bug: debug builds assert;
    /// release builds fall back to `k = 1` (4 bytes/set past budget) for
    /// robustness. Use [`BudgetPlan::try_khash`] to handle tiny budgets.
    pub fn khash(&self) -> SketchParams {
        self.try_khash().unwrap_or_else(|e| {
            debug_assert!(false, "{e} (use try_khash to handle tiny budgets)");
            SketchParams::KHash { k: 1 }
        })
    }

    /// 1-hash / bottom-k parameters: `k` = number of 8-byte slots (element +
    /// precomputed hash, i.e. Table I's `W·k` bits with `W = 64`), after
    /// deducting the 12 bytes/set of collection bookkeeping (offset + live
    /// length + exact size) so sparse graphs stay inside the budget too.
    ///
    /// `k` is also the **streaming heap capacity**: the mutable bottom-k
    /// layout gives every set a full capacity-`k` region (the bounded
    /// max-heap inserts grow samples toward `k`), so the budget must — and
    /// does — charge all `k · 8` bytes per set up front, whether or not a
    /// static build fills them. `onehash_streaming_capacity_fits_budget`
    /// asserts the invariant.
    pub fn onehash(&self) -> SketchParams {
        self.try_onehash().unwrap_or_else(|e| {
            debug_assert!(false, "{e} (use try_onehash to handle tiny budgets)");
            SketchParams::OneHash { k: 1 }
        })
    }

    /// Fallible form of [`BudgetPlan::onehash`]: the minimal streaming
    /// bottom-k layout is one 8-byte slot plus the 12 bytes/set of
    /// bookkeeping, and a budget below those 20 bytes is reported as
    /// [`PlanError::BudgetTooSmall`] instead of silently degrading to a
    /// `k = 1` that would overrun the per-set budget the capacity
    /// invariant promises to respect.
    pub fn try_onehash(&self) -> Result<SketchParams, PlanError> {
        let bytes = self.afford("1-hash / bottom-k MinHash", 12 + 8)?;
        Ok(SketchParams::OneHash {
            k: (bytes - 12) / 8,
        })
    }

    /// KMV parameters: `k` = number of 8-byte hash values, after deducting
    /// the ~24 bytes of per-sketch bookkeeping ([`crate::KmvSketch`] stores
    /// its length/k/size words individually rather than flat).
    ///
    /// Budgets below one slot + bookkeeping debug-assert (release builds
    /// floor at `k = 1`); use [`BudgetPlan::try_kmv`] to handle them.
    pub fn kmv(&self) -> SketchParams {
        self.try_kmv().unwrap_or_else(|e| {
            debug_assert!(false, "{e} (use try_kmv to handle tiny budgets)");
            SketchParams::Kmv { k: 1 }
        })
    }

    /// Fallible form of [`BudgetPlan::kmv`]: minimal footprint is one
    /// 8-byte slot plus 24 bytes of per-sketch bookkeeping.
    pub fn try_kmv(&self) -> Result<SketchParams, PlanError> {
        let bytes = self.afford("KMV", 24 + 8)?;
        Ok(SketchParams::Kmv {
            k: (bytes - 24) / 8,
        })
    }

    /// HyperLogLog parameters: the largest precision whose `2^p` one-byte
    /// registers fit the per-set budget, clamped to the standard `4..=16`
    /// range.
    pub fn hll(&self) -> SketchParams {
        let bytes = self.bytes_per_set().max(1);
        let precision = (usize::BITS - 1 - bytes.leading_zeros()).clamp(4, 16) as u8;
        SketchParams::Hll { precision }
    }
}

/// Upper bound on strata per plan: assignments are stored (and serialized)
/// as one byte per set, and more than a handful of strata defeats the
/// same-width lane fusion the oracle sweeps rely on.
pub const MAX_STRATA: usize = 8;

/// A degree-stratification spec: how to split the degree-descending order
/// of sets into strata, and how many budget shares each stratum's sets
/// weigh relative to the base stratum.
///
/// `fractions[j]` is the fraction of all sets (by descending degree) that
/// stratum `j` covers; the final stratum takes the remainder. Each
/// `multipliers[j]` is a **power-of-two** per-set byte weight — powers of
/// two so wider sketches fold exactly onto narrower ones for
/// cross-stratum estimates.
#[derive(Clone, Debug, PartialEq)]
pub struct StrataSpec {
    fractions: Vec<f64>,
    multipliers: Vec<usize>,
}

impl StrataSpec {
    /// `fractions.len() + 1 == multipliers.len()`; fractions must be in
    /// `(0, 1)` and sum below 1, multipliers must be powers of two.
    pub fn new(fractions: Vec<f64>, multipliers: Vec<usize>) -> Self {
        assert!(
            !multipliers.is_empty() && multipliers.len() <= MAX_STRATA,
            "need 1..={MAX_STRATA} strata, got {}",
            multipliers.len()
        );
        assert_eq!(
            multipliers.len(),
            fractions.len() + 1,
            "the base stratum takes the remaining fraction implicitly"
        );
        assert!(
            multipliers.iter().all(|&m| m >= 1 && m.is_power_of_two()),
            "multipliers must be powers of two (exact sketch folds): {multipliers:?}"
        );
        assert!(
            fractions.iter().all(|&f| f > 0.0 && f < 1.0),
            "stratum fractions must lie in (0,1): {fractions:?}"
        );
        assert!(
            fractions.iter().sum::<f64>() < 1.0,
            "stratum fractions must leave room for the base stratum"
        );
        StrataSpec {
            fractions,
            multipliers,
        }
    }

    /// The 1-stratum spec: resolves bit-identically to the uniform
    /// [`BudgetPlan`].
    pub fn uniform() -> Self {
        StrataSpec::new(vec![], vec![1])
    }

    /// The default heavy-tail spec: top 1 % of sets at 4× the base byte
    /// share, next 9 % at 2×, the remaining 90 % at 1×.
    pub fn skewed_default() -> Self {
        StrataSpec::new(vec![0.01, 0.09], vec![4, 2, 1])
    }

    /// Number of strata (≥ 1).
    #[inline]
    pub fn n_strata(&self) -> usize {
        self.multipliers.len()
    }

    /// Per-stratum power-of-two byte multipliers.
    #[inline]
    pub fn multipliers(&self) -> &[usize] {
        &self.multipliers
    }

    /// Degree-rank quantile bounds `[lo, hi)` of stratum `j` (fractions of
    /// the degree-descending order; the base stratum's `hi` is 1.0).
    pub fn quantile_bounds(&self, j: usize) -> (f64, f64) {
        let lo: f64 = self.fractions[..j.min(self.fractions.len())].iter().sum();
        let hi = if j >= self.fractions.len() {
            1.0
        } else {
            lo + self.fractions[j]
        };
        (lo, hi)
    }
}

/// Resolved stratified parameters: one [`SketchParams`] per stratum plus
/// the per-set stratum assignment. Stratum 0 is the highest-degree (and
/// widest) stratum. The uniform case is the one-stratum table, which keeps
/// no assignment array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StratifiedParams {
    strata: Vec<SketchParams>,
    /// Per-set stratum indices — empty for one stratum.
    assign: Vec<u8>,
}

impl StratifiedParams {
    /// Bundles a per-stratum parameter table with a per-set assignment.
    /// A one-stratum table drops the assignment (every set is in stratum
    /// 0). Panics if any assignment indexes past the table or the table
    /// exceeds [`MAX_STRATA`].
    pub fn new(strata: Vec<SketchParams>, assign: Vec<u8>) -> Self {
        assert!(
            !strata.is_empty() && strata.len() <= MAX_STRATA,
            "need 1..={MAX_STRATA} strata, got {}",
            strata.len()
        );
        if strata.len() == 1 {
            return Self::uniform(strata[0]);
        }
        assert!(
            assign.iter().all(|&a| (a as usize) < strata.len()),
            "assignment references a stratum past the table"
        );
        StratifiedParams { strata, assign }
    }

    /// The one-stratum table: every set resolves to `params`.
    pub fn uniform(params: SketchParams) -> Self {
        StratifiedParams {
            strata: vec![params],
            assign: Vec::new(),
        }
    }

    /// Per-stratum parameter table (stratum 0 = widest / highest degree).
    #[inline]
    pub fn strata(&self) -> &[SketchParams] {
        &self.strata
    }

    /// Per-set stratum indices (empty for a one-stratum table).
    #[inline]
    pub fn assign(&self) -> &[u8] {
        &self.assign
    }

    /// Stratum of set `i` (always 0 for a one-stratum table).
    #[inline]
    pub fn stratum_of(&self, i: usize) -> usize {
        if self.is_uniform() {
            0
        } else {
            self.assign[i] as usize
        }
    }

    /// The resolved parameters of set `i`.
    #[inline]
    pub fn params_of(&self, i: usize) -> SketchParams {
        self.strata[self.stratum_of(i)]
    }

    #[inline]
    pub fn n_strata(&self) -> usize {
        self.strata.len()
    }

    /// True when there is only one stratum — the uniform layout.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.strata.len() == 1
    }

    /// Canonical form: when every stratum resolved to the *same* params
    /// (e.g. floors swallowed the multiplier at tiny budgets), collapse to
    /// a single stratum so downstream layers take the uniform fast path.
    pub fn collapsed(self) -> Self {
        if self.strata.iter().all(|p| *p == self.strata[0]) {
            Self::uniform(self.strata[0])
        } else {
            self
        }
    }

    /// The same table over a subset of the sets, in `rows` order (row `t`
    /// of the result is set `rows[t]` here).
    pub fn select(&self, rows: impl IntoIterator<Item = usize>) -> Self {
        if self.is_uniform() {
            return self.clone();
        }
        StratifiedParams {
            strata: self.strata.clone(),
            assign: rows.into_iter().map(|u| self.assign[u]).collect(),
        }
    }

    /// The window layout these parameters give `n_sets` sets, in the
    /// collection's slot unit ([`SketchParams::window_slots`]). Every
    /// stratum must be the same representation with the same hash count.
    pub fn geometry(&self, n_sets: usize) -> SetGeometry<'static> {
        let kind = |p: &SketchParams| match *p {
            SketchParams::Bloom { b, .. } | SketchParams::CountingBloom { b, .. } => {
                (std::mem::discriminant(p), b)
            }
            _ => (std::mem::discriminant(p), 0),
        };
        let widths: Vec<usize> = self
            .strata
            .iter()
            .map(|p| {
                assert!(
                    kind(p) == kind(&self.strata[0]),
                    "stratified params mix representations: {p:?}"
                );
                p.window_slots()
            })
            .collect();
        if self.is_uniform() {
            return SetGeometry::uniform(n_sets, widths[0]);
        }
        assert_eq!(self.assign.len(), n_sets, "assignment must cover every set");
        SetGeometry::stratified(widths, self.assign.clone())
    }

    /// Number of sets assigned to each stratum (multi-stratum tables; a
    /// one-stratum table has no assignment to count).
    pub fn counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.strata.len()];
        for &a in &self.assign {
            counts[a as usize] += 1;
        }
        counts
    }
}

/// A [`BudgetPlan`] resolved per degree-quantile stratum instead of
/// uniformly: the same total budget, the same integer never-exceed
/// arithmetic, but each stratum's sets get `multiplier ×` the base byte
/// share. With [`StrataSpec::uniform`] this is exactly [`BudgetPlan`].
#[derive(Clone, Debug)]
pub struct StratifiedPlan {
    plan: BudgetPlan,
    spec: StrataSpec,
}

impl StratifiedPlan {
    pub fn new(plan: BudgetPlan, spec: StrataSpec) -> Self {
        StratifiedPlan { plan, spec }
    }

    /// Assigns each set to its stratum by degree rank: sets are ordered by
    /// descending degree (ties by ascending id — deterministic), the top
    /// `ceil(fractions[0]·n)` go to stratum 0, and so on; the base stratum
    /// takes the tail. Returns the per-set assignment and per-stratum
    /// counts. A one-stratum spec ignores `degrees`.
    pub fn assign(&self, degrees: &[u32]) -> (Vec<u8>, Vec<usize>) {
        let n = self.plan.n_sets;
        let k = self.spec.n_strata();
        if k == 1 {
            // Every set is in stratum 0: degrees are not consulted.
            return (vec![0; n], vec![n]);
        }
        assert_eq!(degrees.len(), n, "degrees must cover every set in the plan");
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(degrees[i as usize]), i));
        let mut assign = vec![(k - 1) as u8; n];
        let mut counts = vec![0usize; k];
        let mut cut_prev = 0usize;
        let mut cum = 0.0f64;
        for (j, count) in counts.iter_mut().enumerate().take(k - 1) {
            cum += self.spec.fractions[j];
            let cut = ((cum * n as f64).ceil() as usize).clamp(cut_prev, n);
            for &i in &order[cut_prev..cut] {
                assign[i as usize] = j as u8;
            }
            *count = cut - cut_prev;
            cut_prev = cut;
        }
        counts[k - 1] = n - cut_prev;
        (assign, counts)
    }

    /// Base per-set byte share `x`: the budget divided by the total weight
    /// `Σ nⱼ·mⱼ`, so stratum `j` sets get `x·mⱼ` bytes and the total never
    /// exceeds the budget. Returns `(x, remainder)` where the remainder is
    /// the stranded `budget mod Σ nⱼ·mⱼ` the slot planners redistribute.
    fn base_share(&self, counts: &[usize]) -> (usize, usize) {
        let weight: usize = counts
            .iter()
            .zip(self.spec.multipliers())
            .map(|(&n, &m)| n * m)
            .sum();
        if weight == 0 {
            return (0, 0);
        }
        let budget = self.plan.budget_bytes();
        (budget / weight, budget % weight)
    }

    fn stratum_err(
        &self,
        representation: &'static str,
        j: usize,
        needed_bytes: usize,
        available_bytes: usize,
    ) -> PlanError {
        let (quantile_lo, quantile_hi) = self.spec.quantile_bounds(j);
        PlanError::StratumBudgetTooSmall {
            representation,
            stratum: j,
            n_strata: self.spec.n_strata(),
            quantile_lo,
            quantile_hi,
            needed_bytes,
            available_bytes,
        }
    }

    /// Shared slot-planner scaffolding: resolves `k = (x·mⱼ − fixed) /
    /// slot` per stratum (vacuous plans resolve the minimum, mirroring
    /// [`BudgetPlan::afford`]), then redistributes the stranded division
    /// remainder into the top stratum in whole-slot units. With one
    /// stratum the remainder is `budget mod n < n < slot·n`, so the
    /// redistribution is exactly zero and the result stays bit-identical
    /// to the uniform planner.
    fn slots(
        &self,
        representation: &'static str,
        degrees: &[u32],
        fixed: usize,
        slot: usize,
        make: impl Fn(usize) -> SketchParams,
    ) -> Result<StratifiedParams, PlanError> {
        let (assign, counts) = self.assign(degrees);
        let (x, remainder) = self.base_share(&counts);
        let vacuous = self.plan.n_sets == 0;
        let mut ks = Vec::with_capacity(self.spec.n_strata());
        for (j, &m) in self.spec.multipliers().iter().enumerate() {
            let share = x * m;
            if vacuous {
                ks.push(1);
            } else if share < fixed + slot {
                return Err(self.stratum_err(representation, j, fixed + slot, share));
            } else {
                ks.push((share - fixed) / slot);
            }
        }
        if !vacuous && counts[0] > 0 {
            ks[0] += remainder / (slot * counts[0]);
        }
        let strata = ks.into_iter().map(make).collect();
        Ok(StratifiedParams::new(strata, assign).collapsed())
    }

    /// Shared scaffolding for the word-aligned filter planners: the base
    /// stratum's bit count is resolved from the base share `x` exactly as
    /// the uniform planner would, then scaled by each stratum's
    /// power-of-two multiplier — keeping every width an exact power-of-two
    /// multiple of the base so wide filters fold onto narrow ones. The
    /// fold constraint is also why the division remainder stays stranded
    /// here (spending it would break the exact width ratios); only the
    /// slot planners redistribute it.
    fn filter_bits(
        &self,
        degrees: &[u32],
        bits_of_share: impl Fn(usize) -> usize,
        make: impl Fn(usize) -> SketchParams,
    ) -> StratifiedParams {
        let (assign, counts) = self.assign(degrees);
        let (x, _remainder) = self.base_share(&counts);
        let base_bits = bits_of_share(x).max(64);
        let strata = self
            .spec
            .multipliers()
            .iter()
            .map(|&m| make(base_bits * m))
            .collect();
        StratifiedParams::new(strata, assign).collapsed()
    }

    /// Stratified Bloom parameters: base-share word rounding as
    /// [`BudgetPlan::bloom`], widths scaled by the power-of-two
    /// multipliers.
    pub fn bloom(&self, degrees: &[u32], b: usize) -> StratifiedParams {
        assert!(b > 0);
        self.filter_bits(
            degrees,
            |share| (share * 8) / 64 * 64,
            |bits| SketchParams::Bloom {
                bits_per_set: bits,
                b,
            },
        )
    }

    /// Stratified counting-Bloom parameters: bucket cost (view bit +
    /// counter bits) charged on the base share as
    /// [`BudgetPlan::counting_bloom`], widths scaled by the multipliers.
    pub fn counting_bloom(&self, degrees: &[u32], b: usize) -> StratifiedParams {
        assert!(b > 0);
        let bucket_bits = 1 + crate::counting_bloom::COUNTER_BITS;
        self.filter_bits(
            degrees,
            |share| (share * 8 / bucket_bits) / 64 * 64,
            |bits| SketchParams::CountingBloom {
                bits_per_set: bits,
                b,
            },
        )
    }

    /// Stratified k-hash parameters (4-byte slots, no fixed overhead).
    pub fn try_khash(&self, degrees: &[u32]) -> Result<StratifiedParams, PlanError> {
        self.slots("k-hash MinHash", degrees, 0, 4, |k| SketchParams::KHash {
            k,
        })
    }

    /// Stratified bottom-k parameters (8-byte slots after the 12 bytes/set
    /// of collection bookkeeping — see [`BudgetPlan::onehash`]).
    pub fn try_onehash(&self, degrees: &[u32]) -> Result<StratifiedParams, PlanError> {
        self.slots("1-hash / bottom-k MinHash", degrees, 12, 8, |k| {
            SketchParams::OneHash { k }
        })
    }

    /// Stratified KMV parameters (8-byte slots after 24 bytes/sketch of
    /// bookkeeping — see [`BudgetPlan::kmv`]).
    pub fn try_kmv(&self, degrees: &[u32]) -> Result<StratifiedParams, PlanError> {
        self.slots("KMV", degrees, 24, 8, |k| SketchParams::Kmv { k })
    }

    /// Stratified HyperLogLog parameters: base precision from the base
    /// share as [`BudgetPlan::hll`], plus `log2(multiplier)` per stratum,
    /// clamped to the standard `4..=16` range (register counts stay exact
    /// powers of two, so wider registers fold onto narrower ones).
    pub fn hll(&self, degrees: &[u32]) -> StratifiedParams {
        let (assign, counts) = self.assign(degrees);
        let (x, _remainder) = self.base_share(&counts);
        let bytes = x.max(1);
        let base_p = (usize::BITS - 1 - bytes.leading_zeros()).clamp(4, 16);
        let strata = self
            .spec
            .multipliers()
            .iter()
            .map(|&m| SketchParams::Hll {
                precision: (base_p + m.trailing_zeros()).clamp(4, 16) as u8,
            })
            .collect();
        StratifiedParams::new(strata, assign).collapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_scales_linearly() {
        let p10 = BudgetPlan::new(1_000_000, 1000, 0.10);
        let p33 = BudgetPlan::new(1_000_000, 1000, 0.33);
        assert_eq!(p10.budget_bytes(), 100_000);
        assert_eq!(p33.budget_bytes(), 330_000);
        assert!(p33.bytes_per_set() > 3 * p10.bytes_per_set() - 8);
    }

    #[test]
    fn bloom_bits_are_word_multiples() {
        let p = BudgetPlan::new(1_000_000, 777, 0.25);
        if let SketchParams::Bloom { bits_per_set, b } = p.bloom(2) {
            assert_eq!(bits_per_set % 64, 0);
            assert_eq!(b, 2);
            // Must not exceed the per-set byte budget (mod word rounding).
            assert!(bits_per_set / 8 <= p.bytes_per_set().max(8));
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn tiny_budgets_error_instead_of_degrading() {
        let p = BudgetPlan::new(100, 1000, 0.01); // ~0 bytes per set
                                                  // Bloom keeps its documented one-word floor (a 64-bit filter is
                                                  // still a filter; fractional words are not).
        assert_eq!(
            p.bloom(1),
            SketchParams::Bloom {
                bits_per_set: 64,
                b: 1
            }
        );
        // The fixed-slot planners report the shortfall instead of quietly
        // handing out a k=1 sketch the budget cannot pay for.
        assert_eq!(
            p.try_khash(),
            Err(PlanError::BudgetTooSmall {
                representation: "k-hash MinHash",
                needed_bytes: 4,
                available_bytes: 0,
            })
        );
        assert!(p.try_onehash().is_err());
        assert!(p.try_kmv().is_err());
        let msg = p.try_kmv().unwrap_err().to_string();
        assert!(msg.contains("KMV") && msg.contains("32"), "{msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "budget too small")]
    fn infallible_planner_asserts_on_tiny_budget() {
        let p = BudgetPlan::new(100, 1000, 0.01);
        let _ = p.onehash();
    }

    #[test]
    fn counting_bloom_charges_counter_width() {
        let p = BudgetPlan::new(8_000_000, 2000, 0.25);
        let (
            SketchParams::CountingBloom { bits_per_set, b },
            SketchParams::Bloom {
                bits_per_set: plain,
                ..
            },
        ) = (p.counting_bloom(2), p.bloom(2))
        else {
            panic!("wrong variants")
        };
        assert_eq!(b, 2);
        assert_eq!(bits_per_set % 64, 0);
        // Each bucket costs 1 view bit + COUNTER_BITS counter bits, so the
        // full footprint must fit the per-set budget...
        let bucket_bits = 1 + crate::counting_bloom::COUNTER_BITS;
        assert!(bits_per_set * bucket_bits / 8 <= p.bytes_per_set());
        // ...and the plain planner hands out ~bucket_bits× the buckets.
        assert!(plain / bits_per_set >= bucket_bits - 1);
        assert!(plain / bits_per_set <= bucket_bits + 1);
        // Tiny budgets floor at one word, like plain Bloom.
        let tiny = BudgetPlan::new(100, 1000, 0.01);
        assert_eq!(
            tiny.counting_bloom(1),
            SketchParams::CountingBloom {
                bits_per_set: 64,
                b: 1
            }
        );
    }

    #[test]
    fn resolved_plans_never_exceed_budget() {
        // Every planner's resolved parameters, multiplied back into bytes,
        // must fit the per-set budget — across scales and budgets, for
        // every representation (floors exempt only the sub-minimal budgets
        // the try_ planners reject).
        let bucket_bits = 1 + crate::counting_bloom::COUNTER_BITS;
        for base in [10_000usize, 777_777, 8_000_000] {
            for n in [3usize, 100, 4096] {
                for s in [0.02, 0.1, 0.25, 0.33, 1.0] {
                    let p = BudgetPlan::new(base, n, s);
                    let bps = p.bytes_per_set();
                    let ctx = format!("base={base} n={n} s={s} bps={bps}");
                    assert!(p.budget_bytes() <= base, "{ctx}");
                    if bps >= 8 {
                        let SketchParams::Bloom { bits_per_set, .. } = p.bloom(2) else {
                            panic!()
                        };
                        assert!(bits_per_set / 8 <= bps, "{ctx}: bloom");
                    }
                    if bps >= bucket_bits * 8 {
                        let SketchParams::CountingBloom { bits_per_set, .. } = p.counting_bloom(2)
                        else {
                            panic!()
                        };
                        assert!(bits_per_set * bucket_bits / 8 <= bps, "{ctx}: cbloom");
                    }
                    if let Ok(SketchParams::KHash { k }) = p.try_khash() {
                        assert!(k * 4 <= bps, "{ctx}: khash");
                    }
                    if let Ok(SketchParams::OneHash { k }) = p.try_onehash() {
                        assert!(k * 8 + 12 <= bps, "{ctx}: onehash");
                    }
                    if let Ok(SketchParams::Kmv { k }) = p.try_kmv() {
                        assert!(k * 8 + 24 <= bps, "{ctx}: kmv");
                    }
                    if bps >= 16 {
                        let SketchParams::Hll { precision } = p.hll() else {
                            panic!()
                        };
                        assert!(1usize << precision <= bps, "{ctx}: hll");
                    }
                }
            }
        }
    }

    #[test]
    fn onehash_has_half_the_slots_of_khash() {
        // k-hash signatures store one u32 per slot; bottom-k stores the
        // element plus its precomputed hash (Table I: W·k bits, W = 64),
        // plus 12 bytes/set of bookkeeping.
        let p = BudgetPlan::new(8_000_000, 2000, 0.2);
        let (SketchParams::KHash { k: k1 }, SketchParams::OneHash { k: k2 }) =
            (p.khash(), p.onehash())
        else {
            panic!("wrong variants")
        };
        assert_eq!(k2, (p.bytes_per_set() - 12) / 8);
        assert!(k1 / 2 >= k2 - 1 && k1 / 2 <= k2 + 2);
    }

    #[test]
    fn onehash_streaming_capacity_fits_budget() {
        // Mirrors `budget_scales_linearly`, for the streaming (strided)
        // bottom-k layout: every set owns a full capacity-k region of
        // 8-byte slots plus 12 bytes of bookkeeping (offset + live length
        // + exact size), and that worst case must stay inside the per-set
        // budget at every scale — the heap capacity is *planned*, not
        // borrowed, memory.
        for s in [0.05, 0.10, 0.25, 0.33, 1.0] {
            let p = BudgetPlan::new(1_000_000, 1000, s);
            let SketchParams::OneHash { k } = p.onehash() else {
                panic!("wrong variant")
            };
            assert!(
                k * 8 + 12 <= p.bytes_per_set().max(20),
                "s={s}: streaming capacity {}B exceeds per-set budget {}B",
                k * 8 + 12,
                p.bytes_per_set()
            );
        }
        // Minimal-budget boundary: exactly 20 bytes/set (one 8-byte slot
        // + 12 bytes bookkeeping) is the smallest plannable budget — k=1
        // fits it exactly; one byte less is a planning error, not a
        // silent k=1 that would overrun the budget by 1 byte/set.
        let boundary = BudgetPlan::new(20 * 1000, 1000, 1.0);
        assert_eq!(boundary.bytes_per_set(), 20);
        assert_eq!(boundary.try_onehash(), Ok(SketchParams::OneHash { k: 1 }));
        let below = BudgetPlan::new(19 * 1000, 1000, 1.0);
        assert_eq!(
            below.try_onehash(),
            Err(PlanError::BudgetTooSmall {
                representation: "1-hash / bottom-k MinHash",
                needed_bytes: 20,
                available_bytes: 19,
            })
        );
        // The k=1 → k=2 step happens exactly where the second slot fits.
        let SketchParams::OneHash { k } = BudgetPlan::new(27 * 1000, 1000, 1.0).onehash() else {
            panic!("wrong variant")
        };
        assert_eq!(k, 1);
        let SketchParams::OneHash { k } = BudgetPlan::new(28 * 1000, 1000, 1.0).onehash() else {
            panic!("wrong variant")
        };
        assert_eq!(k, 2);
        // Capacity scales linearly with the budget, like the byte pool.
        let SketchParams::OneHash { k: k10 } = BudgetPlan::new(1_000_000, 1000, 0.10).onehash()
        else {
            panic!("wrong variant")
        };
        let SketchParams::OneHash { k: k30 } = BudgetPlan::new(1_000_000, 1000, 0.30).onehash()
        else {
            panic!("wrong variant")
        };
        assert!(k30 >= 3 * k10 - 3 && k30 <= 3 * k10 + 3);
    }

    #[test]
    fn kmv_gets_about_half_the_slots() {
        let p = BudgetPlan::new(8_000_000, 2000, 0.2);
        let (SketchParams::KHash { k: kh }, SketchParams::Kmv { k: kk }) = (p.khash(), p.kmv())
        else {
            panic!("wrong variants")
        };
        // 8-byte vs 4-byte slots, minus the 24-byte bookkeeping deduction.
        assert_eq!(kk, (p.bytes_per_set() - 24) / 8);
        assert!(kh / 2 - kk <= 3);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_bad_budget() {
        BudgetPlan::new(100, 10, 1.5);
    }

    #[test]
    fn hll_precision_fits_budget_and_clamps() {
        let p = BudgetPlan::new(8_000_000, 2000, 0.25);
        let SketchParams::Hll { precision } = p.hll() else {
            panic!("wrong variant")
        };
        // 2^p bytes per set must fit, and 2^(p+1) must not.
        assert!((1usize << precision) <= p.bytes_per_set());
        assert!((1usize << (precision + 1)) > p.bytes_per_set());
        // Tiny budgets floor at the minimum precision.
        let tiny = BudgetPlan::new(100, 1000, 0.01);
        assert_eq!(tiny.hll(), SketchParams::Hll { precision: 4 });
        // Huge budgets cap at 16.
        let huge = BudgetPlan::new(1 << 30, 2, 1.0);
        assert_eq!(huge.hll(), SketchParams::Hll { precision: 16 });
    }

    fn skewed_degrees(n: usize) -> Vec<u32> {
        // Heavy tail: degree ~ n/(i+1), distinct enough to exercise ranks.
        (0..n).map(|i| (n / (i + 1)) as u32).collect()
    }

    #[test]
    fn one_stratum_plan_matches_uniform_bit_for_bit() {
        let plan = BudgetPlan::new(1_000_000, 1000, 0.25);
        let strat = StratifiedPlan::new(plan, StrataSpec::uniform());
        let degs = skewed_degrees(1000);
        let sp = strat.bloom(&degs, 2);
        assert!(sp.is_uniform());
        assert_eq!(sp.strata()[0], plan.bloom(2));
        assert_eq!(
            strat.counting_bloom(&degs, 2).strata()[0],
            plan.counting_bloom(2)
        );
        assert_eq!(strat.try_khash(&degs).unwrap().strata()[0], plan.khash());
        assert_eq!(
            strat.try_onehash(&degs).unwrap().strata()[0],
            plan.onehash()
        );
        assert_eq!(strat.try_kmv(&degs).unwrap().strata()[0], plan.kmv());
        assert_eq!(strat.hll(&degs).strata()[0], plan.hll());
    }

    #[test]
    fn stratified_assignment_follows_degree_quantiles() {
        let plan = BudgetPlan::new(8_000_000, 1000, 0.25);
        let strat = StratifiedPlan::new(plan, StrataSpec::skewed_default());
        let degs = skewed_degrees(1000);
        let (assign, counts) = strat.assign(&degs);
        assert_eq!(counts, vec![10, 90, 900]);
        // The highest-degree vertex (id 0 here) lands in stratum 0, the
        // long tail in the base stratum.
        assert_eq!(assign[0], 0);
        assert_eq!(assign[999], 2);
        assert_eq!(assign.iter().filter(|&&a| a == 0).count(), 10);
    }

    #[test]
    fn stratified_bloom_widths_are_power_of_two_multiples_within_budget() {
        let plan = BudgetPlan::new(8_000_000, 1000, 0.25);
        let strat = StratifiedPlan::new(plan, StrataSpec::skewed_default());
        let degs = skewed_degrees(1000);
        let sp = strat.bloom(&degs, 2);
        let bits: Vec<usize> = sp
            .strata()
            .iter()
            .map(|p| match p {
                SketchParams::Bloom { bits_per_set, .. } => *bits_per_set,
                _ => panic!("wrong variant"),
            })
            .collect();
        assert_eq!(bits[0], 4 * bits[2]);
        assert_eq!(bits[1], 2 * bits[2]);
        assert_eq!(bits[2] % 64, 0);
        // Total bytes never exceed the budget.
        let total: usize = sp
            .counts()
            .iter()
            .zip(&bits)
            .map(|(&n, &b)| n * b / 8)
            .sum();
        assert!(
            total <= plan.budget_bytes(),
            "{total} > {}",
            plan.budget_bytes()
        );
    }

    #[test]
    fn stratified_slots_redistribute_the_remainder_within_budget() {
        for (base, n) in [(1_000_003usize, 997usize), (8_000_000, 1000), (77_777, 313)] {
            let plan = BudgetPlan::new(base, n, 0.33);
            let strat = StratifiedPlan::new(plan, StrataSpec::skewed_default());
            let degs = skewed_degrees(n);
            let sp = strat.try_khash(&degs).unwrap();
            let counts = sp.counts();
            let spent: usize = sp
                .strata()
                .iter()
                .zip(&counts)
                .map(|(p, &c)| match p {
                    SketchParams::KHash { k } => k * 4 * c,
                    _ => panic!("wrong variant"),
                })
                .sum();
            assert!(spent <= plan.budget_bytes());
            // The stranded remainder after redistribution is below one
            // top-stratum slot round: budget - spent < 4·n₀ + rounding.
            let slack = plan.budget_bytes() - spent;
            let per_set_round: usize = counts.iter().map(|&c| c * 3).sum();
            assert!(
                slack < 4 * counts[0].max(1) + per_set_round,
                "base={base} n={n}: stranded {slack} bytes"
            );
        }
    }

    #[test]
    fn stratified_errors_carry_stratum_context() {
        let plan = BudgetPlan::new(4_000, 1000, 0.5); // 2 bytes/set overall
        let strat = StratifiedPlan::new(plan, StrataSpec::skewed_default());
        let degs = skewed_degrees(1000);
        let err = strat.try_kmv(&degs).unwrap_err();
        let PlanError::StratumBudgetTooSmall {
            representation,
            stratum,
            n_strata,
            quantile_lo,
            quantile_hi,
            needed_bytes,
            ..
        } = err
        else {
            panic!("expected stratum context, got {err:?}")
        };
        assert_eq!(representation, "KMV");
        assert_eq!(n_strata, 3);
        assert_eq!(needed_bytes, 32);
        assert!(stratum < 3);
        assert!(quantile_lo < quantile_hi);
        let msg = err.to_string();
        assert!(msg.contains("stratum") && msg.contains("quantile"), "{msg}");
    }

    #[test]
    fn all_equal_strata_collapse_to_uniform() {
        // A budget so small every stratum floors at the same minimum.
        let plan = BudgetPlan::new(100, 1000, 0.01);
        let strat = StratifiedPlan::new(plan, StrataSpec::skewed_default());
        let degs = skewed_degrees(1000);
        let sp = strat.bloom(&degs, 2);
        // Floors only kick in below one word: base share is 0 bytes here,
        // so base_bits = 64 and stratum widths 256/128/64 — NOT equal.
        assert!(!sp.is_uniform());
        // But explicit collapse works when the table really is constant.
        let forced =
            StratifiedParams::new(vec![SketchParams::Hll { precision: 4 }; 3], vec![0, 1, 2])
                .collapsed();
        assert!(forced.is_uniform());
        assert!(forced.assign().iter().all(|&a| a == 0));
    }

    #[test]
    fn quantile_bounds_cover_the_unit_interval() {
        let spec = StrataSpec::skewed_default();
        assert_eq!(spec.quantile_bounds(0), (0.0, 0.01));
        let (lo1, hi1) = spec.quantile_bounds(1);
        assert!((lo1 - 0.01).abs() < 1e-12 && (hi1 - 0.10).abs() < 1e-12);
        let (lo2, hi2) = spec.quantile_bounds(2);
        assert!((lo2 - 0.10).abs() < 1e-12);
        assert_eq!(hi2, 1.0);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn rejects_non_power_of_two_multipliers() {
        StrataSpec::new(vec![0.1], vec![3, 1]);
    }

    #[test]
    fn zero_sets_budget_is_legal() {
        let p = BudgetPlan::new(1_000, 0, 0.25);
        assert_eq!(p.bytes_per_set(), 0);
        // Parameter resolution still yields usable minimum sizes.
        assert_eq!(p.khash(), SketchParams::KHash { k: 1 });
        assert_eq!(p.hll(), SketchParams::Hll { precision: 4 });
    }
}
