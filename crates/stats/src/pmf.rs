use crate::StatsError;

/// Tolerance used when merging nearly-identical support values.
const MERGE_EPS: f64 = 1e-12;

/// Largest support a pairwise operand keeps before being coarsened
/// in-line: bounds the materialized `(value, weight)` pairs of
/// [`Pmf::convolve`] / [`Pmf::product`] to `MAX_PAIRWISE_SIDE²` (≈262k
/// pairs, ~4 MiB) so adversarially large supports cannot blow memory
/// before `from_weights` dedupes. Matches the pipeline's own column-sum
/// support cap, so model fidelity is unchanged.
const MAX_PAIRWISE_SIDE: usize = 512;

/// Pair budget of [`Pmf::convolve`] / [`Pmf::product`]: `MAX_PAIRWISE_SIDE²`.
const PAIRWISE_BUDGET: usize = MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE;

/// Rejects a `(value, weight)` pair that [`Pmf::from_weights`] must not
/// accept: a non-finite value, or a non-finite or negative weight.
fn check_pair(v: f64, w: f64) -> Result<(), StatsError> {
    if !v.is_finite() {
        return Err(StatsError::InvalidValue { value: v });
    }
    if !w.is_finite() || w < 0.0 {
        return Err(StatsError::InvalidWeight { weight: w });
    }
    Ok(())
}

/// Pair `(i, j)` as one word that orders like the row-major index
/// `i * m + j` (both indices stay below `MAX_PAIRWISE_SIDE`).
fn pack(i: usize, j: usize) -> u32 {
    ((i as u32) << 16) | j as u32
}

/// Inverse of [`pack`].
fn unpack(k: u32) -> (usize, usize) {
    ((k >> 16) as usize, (k & 0xffff) as usize)
}

/// An unsigned key that orders finite values exactly like `f64::total_cmp`:
/// negative values (sign bit set) flip every bit, the rest set the sign bit.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Builds a [`Pmf`] from pairs pushed in ascending value order: each weight
/// is normalized by `total`, and a value within merge tolerance of the last
/// kept value folds its mass into it.
struct SortedMerge {
    total: f64,
    values: Vec<f64>,
    probs: Vec<f64>,
}

impl SortedMerge {
    fn new(total: f64, capacity: usize) -> Self {
        SortedMerge {
            total,
            values: Vec::with_capacity(capacity),
            probs: Vec::with_capacity(capacity),
        }
    }

    fn push(&mut self, v: f64, w: f64) {
        match self.values.last() {
            Some(&last) if (v - last).abs() <= MERGE_EPS.max(last.abs() * MERGE_EPS) => {
                *self.probs.last_mut().expect("probs parallel to values") += w / self.total;
            }
            _ => {
                self.values.push(v);
                self.probs.push(w / self.total);
            }
        }
    }

    fn finish(self) -> Pmf {
        Pmf {
            values: self.values,
            probs: self.probs,
        }
    }
}

/// A discrete probability distribution over `f64` values.
///
/// The support is kept sorted by value, with duplicate values merged and
/// probabilities normalized to sum to one. All constructors validate their
/// input; operations preserve the invariant that probabilities are
/// non-negative and sum to one (within floating-point tolerance).
///
/// `Pmf` is the currency of the data-value-dependent pipeline: workload
/// tensors produce a `Pmf` of operand values, encodings and slicings
/// transform it, and circuit models reduce it to an average energy per
/// action.
///
/// # Example
///
/// ```
/// use cimloop_stats::Pmf;
///
/// # fn main() -> Result<(), cimloop_stats::StatsError> {
/// let a = Pmf::from_weights(vec![(0.0, 1.0), (1.0, 1.0)])?; // fair bit
/// let b = a.clone();
/// // Distribution of the sum of two independent fair bits: 0,1,2 w/ 1/4,1/2,1/4.
/// let sum = a.convolve(&b);
/// assert_eq!(sum.support().len(), 3);
/// assert!((sum.mean() - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pmf {
    values: Vec<f64>,
    probs: Vec<f64>,
}

impl Pmf {
    /// Creates a distribution from `(value, weight)` pairs.
    ///
    /// Weights need not sum to one; they are normalized. Duplicate (or
    /// nearly-duplicate) values are merged.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySupport`] if `pairs` is empty,
    /// [`StatsError::InvalidValue`] / [`StatsError::InvalidWeight`] on
    /// non-finite input, and [`StatsError::ZeroMass`] if all weights are zero.
    pub fn from_weights(pairs: impl IntoIterator<Item = (f64, f64)>) -> Result<Self, StatsError> {
        let mut pairs: Vec<(f64, f64)> = pairs.into_iter().collect();
        if pairs.is_empty() {
            return Err(StatsError::EmptySupport);
        }
        for &(v, w) in &pairs {
            check_pair(v, w)?;
        }
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        if total <= 0.0 {
            return Err(StatsError::ZeroMass);
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut merge = SortedMerge::new(total, pairs.len());
        for (v, w) in pairs {
            merge.push(v, w);
        }
        Ok(merge.finish())
    }

    /// Creates a distribution concentrated at a single value.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidValue`] if `value` is non-finite.
    pub fn delta(value: f64) -> Result<Self, StatsError> {
        Self::from_weights([(value, 1.0)])
    }

    /// Creates a uniform distribution over the given values.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySupport`] if `values` is empty, or
    /// [`StatsError::InvalidValue`] on non-finite entries.
    pub fn uniform(values: impl IntoIterator<Item = f64>) -> Result<Self, StatsError> {
        Self::from_weights(values.into_iter().map(|v| (v, 1.0)))
    }

    /// Creates a uniform distribution over the integers `lo..=hi`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `lo > hi`.
    pub fn uniform_ints(lo: i64, hi: i64) -> Result<Self, StatsError> {
        if lo > hi {
            return Err(StatsError::InvalidParameter {
                name: "lo..=hi",
                reason: "lower bound exceeds upper bound",
            });
        }
        Self::uniform((lo..=hi).map(|v| v as f64))
    }

    /// Estimates a distribution from observed samples (the empirical PMF).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySupport`] if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Result<Self, StatsError> {
        Self::from_weights(samples.iter().map(|&v| (v, 1.0)))
    }

    /// The support values, sorted ascending.
    pub fn support(&self) -> &[f64] {
        &self.values
    }

    /// The probability of each support value, parallel to [`Self::support`].
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Number of support points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the support is empty. Always `false` for a constructed `Pmf`;
    /// provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over `(value, probability)` pairs in ascending value order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values.iter().copied().zip(self.probs.iter().copied())
    }

    /// Expected value of `f` under this distribution.
    pub fn expect(&self, mut f: impl FnMut(f64) -> f64) -> f64 {
        self.iter().map(|(v, p)| p * f(v)).sum()
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.expect(|v| v)
    }

    /// Second raw moment, `E[X^2]`.
    pub fn second_moment(&self) -> f64 {
        self.expect(|v| v * v)
    }

    /// Variance of the distribution.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        self.expect(|v| (v - m) * (v - m))
    }

    /// Minimum support value.
    pub fn min(&self) -> f64 {
        *self.values.first().expect("non-empty support")
    }

    /// Maximum support value.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("non-empty support")
    }

    /// Probability that the value equals `v` (within merge tolerance).
    pub fn prob_of(&self, v: f64) -> f64 {
        self.iter()
            .filter(|&(x, _)| (x - v).abs() <= MERGE_EPS.max(v.abs() * MERGE_EPS))
            .map(|(_, p)| p)
            .sum()
    }

    /// Probability that the value satisfies `pred`.
    pub fn prob_where(&self, mut pred: impl FnMut(f64) -> bool) -> f64 {
        self.iter().filter(|&(v, _)| pred(v)).map(|(_, p)| p).sum()
    }

    /// Transforms each support value through `f`, merging collisions.
    ///
    /// The result is a valid distribution of `f(X)`.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self::from_weights(self.iter().map(|(v, p)| (f(v), p)))
            .expect("mapping a valid pmf yields a valid pmf")
    }

    /// Distribution of `X + c`.
    pub fn shift(&self, c: f64) -> Self {
        self.map(|v| v + c)
    }

    /// Distribution of `k * X`.
    pub fn scale(&self, k: f64) -> Self {
        self.map(|v| k * v)
    }

    /// Combines two independent distributions through a pairwise operator,
    /// coarsening the operands first if the pair count would exceed the
    /// [`MAX_PAIRWISE_SIDE`] budget. Coarsening preserves each operand's
    /// mean exactly, so means of sums and of independent products are
    /// unaffected.
    fn pairwise(&self, other: &Pmf, mut op: impl FnMut(f64, f64) -> f64) -> Pmf {
        let capped_a;
        let capped_b;
        let (a, b) = if self.len().saturating_mul(other.len()) > PAIRWISE_BUDGET {
            // Coarsen each side only as far as the budget demands: against
            // a small partner, a large operand keeps `PAIRWISE_BUDGET / partner`
            // points (never fewer than MAX_PAIRWISE_SIDE), so asymmetric
            // cases lose no more precision than the memory cap requires.
            let cap_a = (PAIRWISE_BUDGET / other.len().max(1)).max(MAX_PAIRWISE_SIDE);
            capped_a = self.coarsen(cap_a);
            let cap_b = (PAIRWISE_BUDGET / capped_a.len().max(1)).max(MAX_PAIRWISE_SIDE);
            capped_b = other.coarsen(cap_b);
            (&capped_a, &capped_b)
        } else {
            (self, other)
        };
        let mut pairs = Vec::with_capacity(a.len() * b.len());
        for (v1, p1) in a.iter() {
            for (v2, p2) in b.iter() {
                pairs.push((op(v1, v2), p1 * p2));
            }
        }
        Self::from_weights(pairs).expect("combining valid pmfs yields a valid pmf")
    }

    /// Distribution of `X + Y` for independent `X` (self) and `Y` (other).
    ///
    /// Support size is the product of the operands' support sizes before
    /// merging; use [`Self::coarsen`] to bound growth across repeated
    /// convolutions. Operands so large that their pair count would exceed
    /// an internal ~262k-pair budget are coarsened (mean-preserving) just
    /// far enough to fit it first.
    pub fn convolve(&self, other: &Pmf) -> Self {
        self.pairwise(other, |v1, v2| v1 + v2)
    }

    /// `self.convolve(self)`, bit for bit, at half the pair work.
    ///
    /// The full path pushes its `m²` pairs `(v[i] + v[j], p[i] * p[j])`,
    /// stably sorted by `total_cmp` of the sum, into [`SortedMerge`]; both
    /// paths below feed the merge exactly that sequence, so every
    /// normalization and accumulation happens in the same order. Integer
    /// supports with a compact sum range take [`Self::square_on_lattice`],
    /// everything else [`Self::square_by_key`].
    fn square(&self) -> Pmf {
        let m = self.len();
        if m.saturating_mul(m) > PAIRWISE_BUDGET {
            // `pairwise` coarsens the two operands to different sizes here,
            // so the mirror identity no longer holds.
            return self.convolve(self);
        }
        let squared = match self.lattice_offsets() {
            Some(offsets) => self.square_on_lattice(&offsets),
            None => self.square_by_key(),
        };
        squared.expect("combining valid pmfs yields a valid pmf")
    }

    /// The `from_weights` normalizer of the full pair list: all `m²`
    /// weights summed in row-major order, so `total` is bit-identical.
    fn pair_total(&self) -> Result<f64, StatsError> {
        let p = &self.probs;
        let total: f64 = p
            .iter()
            .flat_map(|&pi| p.iter().map(move |&pj| pi * pj))
            .sum();
        if total <= 0.0 {
            return Err(StatsError::ZeroMass);
        }
        Ok(total)
    }

    /// Each support value's offset from the minimum, when every pairwise
    /// sum is an exact integer (`|v| < 2^50`) and the sum range
    /// `2 (max − min) + 1` holds no more buckets than there are pairs.
    fn lattice_offsets(&self) -> Option<Vec<u32>> {
        const EXACT: f64 = (1u64 << 50) as f64;
        let m = self.len();
        if !self
            .values
            .iter()
            .all(|&x| x.fract() == 0.0 && x.abs() < EXACT)
        {
            return None;
        }
        let lo = self.min();
        if 2.0 * (self.max() - lo) + 1.0 > (m * m) as f64 {
            return None;
        }
        Some(self.values.iter().map(|&x| (x - lo) as u32).collect())
    }

    /// [`Self::square`] on an integer lattice: the sums are exact integers,
    /// so ordering them is a counting sort of all `m²` pairs by sum offset
    /// in row-major order — exactly the full path's stable order. The one
    /// exception is `-0.0`: `-0.0 + -0.0` is the only pair whose sum is
    /// `-0.0`, and `total_cmp` puts it before the `+0.0` sums sharing its
    /// bucket.
    ///
    /// Fails exactly where `from_weights` fails on the full pair list: the
    /// first invalid pair in row-major order always lies in the `i ≤ j`
    /// half (its mirror is equally invalid and comes later), and the half
    /// is checked in row-major order.
    fn square_on_lattice(&self, offsets: &[u32]) -> Result<Pmf, StatsError> {
        let (v, p) = (&self.values, &self.probs);
        let m = v.len();
        let span = 2 * offsets[m - 1] as usize + 1;
        // `next[s + 1]` counts the pairs in bucket `s`; the prefix sum
        // turns it into each bucket's next free slot.
        let mut next = vec![0u32; span + 1];
        for i in 0..m {
            for j in i..m {
                check_pair(v[i] + v[j], p[i] * p[j])?;
                next[(offsets[i] + offsets[j]) as usize + 1] += if i == j { 1 } else { 2 };
            }
        }
        for s in 1..=span {
            next[s] += next[s - 1];
        }
        let mut order = vec![0u32; m * m];
        // `-0.0 + -0.0` takes the first slot of its bucket; every other
        // pair fills the slots in row-major order.
        let neg_zero = v.iter().position(|x| x.to_bits() == (-0.0f64).to_bits());
        if let Some(z) = neg_zero {
            let slot = &mut next[2 * offsets[z] as usize];
            order[*slot as usize] = pack(z, z);
            *slot += 1;
        }
        for i in 0..m {
            for j in 0..m {
                if i == j && neg_zero == Some(i) {
                    continue;
                }
                let slot = &mut next[(offsets[i] + offsets[j]) as usize];
                order[*slot as usize] = pack(i, j);
                *slot += 1;
            }
        }
        let mut merge = SortedMerge::new(self.pair_total()?, span);
        for k in order {
            let (i, j) = unpack(k);
            merge.push(v[i] + v[j], p[i] * p[j]);
        }
        Ok(merge.finish())
    }

    /// [`Self::square`] off the lattice: only the `i ≤ j` half is built and
    /// sorted (IEEE `+` and `*` commute, so pair `(j, i)` repeats pair
    /// `(i, j)` exactly), on integer keys that order like `total_cmp`. Each
    /// run of bitwise-equal sums is then expanded back to all its members
    /// in row-major order. That expansion never depends on how the
    /// unstable sort placed the run's pairs, so the output does not either.
    ///
    /// Fails exactly where `from_weights` fails, by the argument of
    /// [`Self::square_on_lattice`].
    fn square_by_key(&self) -> Result<Pmf, StatsError> {
        let (v, p) = (&self.values, &self.probs);
        let m = v.len();
        let mut half: Vec<(u64, u32)> = Vec::with_capacity(m * (m + 1) / 2);
        for i in 0..m {
            for j in i..m {
                let sum = v[i] + v[j];
                check_pair(sum, p[i] * p[j])?;
                half.push((order_key(sum), pack(i, j)));
            }
        }
        let mut merge = SortedMerge::new(self.pair_total()?, half.len());
        half.sort_unstable_by_key(|&(key, _)| key);
        let mut members: Vec<u32> = Vec::new();
        let mut start = 0;
        while start < half.len() {
            let key = half[start].0;
            let end = start + half[start..].iter().take_while(|e| e.0 == key).count();
            let group = &half[start..end];
            start = end;
            let (i, j) = unpack(group[0].1);
            let sum = v[i] + v[j];
            if group.len() == 1 {
                // A lone pair: `(i, j)` precedes its mirror `(j, i)`, which
                // carries the same weight.
                let w = p[i] * p[j];
                merge.push(sum, w);
                if i != j {
                    merge.push(sum, w);
                }
                continue;
            }
            // Row-major indices of the group's members: the half's own
            // pairs, then their mirrors.
            members.clear();
            for &(_, k) in group {
                let (i, j) = unpack(k);
                members.push(k);
                if i != j {
                    members.push(pack(j, i));
                }
            }
            members.sort_unstable();
            for &k in &members {
                let (i, j) = unpack(k);
                merge.push(sum, p[i] * p[j]);
            }
        }
        Ok(merge.finish())
    }

    /// Distribution of the sum of `n` independent draws from this
    /// distribution, coarsening intermediate supports to at most
    /// `max_support` points (0 means unlimited).
    ///
    /// Uses binary exponentiation so cost is `O(log n)` convolutions.
    pub fn convolve_n(&self, n: u64, max_support: usize) -> Self {
        let cap = |pmf: Pmf| {
            if max_support > 0 && pmf.len() > max_support {
                pmf.coarsen(max_support)
            } else {
                pmf
            }
        };
        let mut result = Pmf::delta(0.0).expect("0.0 is finite");
        let mut base = self.clone();
        let mut k = n;
        while k > 0 {
            if k & 1 == 1 {
                result = cap(result.convolve(&base));
            }
            k >>= 1;
            if k > 0 {
                base = cap(base.square());
            }
        }
        result
    }

    /// Distribution of `X * Y` for independent `X` (self) and `Y` (other).
    ///
    /// Subject to the same pairwise budget as [`Self::convolve`].
    pub fn product(&self, other: &Pmf) -> Self {
        self.pairwise(other, |v1, v2| v1 * v2)
    }

    /// Mixture distribution: draws from each component with the given weight.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::EmptySupport`] if `components` is empty, or an
    /// error if weights are invalid.
    pub fn mixture(components: &[(f64, &Pmf)]) -> Result<Self, StatsError> {
        if components.is_empty() {
            return Err(StatsError::EmptySupport);
        }
        let mut pairs = Vec::new();
        for &(w, pmf) in components {
            if !w.is_finite() || w < 0.0 {
                return Err(StatsError::InvalidWeight { weight: w });
            }
            for (v, p) in pmf.iter() {
                pairs.push((v, w * p));
            }
        }
        Self::from_weights(pairs)
    }

    /// Reduces the support to at most `n` points by re-binning adjacent
    /// values, preserving total mass and (approximately) the mean: each bin
    /// is represented by its probability-weighted centroid.
    ///
    /// Returns `self` unchanged if the support is already small enough.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn coarsen(&self, n: usize) -> Self {
        assert!(n > 0, "coarsen target must be positive");
        if self.len() <= n {
            return self.clone();
        }
        // Equal-width bins over the support range; centroid per bin keeps the
        // mean exact and bounds the second-moment error by the bin width.
        let lo = self.min();
        let hi = self.max();
        let width = (hi - lo) / n as f64;
        let mut mass = vec![0.0f64; n];
        let mut moment = vec![0.0f64; n];
        for (v, p) in self.iter() {
            // `width` can overflow to +inf for supports spanning nearly the
            // whole f64 range (hi − lo > f64::MAX); everything then lands
            // in bin 0 rather than indexing through a NaN.
            let mut idx = if width.is_finite() && width > 0.0 {
                ((v - lo) / width) as usize
            } else {
                0
            };
            if idx >= n {
                idx = n - 1;
            }
            mass[idx] += p;
            moment[idx] += p * v;
        }
        // Empty bins are dropped before the centroid division, so a bin can
        // never emit a 0/0 = NaN support value; nonempty bins divide a
        // finite moment by a strictly positive mass, and `from_weights`
        // re-validates finiteness. Mass is conserved: every support point's
        // probability lands in exactly one bin.
        let pairs = mass
            .iter()
            .zip(moment.iter())
            .filter(|&(&m, _)| m > 0.0)
            .map(|(&m, &mo)| (mo / m, m));
        Self::from_weights(pairs).expect("coarsening a valid pmf yields a valid pmf")
    }

    /// Drops support points with probability below `eps` and renormalizes.
    ///
    /// If pruning would remove everything, the distribution is returned
    /// unchanged.
    pub fn prune(&self, eps: f64) -> Self {
        let kept: Vec<(f64, f64)> = self.iter().filter(|&(_, p)| p >= eps).collect();
        if kept.is_empty() {
            return self.clone();
        }
        Self::from_weights(kept).expect("pruning a valid pmf yields a valid pmf")
    }

    /// Quantizes values to the nearest integer.
    pub fn round(&self) -> Self {
        self.map(|v| v.round())
    }

    /// Clamps values into `[lo, hi]`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Self {
        self.map(|v| v.clamp(lo, hi))
    }

    /// Quantizes a continuous-ish distribution to `levels` evenly spaced
    /// values spanning `[lo, hi]` (inclusive), mapping each support point to
    /// the nearest level.
    ///
    /// # Panics
    ///
    /// Panics if `levels < 2` or `lo >= hi`.
    pub fn quantize(&self, lo: f64, hi: f64, levels: usize) -> Self {
        assert!(levels >= 2, "need at least two quantization levels");
        assert!(lo < hi, "quantization range must be non-empty");
        let step = (hi - lo) / (levels - 1) as f64;
        self.map(|v| {
            let idx = ((v - lo) / step).round().clamp(0.0, (levels - 1) as f64);
            lo + idx * step
        })
    }

    /// Inverse-CDF lookup: returns the support value at cumulative
    /// probability `u`, where `u` is in `[0, 1)`.
    ///
    /// This lets callers sample the distribution with their own uniform
    /// random source without this crate depending on an RNG.
    pub fn icdf(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0 - f64::EPSILON);
        let mut cum = 0.0;
        for (v, p) in self.iter() {
            cum += p;
            if u < cum {
                return v;
            }
        }
        self.max()
    }

    /// Total variation distance to another distribution:
    /// `0.5 * Σ |p(v) − q(v)|` over the union of supports.
    pub fn total_variation(&self, other: &Pmf) -> f64 {
        let mut dist = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.len() || j < other.len() {
            if j >= other.len() {
                dist += self.probs[i];
                i += 1;
            } else if i >= self.len() {
                dist += other.probs[j];
                j += 1;
            } else {
                let (a, b) = (self.values[i], other.values[j]);
                if (a - b).abs() <= MERGE_EPS.max(a.abs() * MERGE_EPS) {
                    dist += (self.probs[i] - other.probs[j]).abs();
                    i += 1;
                    j += 1;
                } else if a < b {
                    dist += self.probs[i];
                    i += 1;
                } else {
                    dist += other.probs[j];
                    j += 1;
                }
            }
        }
        dist / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn from_weights_normalizes() {
        let pmf = Pmf::from_weights(vec![(1.0, 2.0), (2.0, 2.0)]).unwrap();
        assert!(close(pmf.probs()[0], 0.5));
        assert!(close(pmf.probs()[1], 0.5));
    }

    #[test]
    fn from_weights_merges_duplicates() {
        let pmf = Pmf::from_weights(vec![(1.0, 1.0), (1.0, 1.0), (2.0, 2.0)]).unwrap();
        assert_eq!(pmf.len(), 2);
        assert!(close(pmf.prob_of(1.0), 0.5));
    }

    #[test]
    fn from_weights_rejects_bad_input() {
        assert_eq!(
            Pmf::from_weights(std::iter::empty::<(f64, f64)>()),
            Err(StatsError::EmptySupport)
        );
        assert!(matches!(
            Pmf::from_weights(vec![(f64::NAN, 1.0)]),
            Err(StatsError::InvalidValue { .. })
        ));
        assert!(matches!(
            Pmf::from_weights(vec![(1.0, -1.0)]),
            Err(StatsError::InvalidWeight { .. })
        ));
        assert_eq!(
            Pmf::from_weights(vec![(1.0, 0.0)]),
            Err(StatsError::ZeroMass)
        );
    }

    #[test]
    fn delta_and_moments() {
        let pmf = Pmf::delta(3.0).unwrap();
        assert!(close(pmf.mean(), 3.0));
        assert!(close(pmf.variance(), 0.0));
        assert!(close(pmf.second_moment(), 9.0));
    }

    #[test]
    fn uniform_ints_mean() {
        let pmf = Pmf::uniform_ints(0, 9).unwrap();
        assert!(close(pmf.mean(), 4.5));
        assert_eq!(pmf.len(), 10);
        assert!(Pmf::uniform_ints(3, 2).is_err());
    }

    #[test]
    fn from_samples_empirical() {
        let pmf = Pmf::from_samples(&[1.0, 1.0, 2.0, 4.0]).unwrap();
        assert!(close(pmf.prob_of(1.0), 0.5));
        assert!(close(pmf.mean(), 2.0));
    }

    #[test]
    fn convolve_two_dice() {
        let die = Pmf::uniform_ints(1, 6).unwrap();
        let sum = die.convolve(&die);
        assert!(close(sum.mean(), 7.0));
        assert!(close(sum.prob_of(7.0), 6.0 / 36.0));
        assert_eq!(sum.len(), 11);
    }

    #[test]
    fn convolve_n_matches_repeated() {
        let bit = Pmf::from_weights(vec![(0.0, 0.5), (1.0, 0.5)]).unwrap();
        let a = bit.convolve_n(4, 0);
        let b = bit.convolve(&bit).convolve(&bit).convolve(&bit);
        assert!(a.total_variation(&b) < 1e-9);
        assert!(close(a.mean(), 2.0));
    }

    #[test]
    fn convolve_n_zero_is_delta_zero() {
        let die = Pmf::uniform_ints(1, 6).unwrap();
        let none = die.convolve_n(0, 0);
        assert_eq!(none.len(), 1);
        assert!(close(none.mean(), 0.0));
    }

    #[test]
    fn huge_support_pairwise_ops_stay_bounded() {
        // 3000 × 3000 = 9M raw pairs: far beyond the pairwise budget. The
        // operands coarsen in-line, so support stays bounded and the means
        // are still exact.
        let a = Pmf::uniform_ints(0, 2999).unwrap();
        let b = Pmf::uniform_ints(5000, 7999).unwrap();
        let sum = a.convolve(&b);
        assert!(sum.len() <= MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE);
        assert!(
            (sum.mean() - (a.mean() + b.mean())).abs() < 1e-6,
            "convolve mean {}",
            sum.mean()
        );
        let prod = a.product(&b);
        assert!(prod.len() <= MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE);
        let expected = a.mean() * b.mean();
        assert!(
            (prod.mean() - expected).abs() < 1e-6 * expected.abs(),
            "product mean {} vs {expected}",
            prod.mean()
        );
    }

    #[test]
    fn asymmetric_pairwise_coarsens_only_as_far_as_needed() {
        // 300k × 2 = 600k raw pairs: over budget, but the small side means
        // the large side only needs to drop to ~131k points — far gentler
        // than the 512-point floor.
        let a = Pmf::uniform((0..300_000).map(|i| i as f64)).unwrap();
        let b = Pmf::uniform_ints(0, 1).unwrap();
        let sum = a.convolve(&b);
        assert!(sum.len() > 100_000, "over-coarsened to {}", sum.len());
        assert!(sum.len() <= MAX_PAIRWISE_SIDE * MAX_PAIRWISE_SIDE);
        assert!((sum.mean() - (a.mean() + b.mean())).abs() < 1e-6 * a.mean());
    }

    #[test]
    fn small_support_pairwise_ops_are_exact() {
        // Below the budget nothing coarsens: the dice convolution stays an
        // exact 11-point distribution (regression guard for the cap).
        let die = Pmf::uniform_ints(1, 6).unwrap();
        let sum = die.convolve(&die);
        assert_eq!(sum.len(), 11);
        assert!((sum.prob_of(7.0) - 6.0 / 36.0).abs() < 1e-12);
    }

    #[test]
    fn product_of_independents() {
        let a = Pmf::from_weights(vec![(0.0, 0.5), (2.0, 0.5)]).unwrap();
        let b = Pmf::from_weights(vec![(1.0, 0.5), (3.0, 0.5)]).unwrap();
        let prod = a.product(&b);
        // E[XY] = E[X]E[Y] for independents.
        assert!(close(prod.mean(), a.mean() * b.mean()));
    }

    #[test]
    fn mixture_weights() {
        let a = Pmf::delta(0.0).unwrap();
        let b = Pmf::delta(10.0).unwrap();
        let mix = Pmf::mixture(&[(3.0, &a), (1.0, &b)]).unwrap();
        assert!(close(mix.prob_of(0.0), 0.75));
        assert!(close(mix.mean(), 2.5));
    }

    #[test]
    fn coarsen_preserves_mean() {
        let pmf = Pmf::uniform_ints(0, 999).unwrap();
        let small = pmf.coarsen(16);
        assert!(small.len() <= 16);
        assert!((small.mean() - pmf.mean()).abs() < 1e-6);
        let total: f64 = small.probs().iter().sum();
        assert!(close(total, 1.0));
    }

    #[test]
    fn coarsen_noop_when_small() {
        let pmf = Pmf::uniform_ints(0, 3).unwrap();
        assert_eq!(pmf.coarsen(10), pmf);
    }

    #[test]
    fn prune_renormalizes() {
        let pmf = Pmf::from_weights(vec![(0.0, 0.999), (1.0, 0.001)]).unwrap();
        let pruned = pmf.prune(0.01);
        assert_eq!(pruned.len(), 1);
        assert!(close(pruned.probs()[0], 1.0));
    }

    #[test]
    fn quantize_snaps_to_levels() {
        let pmf = Pmf::uniform(vec![0.1, 0.4, 0.6, 0.9]).unwrap();
        let q = pmf.quantize(0.0, 1.0, 3); // levels 0.0, 0.5, 1.0
        for &v in q.support() {
            assert!(v == 0.0 || v == 0.5 || v == 1.0);
        }
    }

    #[test]
    fn icdf_walks_cdf() {
        let pmf = Pmf::from_weights(vec![(1.0, 0.25), (2.0, 0.5), (3.0, 0.25)]).unwrap();
        assert_eq!(pmf.icdf(0.0), 1.0);
        assert_eq!(pmf.icdf(0.3), 2.0);
        assert_eq!(pmf.icdf(0.99), 3.0);
    }

    #[test]
    fn shift_scale_clamp_round() {
        let pmf = Pmf::uniform_ints(0, 3).unwrap();
        assert!(close(pmf.shift(1.0).mean(), pmf.mean() + 1.0));
        assert!(close(pmf.scale(2.0).mean(), pmf.mean() * 2.0));
        assert!(close(pmf.clamp(1.0, 2.0).min(), 1.0));
        assert!(close(pmf.scale(0.4).round().max(), 1.0));
    }

    #[test]
    fn total_variation_bounds() {
        let a = Pmf::uniform_ints(0, 1).unwrap();
        let b = Pmf::uniform_ints(2, 3).unwrap();
        assert!(close(a.total_variation(&b), 1.0));
        assert!(close(a.total_variation(&a), 0.0));
    }

    #[test]
    fn prob_where_counts_predicate_mass() {
        let pmf = Pmf::uniform_ints(0, 9).unwrap();
        assert!(close(pmf.prob_where(|v| v >= 5.0), 0.5));
    }

    /// `square` must reproduce `convolve(self)` bit for bit.
    fn assert_square_is_exact(pmf: &Pmf) {
        let fast = pmf.square();
        let full = pmf.convolve(pmf);
        assert_eq!(fast.len(), full.len(), "support length");
        for (k, (a, b)) in fast.iter().zip(full.iter()).enumerate() {
            assert_eq!(
                a.0.to_bits(),
                b.0.to_bits(),
                "value {k}: {} vs {}",
                a.0,
                b.0
            );
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "prob {k}: {} vs {}", a.1, b.1);
        }
    }

    /// Deterministic, deliberately uneven weights: equal weights would
    /// hide a wrong member order inside a tie group.
    fn uneven(k: usize) -> f64 {
        ((k * 7919) % 101 + 1) as f64 / 7.0
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn square_matches_convolve_on_weighted_lattices(
            points in proptest::collection::vec((-60i32..60, 1u32..1000), 1..80),
            step in 0usize..4,
        ) {
            // Integer lattices make large multi-member tie groups; the
            // 0.1 step adds rounding, so equal sums need not come from
            // equal index sums.
            let step = [1.0, 0.5, 0.1, 3.0][step];
            let pmf = Pmf::from_weights(points.iter().map(|&(v, w)| (v as f64 * step, w as f64)))
                .unwrap();
            assert_square_is_exact(&pmf);
        }

        #[test]
        fn square_matches_convolve_when_rounding_collapses_sums(
            small in proptest::collection::vec((0u32..64, 1u32..1000, 0i32..40), 2..24),
            huge in proptest::collection::vec((0u32..16, 1u32..1000, 0i32..40), 1..8),
        ) {
            // Next to 1e16 (ulp 2) the quarter-steps vanish: 1e16 + 0.25
            // and 1e16 + 0.5 are one sum, so a tie group holds several
            // pairs per row and its mirrors are not in row-major order as
            // built. Weights spanning 2^-40..2^0 make the accumulation
            // order visible in the low bits.
            let point = |(k, w, e): (u32, u32, i32), base: f64, step: f64| {
                (base + k as f64 * step, w as f64 * (-e as f64).exp2())
            };
            let small = small.into_iter().map(|s| point(s, 0.0, 0.25));
            let huge = huge.into_iter().map(|h| point(h, 1e16, 4.0));
            let pmf = Pmf::from_weights(small.chain(huge)).unwrap();
            assert_square_is_exact(&pmf);
        }
    }

    /// Integers `start, start + g1, start + g1 + g2, ...` with uneven,
    /// wide-ranging weights.
    fn gapped_integers(start: i64, steps: &[(u32, u32, i32)]) -> Pmf {
        let mut x = start;
        Pmf::from_weights(steps.iter().map(|&(gap, w, e)| {
            x += gap as i64;
            (x as f64, w as f64 * (-e as f64).exp2())
        }))
        .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn square_matches_convolve_on_gapped_integer_lattices(
            start in -3000i64..3000,
            steps in proptest::collection::vec((1u32..6, 1u32..1000, 0i32..40), 10..100),
        ) {
            // Gaps of at most 5 keep the sum range within m², so the
            // counting-sort path runs; every sum is a large tie group.
            let pmf = gapped_integers(start, &steps);
            proptest::prop_assert!(pmf.lattice_offsets().is_some());
            assert_square_is_exact(&pmf);
        }

        #[test]
        fn square_matches_convolve_on_negative_integer_lattices(
            start in -5000i64..-600,
            steps in proptest::collection::vec((1u32..6, 1u32..1000, 0i32..40), 10..100),
        ) {
            let pmf = gapped_integers(start, &steps);
            proptest::prop_assert!(pmf.max() < 0.0);
            proptest::prop_assert!(pmf.lattice_offsets().is_some());
            assert_square_is_exact(&pmf);
        }

        #[test]
        fn square_matches_convolve_with_negative_zero_on_a_lattice(
            ints in proptest::collection::vec((-6i32..7, 1u32..1000), 8..30),
            zero_weight in 1u32..1000,
        ) {
            // `-0.0` survives construction whenever it is the only zero
            // (or sorts first next to `+0.0`), and `-0.0 + -0.0` is then
            // the one `-0.0` sum in a bucket of `+0.0` sums.
            let pmf = Pmf::from_weights(
                ints.iter()
                    .map(|&(v, w)| (v as f64, w as f64))
                    .chain([(-0.0, zero_weight as f64)]),
            )
            .unwrap();
            proptest::prop_assert!(pmf
                .support()
                .iter()
                .any(|v| v.to_bits() == (-0.0f64).to_bits()));
            proptest::prop_assume!(pmf.lattice_offsets().is_some());
            assert_square_is_exact(&pmf);
        }

        #[test]
        fn square_matches_convolve_on_near_lattice_supports(
            points in proptest::collection::vec((-50i32..50, 0u32..3, 1u32..1000), 2..80),
        ) {
            // Integers nudged by multiples of 2^-30: off the lattice, so the
            // integer-key sort runs, yet sums still tie across rows.
            let pmf = Pmf::from_weights(
                points.iter().map(|&(k, e, w)| (k as f64 + e as f64 * (-30f64).exp2(), w as f64)),
            )
            .unwrap();
            proptest::prop_assume!(pmf.support().iter().any(|v| v.fract() != 0.0));
            proptest::prop_assert!(pmf.lattice_offsets().is_none());
            assert_square_is_exact(&pmf);
        }
    }

    #[test]
    fn order_key_orders_like_total_cmp() {
        let values = [
            f64::MIN,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e16,
            f64::MAX,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn square_matches_convolve_with_negative_zero_between_integers() {
        let weights = [3.0, 5.0, 0.25, 7.0, 11.0, 2.0, 1.0];
        for support in [
            vec![-3.0, -2.0, -1.0, -0.0, 1.0, 2.0, 4.0],
            vec![-0.0, 1.0, 2.0, 3.0],
            vec![-2.0, -1.0, -0.0],
            vec![-0.0],
        ] {
            let pmf = Pmf::from_weights(support.iter().copied().zip(weights)).unwrap();
            assert_eq!(pmf.len(), support.len());
            assert!(pmf.lattice_offsets().is_some(), "{support:?}");
            assert_square_is_exact(&pmf);
        }
    }

    #[test]
    fn square_leaves_the_lattice_at_two_to_the_fifty() {
        let exact = (1u64 << 50) as f64;
        let below = Pmf::from_weights((1..=20).map(|k| (exact - k as f64, uneven(k)))).unwrap();
        assert!(below.lattice_offsets().is_some());
        assert_square_is_exact(&below);
        for start in [exact, -exact, 3.0 * exact] {
            let pmf = Pmf::from_weights((0..20).map(|k| (start + k as f64, uneven(k)))).unwrap();
            assert!(pmf.lattice_offsets().is_none(), "{start}");
            assert_square_is_exact(&pmf);
        }
    }

    #[test]
    fn square_leaves_the_lattice_over_the_span_cap() {
        // Five points spanning 12: 2·12 + 1 = 25 buckets fit 5² pairs,
        // one more unit of range does not.
        let weights = [3.0, 1.0, 4.0, 1.0, 5.0];
        let at_cap =
            Pmf::from_weights([0.0, 1.0, 5.0, 9.0, 12.0].into_iter().zip(weights)).unwrap();
        assert!(at_cap.lattice_offsets().is_some());
        assert_square_is_exact(&at_cap);
        let over = Pmf::from_weights([0.0, 1.0, 5.0, 9.0, 13.0].into_iter().zip(weights)).unwrap();
        assert!(over.lattice_offsets().is_none());
        assert_square_is_exact(&over);
        let sparse = Pmf::from_weights([(-1000.0, 1.0), (0.0, 2.0), (1000.0, 3.0)]).unwrap();
        assert!(sparse.lattice_offsets().is_none());
        assert_square_is_exact(&sparse);
    }

    #[test]
    fn square_matches_convolve_around_signed_zero() {
        // -1 + 1 is +0.0 but -0.0 + -0.0 is -0.0: two distinct tie groups
        // the merge step then folds together.
        let pmf =
            Pmf::from_weights(vec![(-1.0, 3.0), (-0.0, 5.0), (1.0, 2.0), (2.0, 7.0)]).unwrap();
        assert_eq!(pmf.min().to_bits(), (-1.0f64).to_bits());
        assert!(pmf
            .support()
            .iter()
            .any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert_square_is_exact(&pmf);
    }

    #[test]
    fn square_matches_convolve_inside_merge_tolerance() {
        // Support points 2e-12 apart survive construction, but their sums
        // near 2.0 fall within the merge tolerance of each other.
        let pmf = Pmf::from_weights((0..40).map(|k| (1.0 + k as f64 * 2e-12, uneven(k)))).unwrap();
        assert_eq!(pmf.len(), 40);
        let squared = pmf.square();
        assert!(squared.len() < 2 * pmf.len() - 1, "sums should merge");
        assert_square_is_exact(&pmf);
    }

    #[test]
    fn square_matches_convolve_at_the_pair_budget() {
        // 512² pairs is exactly the budget: the mirror-half path runs.
        let pmf = Pmf::from_weights((0..MAX_PAIRWISE_SIDE).map(|k| (k as f64, uneven(k)))).unwrap();
        assert_eq!(pmf.len() * pmf.len(), PAIRWISE_BUDGET);
        assert_square_is_exact(&pmf);
    }

    #[test]
    fn square_over_the_pair_budget_falls_back_to_convolve() {
        let pmf =
            Pmf::from_weights((0..=MAX_PAIRWISE_SIDE).map(|k| (k as f64, uneven(k)))).unwrap();
        assert!(pmf.len() * pmf.len() > PAIRWISE_BUDGET);
        assert_square_is_exact(&pmf);
    }

    #[test]
    fn square_panics_like_convolve_on_overflow() {
        let big = f64::MAX / 1.5;
        // The first overflowing pair is on the diagonal in the first three
        // supports and off it in the last.
        let supports = [
            vec![-big, 0.0, big],
            vec![1.0, big],
            vec![-big, 2.0],
            vec![f64::MAX / 2.5, big],
        ];
        for support in supports {
            let pmf = Pmf::from_weights(support.iter().map(|&v| (v, 1.0))).unwrap();
            let message = |result: std::thread::Result<Pmf>| {
                let payload = result.expect_err("overflowing sum must panic");
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .expect("expect() panics with a String")
            };
            let fast = message(std::panic::catch_unwind(|| pmf.square()));
            let full = message(std::panic::catch_unwind(|| pmf.convolve(&pmf)));
            assert_eq!(fast, full);
            assert!(fast.contains("InvalidValue"), "{fast}");
        }
    }
}
