//! Micro-clusters: decaying cluster features with timestamps.
//!
//! The "temporal multiplicity" idea of Section 4.2: by multiplying a cluster
//! feature's components with an exponential decay factor `2^(-lambda * dt)`
//! the influence of old data fades, while additivity — and therefore cheap
//! aggregation in inner nodes — is preserved.

use bt_index::Mbr;
use bt_stats::{ClusterFeature, DiagGaussian};

/// A cluster feature plus the timestamp of its last update — and, since
/// PR 5, an **optional MBR** covering every point the cluster ever
/// absorbed.
///
/// The MBR exists for the query side: a bare cluster feature only supports
/// the distance-blind per-weight kernel *peak* as an upper density bound,
/// while a bounding box yields the distance-aware
/// `weight * K(nearest point of box)` bound — and because a merged
/// cluster's box is the union of its parts, the boxes **nest** up the tree,
/// which is exactly the monotonicity contract the anytime query engine
/// requires.  The box never shrinks (decay fades weights, not extents), so
/// it stays a conservative superset of the remaining mass — sound for an
/// upper bound, never used for the lower one.  Clusters reconstructed from
/// a bare CF ([`MicroCluster::from_cf`]) have no box and fall back to the
/// peak bound.
#[derive(Debug, Clone)]
pub struct MicroCluster {
    cf: ClusterFeature,
    last_update: f64,
    mbr: Option<Mbr>,
}

impl MicroCluster {
    /// Creates an empty micro-cluster of the given dimensionality.
    #[must_use]
    pub fn empty(dims: usize, now: f64) -> Self {
        Self {
            cf: ClusterFeature::empty(dims),
            last_update: now,
            mbr: None,
        }
    }

    /// Creates a micro-cluster summarising a single point observed at `now`.
    #[must_use]
    pub fn from_point(point: &[f64], now: f64) -> Self {
        Self {
            cf: ClusterFeature::from_point(point),
            last_update: now,
            mbr: Some(Mbr::from_point(point)),
        }
    }

    /// Creates a micro-cluster from an existing cluster feature (no MBR —
    /// the point support is unknown, so queries fall back to the peak
    /// upper bound).
    #[must_use]
    pub fn from_cf(cf: ClusterFeature, now: f64) -> Self {
        Self {
            cf,
            last_update: now,
            mbr: None,
        }
    }

    /// The bounding box of every point this cluster ever absorbed, if
    /// known.  Conservative under decay (never shrinks).
    #[must_use]
    pub fn mbr(&self) -> Option<&Mbr> {
        self.mbr.as_ref()
    }

    /// The underlying (not yet decayed) cluster feature.
    #[must_use]
    pub fn cf(&self) -> &ClusterFeature {
        &self.cf
    }

    /// Timestamp of the last update.
    #[must_use]
    pub fn last_update(&self) -> f64 {
        self.last_update
    }

    /// Dimensionality of the summarised points.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.cf.dims()
    }

    /// Whether everything the micro-cluster stores is finite: the CF
    /// weight, linear and squared sums, the timestamp and the MBR corners.
    #[must_use]
    pub(crate) fn is_finite(&self) -> bool {
        let cf = &self.cf;
        cf.weight().is_finite()
            && cf
                .linear_sum()
                .iter()
                .chain(cf.squared_sum())
                .all(|v| v.is_finite())
            && self.last_update.is_finite()
            && self
                .mbr
                .as_ref()
                .is_none_or(|mbr| mbr.lower().iter().chain(mbr.upper()).all(|v| v.is_finite()))
    }

    /// Whether the micro-cluster currently summarises (essentially) nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cf.is_empty()
    }

    /// Applies exponential decay up to time `now` with decay rate `lambda`
    /// and advances the timestamp.  A `lambda` of 0 disables decay.
    pub fn decay_to(&mut self, now: f64, lambda: f64) {
        if lambda <= 0.0 {
            self.last_update = self.last_update.max(now);
            return;
        }
        let dt = now - self.last_update;
        if dt <= 0.0 {
            return;
        }
        let factor = (2.0f64).powf(-lambda * dt);
        self.cf.decay(factor);
        self.last_update = now;
    }

    /// The weight the micro-cluster would have after decaying to `now`
    /// (without mutating it).
    #[must_use]
    pub fn weight_at(&self, now: f64, lambda: f64) -> f64 {
        if lambda <= 0.0 {
            return self.cf.weight();
        }
        let dt = (now - self.last_update).max(0.0);
        self.cf.weight() * (2.0f64).powf(-lambda * dt)
    }

    /// Current (undecayed) weight.
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.cf.weight()
    }

    /// Centre of the micro-cluster.
    #[must_use]
    pub fn center(&self) -> Vec<f64> {
        self.cf.mean()
    }

    /// RMS radius of the micro-cluster.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.cf.radius()
    }

    /// The Gaussian summarising the micro-cluster.
    #[must_use]
    pub fn gaussian(&self) -> DiagGaussian {
        self.cf.to_gaussian()
    }

    /// Absorbs a single point observed at `now`, decaying first with
    /// `lambda`.  A known box extends to cover the point; a cluster with
    /// unknown support ([`MicroCluster::from_cf`]) **stays** box-less — a
    /// box covering only the new point would exclude the pre-existing mass
    /// and make the MBR upper bound unsound.
    pub fn insert(&mut self, point: &[f64], now: f64, lambda: f64) {
        self.decay_to(now, lambda);
        self.cf.insert(point);
        if let Some(mbr) = &mut self.mbr {
            mbr.extend_point(point);
        }
    }

    /// Merges another micro-cluster into this one; both are decayed to the
    /// later of the two timestamps first.  The boxes union (a merged box
    /// covers both parts — the nesting the query bounds rely on); if either
    /// side has no box the result has none.
    pub fn merge(&mut self, other: &MicroCluster, lambda: f64) {
        let now = self.last_update.max(other.last_update);
        self.decay_to(now, lambda);
        let mut o = other.clone();
        o.decay_to(now, lambda);
        self.cf.merge(o.cf());
        self.mbr = match (self.mbr.take(), &other.mbr) {
            (Some(a), Some(b)) => Some(a.union(b)),
            _ => None,
        };
    }

    /// Squared Euclidean distance from the centre to a point, computed
    /// without materialising the centre vector.
    #[must_use]
    pub fn sq_dist_to(&self, point: &[f64]) -> f64 {
        self.cf.sq_dist_mean_to(point)
    }

    /// Writes the centre into `out` (cleared and refilled) — the scratch
    /// variant used on the descent hot path.
    pub fn center_into(&self, out: &mut Vec<f64>) {
        self.cf.mean_into(out);
    }
}

/// The temporal context threaded through the shared tree core: the current
/// timestamp and the decay rate `lambda`.
#[derive(Debug, Clone, Copy)]
pub struct DecayCtx {
    /// The timestamp summaries are decayed to.
    pub now: f64,
    /// Exponential decay rate `lambda` (0 disables decay).
    pub lambda: f64,
}

impl bt_anytree::Summary for MicroCluster {
    type Ctx = DecayCtx;

    /// Micro-clusters route by squared centre distance, and
    /// [`MicroCluster::center_into`] reproduces
    /// [`ClusterFeature::sq_dist_mean_to`](bt_stats::ClusterFeature::sq_dist_mean_to)'s
    /// arithmetic exactly (`ls * (1/n)`, zeros when empty), so descent may
    /// gather all entry centres into one structure-of-arrays block and pick
    /// subtrees with the vectorized distance kernel — bit-identically to
    /// the scalar scan.
    const CENTER_ROUTED: bool = true;

    fn merge(&mut self, other: &Self, ctx: DecayCtx) {
        MicroCluster::merge(self, other, ctx.lambda);
    }

    fn weight(&self) -> f64 {
        MicroCluster::weight(self)
    }

    fn refresh(&mut self, ctx: DecayCtx) {
        self.decay_to(ctx.now, ctx.lambda);
    }

    fn sq_dist_to(&self, point: &[f64]) -> f64 {
        MicroCluster::sq_dist_to(self, point)
    }

    fn center(&self) -> Vec<f64> {
        MicroCluster::center(self)
    }

    fn center_into(&self, out: &mut Vec<f64>) {
        MicroCluster::center_into(self, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_halves_weight_after_half_life() {
        let mut mc = MicroCluster::from_point(&[1.0, 2.0], 0.0);
        mc.decay_to(1.0, 1.0); // lambda 1 => half-life of 1 time unit
        assert!((mc.weight() - 0.5).abs() < 1e-12);
        // Mean is unchanged by decay.
        assert_eq!(mc.center(), vec![1.0, 2.0]);
    }

    #[test]
    fn zero_lambda_disables_decay() {
        let mut mc = MicroCluster::from_point(&[1.0], 0.0);
        mc.decay_to(100.0, 0.0);
        assert_eq!(mc.weight(), 1.0);
    }

    #[test]
    fn weight_at_does_not_mutate() {
        let mc = MicroCluster::from_point(&[0.0], 0.0);
        let w = mc.weight_at(2.0, 1.0);
        assert!((w - 0.25).abs() < 1e-12);
        assert_eq!(mc.weight(), 1.0);
    }

    #[test]
    fn insert_decays_then_adds() {
        let mut mc = MicroCluster::from_point(&[0.0], 0.0);
        mc.insert(&[4.0], 1.0, 1.0);
        // Old point decayed to weight 0.5, new point weight 1 => total 1.5.
        assert!((mc.weight() - 1.5).abs() < 1e-12);
        // Mean = (0.5*0 + 1*4) / 1.5
        assert!((mc.center()[0] - 4.0 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn merge_aligns_timestamps() {
        let a = MicroCluster::from_point(&[0.0], 0.0);
        let b = MicroCluster::from_point(&[2.0], 2.0);
        let mut merged = a.clone();
        merged.merge(&b, 1.0);
        // a decayed by 2 half-lives -> 0.25; b weight 1 -> total 1.25.
        assert!((merged.weight() - 1.25).abs() < 1e-12);
        assert_eq!(merged.last_update(), 2.0);
    }

    #[test]
    fn older_updates_do_not_rewind_time() {
        let mut mc = MicroCluster::from_point(&[0.0], 5.0);
        mc.decay_to(3.0, 1.0);
        assert_eq!(mc.last_update(), 5.0);
        assert_eq!(mc.weight(), 1.0);
    }

    #[test]
    fn sq_dist_uses_center() {
        let mut mc = MicroCluster::from_point(&[0.0, 0.0], 0.0);
        mc.insert(&[2.0, 0.0], 0.0, 0.0);
        assert!((mc.sq_dist_to(&[1.0, 0.0]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn mbr_tracks_every_absorbed_point_and_unions_on_merge() {
        let mut a = MicroCluster::from_point(&[0.0, 0.0], 0.0);
        a.insert(&[2.0, -1.0], 0.0, 0.0);
        let mbr = a.mbr().expect("point-built clusters carry a box");
        assert_eq!(mbr.lower(), &[0.0, -1.0]);
        assert_eq!(mbr.upper(), &[2.0, 0.0]);

        let b = MicroCluster::from_point(&[-3.0, 5.0], 1.0);
        let mut merged = a.clone();
        merged.merge(&b, 0.0);
        let union = merged.mbr().expect("merged boxes union");
        assert_eq!(union.lower(), &[-3.0, -1.0]);
        assert_eq!(union.upper(), &[2.0, 5.0]);
        // The merged box contains both parts — the nesting the query
        // engine's monotone upper bound relies on.
        assert!(union.contains_mbr(a.mbr().unwrap()));
        assert!(union.contains_mbr(b.mbr().unwrap()));
    }

    #[test]
    fn mbr_survives_decay_and_is_absent_for_bare_cfs() {
        let mut mc = MicroCluster::from_point(&[1.0, 2.0], 0.0);
        mc.decay_to(10.0, 1.0);
        // Decay fades weight, never the extent: the box stays a superset.
        assert!(mc.weight() < 1e-2);
        assert_eq!(mc.mbr().unwrap().lower(), &[1.0, 2.0]);

        let bare = MicroCluster::from_cf(mc.cf().clone(), 10.0);
        assert!(bare.mbr().is_none(), "bare CFs fall back to the peak bound");
        let mut merged = MicroCluster::from_point(&[0.0, 0.0], 10.0);
        merged.merge(&bare, 0.0);
        assert!(merged.mbr().is_none(), "unknown support poisons the union");

        // Inserting into a bare-CF cluster must NOT fabricate a box that
        // covers only the new point — the pre-existing mass would escape it
        // and the upper bound would exclude the true contribution.
        let mut grown = MicroCluster::from_cf(mc.cf().clone(), 10.0);
        grown.insert(&[100.0, 100.0], 10.0, 0.0);
        assert!(grown.mbr().is_none(), "unknown support stays unbounded");
    }
}
