//! Incremental transforms: the `F` of §4.
//!
//! The transform applied to each sliding window depends on the monitoring
//! query: SUM for burst detection, MAX/MIN (and their difference, SPREAD)
//! for volatility, and the DWT for pattern and correlation queries. All of
//! them support:
//!
//! * **direct computation** on a raw window (level 0 / verification),
//! * **exact merge** (Lemma 4.1): the feature of a window from the features
//!   of its two halves in Θ(f),
//! * **interval merge** (Lemma 4.2): a bounding interval of the feature
//!   from the MBRs containing the halves' features, also Θ(f) (or
//!   Θ(2^{2f}·f) with the tight Online I corner enumeration).

use stardust_dsp::haar;
use stardust_dsp::mbr_transform::{check_corners, Bounds};
use stardust_dsp::FilterBank;

/// Which transform the summarizer applies to each window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformKind {
    /// Moving sum — burst detection.
    Sum,
    /// Moving maximum.
    Max,
    /// Moving minimum.
    Min,
    /// `MAX − MIN` — volatility detection. Features carry both components
    /// (`[max, min]`); the spread itself is derived on demand.
    Spread,
    /// The first `f` Haar approximation coefficients — pattern and
    /// correlation queries.
    Dwt,
}

/// Accuracy/time trade-off for the DWT interval merge (Appendix A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergePrecision {
    /// *Online II*: transform only the low/high corners via the δ-split.
    /// Θ(f) per merge.
    #[default]
    Fast,
    /// *Online I*: enumerate all corners of the concatenated box.
    /// Θ(2^{2f}·f) per merge; tightest conservative box.
    Tight,
}

impl TransformKind {
    /// Feature dimensionality: 1 for SUM/MAX/MIN, 2 for SPREAD
    /// (`[max, min]`), `f` for the DWT.
    pub fn dims(self, f: usize) -> usize {
        match self {
            TransformKind::Sum | TransformKind::Max | TransformKind::Min => 1,
            TransformKind::Spread => 2,
            TransformKind::Dwt => f,
        }
    }

    /// Direct computation of the (unnormalized) feature of a raw window.
    ///
    /// # Panics
    /// Panics if the window is empty, or (for DWT) if lengths are not
    /// powers of two.
    pub fn compute(self, window: &[f64], f: usize) -> Vec<f64> {
        assert!(!window.is_empty(), "cannot transform an empty window");
        match self {
            TransformKind::Sum => vec![window.iter().sum()],
            TransformKind::Max => vec![window.iter().copied().fold(f64::NEG_INFINITY, f64::max)],
            TransformKind::Min => vec![window.iter().copied().fold(f64::INFINITY, f64::min)],
            TransformKind::Spread => {
                let mx = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mn = window.iter().copied().fold(f64::INFINITY, f64::min);
                vec![mx, mn]
            }
            TransformKind::Dwt => haar::approx(window, f),
        }
    }

    /// **Lemma 4.1** — exact merge: the feature of a window from the
    /// features of its (earlier) left half and (later) right half.
    ///
    /// # Panics
    /// Panics on dimensionality mismatches.
    pub fn merge_exact(self, left: &[f64], right: &[f64]) -> Vec<f64> {
        assert_eq!(left.len(), right.len(), "half feature dimensionality mismatch");
        match self {
            TransformKind::Sum => vec![left[0] + right[0]],
            TransformKind::Max => vec![left[0].max(right[0])],
            TransformKind::Min => vec![left[0].min(right[0])],
            TransformKind::Spread => vec![left[0].max(right[0]), left[1].min(right[1])],
            TransformKind::Dwt => haar::merge_halves(left, right),
        }
    }

    /// **Lemma 4.2** — interval merge: a conservative bounding box of the
    /// merged feature given boxes containing the halves' features.
    ///
    /// # Panics
    /// Panics on dimensionality mismatches.
    pub fn merge_bounds(self, left: &Bounds, right: &Bounds, precision: MergePrecision) -> Bounds {
        let mut out = Bounds::default();
        self.merge_bounds_into(left, right, precision, &mut Bounds::default(), &mut out);
        out
    }

    /// [`Self::merge_bounds`] into `out`, reusing its storage; `concat`
    /// is scratch for the DWT's concatenated halves. With
    /// [`MergePrecision::Fast`] this does not allocate once both buffers
    /// have grown to size.
    ///
    /// # Panics
    /// Panics on dimensionality mismatches.
    pub fn merge_bounds_into(
        self,
        left: &Bounds,
        right: &Bounds,
        precision: MergePrecision,
        concat: &mut Bounds,
        out: &mut Bounds,
    ) {
        assert_eq!(left.dims(), right.dims(), "half bounds dimensionality mismatch");
        match self {
            TransformKind::Dwt => {
                left.concat_into(right, concat);
                let bank = FilterBank::haar();
                match precision {
                    MergePrecision::Fast => concat.analyze_online2_into(&bank, out),
                    MergePrecision::Tight => *out = concat.analyze_online1(&bank),
                }
            }
            _ => {
                let (lo, hi) =
                    self.merge_aggregate((left.lo(), left.hi()), (right.lo(), right.hi()));
                let d = self.dims(0);
                out.set(&lo[..d], &hi[..d]);
            }
        }
    }

    /// The Lemma 4.2 interval merge for the scalar aggregates
    /// (SUM/MAX/MIN/SPREAD) over `(lo, hi)` corner slices, returning the
    /// merged corners in fixed arrays (these features have at most two
    /// dimensions; unused entries are 0). Operand order matches
    /// [`Self::merge_bounds`] with `left` first.
    ///
    /// # Panics
    /// Panics for the DWT, on dimensionality mismatches, or if the merged
    /// corners are inverted.
    pub fn merge_aggregate(
        self,
        left: (&[f64], &[f64]),
        right: (&[f64], &[f64]),
    ) -> ([f64; 2], [f64; 2]) {
        let ((llo, lhi), (rlo, rhi)) = (left, right);
        assert_eq!(llo.len(), rlo.len(), "half bounds dimensionality mismatch");
        let (lo, hi) = match self {
            TransformKind::Sum => ([llo[0] + rlo[0], 0.0], [lhi[0] + rhi[0], 0.0]),
            TransformKind::Max => ([llo[0].max(rlo[0]), 0.0], [lhi[0].max(rhi[0]), 0.0]),
            TransformKind::Min => ([llo[0].min(rlo[0]), 0.0], [lhi[0].min(rhi[0]), 0.0]),
            TransformKind::Spread => {
                ([llo[0].max(rlo[0]), llo[1].min(rlo[1])], [lhi[0].max(rhi[0]), lhi[1].min(rhi[1])])
            }
            TransformKind::Dwt => panic!("the DWT has no scalar aggregate merge"),
        };
        let d = self.dims(0);
        check_corners(&lo[..d], &hi[..d]);
        (lo, hi)
    }

    /// Maps a feature box to the scalar interval `[lo, hi]` bounding the
    /// monitored aggregate: the sum for SUM, max for MAX, min for MIN, and
    /// `max − min` for SPREAD. Returns `None` for the DWT (no scalar
    /// aggregate).
    pub fn aggregate_interval(self, lo: &[f64], hi: &[f64]) -> Option<(f64, f64)> {
        match self {
            TransformKind::Sum | TransformKind::Max | TransformKind::Min => Some((lo[0], hi[0])),
            TransformKind::Spread => Some((lo[0] - hi[1], hi[0] - lo[1])),
            TransformKind::Dwt => None,
        }
    }

    /// The scalar aggregate of a raw window (used for verification and
    /// ground truth): sum, max, min, or spread. Returns `None` for DWT.
    pub fn scalar_aggregate(self, window: &[f64]) -> Option<f64> {
        match self {
            TransformKind::Sum => Some(window.iter().sum()),
            TransformKind::Max => Some(window.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            TransformKind::Min => Some(window.iter().copied().fold(f64::INFINITY, f64::min)),
            TransformKind::Spread => {
                let mx = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mn = window.iter().copied().fold(f64::INFINITY, f64::min);
                Some(mx - mn)
            }
            TransformKind::Dwt => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    fn windows() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let left: Vec<f64> = (0..8).map(|i| (i as f64 * 1.3).sin() * 4.0 + 5.0).collect();
        let right: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).cos() * 2.0 + 3.0).collect();
        let full: Vec<f64> = left.iter().chain(&right).copied().collect();
        (left, right, full)
    }

    #[test]
    fn exact_merge_matches_direct_for_all_kinds() {
        let (left, right, full) = windows();
        for kind in [
            TransformKind::Sum,
            TransformKind::Max,
            TransformKind::Min,
            TransformKind::Spread,
            TransformKind::Dwt,
        ] {
            let f = 4;
            let fl = kind.compute(&left, f);
            let fr = kind.compute(&right, f);
            let merged = kind.merge_exact(&fl, &fr);
            let direct = kind.compute(&full, f);
            assert_eq!(merged.len(), direct.len());
            for (m, d) in merged.iter().zip(&direct) {
                assert!((m - d).abs() < EPS, "{kind:?}: {merged:?} vs {direct:?}");
            }
        }
    }

    #[test]
    fn interval_merge_contains_exact_merge() {
        let (left, right, full) = windows();
        for kind in [
            TransformKind::Sum,
            TransformKind::Max,
            TransformKind::Min,
            TransformKind::Spread,
            TransformKind::Dwt,
        ] {
            let f = 4;
            let fl = kind.compute(&left, f);
            let fr = kind.compute(&right, f);
            // Inflate each half feature into a box (simulating MBR slack).
            let bl = Bounds::new(
                fl.iter().map(|v| v - 0.5).collect(),
                fl.iter().map(|v| v + 0.3).collect(),
            );
            let br = Bounds::new(
                fr.iter().map(|v| v - 0.2).collect(),
                fr.iter().map(|v| v + 0.6).collect(),
            );
            let merged = kind.merge_bounds(&bl, &br, MergePrecision::Fast);
            let exact = kind.compute(&full, f);
            assert!(
                merged.contains(&exact, EPS),
                "{kind:?}: exact {exact:?} outside merged {merged:?}"
            );
        }
    }

    #[test]
    fn degenerate_interval_merge_equals_exact_merge() {
        let (left, right, _) = windows();
        for kind in [
            TransformKind::Sum,
            TransformKind::Max,
            TransformKind::Min,
            TransformKind::Spread,
            TransformKind::Dwt,
        ] {
            let f = 4;
            let fl = kind.compute(&left, f);
            let fr = kind.compute(&right, f);
            let merged =
                kind.merge_bounds(&Bounds::point(&fl), &Bounds::point(&fr), MergePrecision::Fast);
            let exact = kind.merge_exact(&fl, &fr);
            for i in 0..exact.len() {
                assert!((merged.lo()[i] - exact[i]).abs() < EPS, "{kind:?}");
                assert!((merged.hi()[i] - exact[i]).abs() < EPS, "{kind:?}");
            }
        }
    }

    /// Reused buffers give the same bits as fresh ones, and the fixed-array
    /// aggregate merge agrees with the `Bounds` merge.
    #[test]
    fn merge_into_reuses_buffers_bit_identically() {
        let (left, right, _) = windows();
        let (mut concat, mut out) = (Bounds::point(&[7.0; 3]), Bounds::point(&[7.0; 5]));
        for kind in [
            TransformKind::Sum,
            TransformKind::Max,
            TransformKind::Min,
            TransformKind::Spread,
            TransformKind::Dwt,
        ] {
            let (fl, fr) = (kind.compute(&left, 4), kind.compute(&right, 4));
            let bl = Bounds::new(
                fl.iter().map(|v| v - 0.5).collect(),
                fl.iter().map(|v| v + 0.3).collect(),
            );
            let br = Bounds::point(&fr);
            let fresh = kind.merge_bounds(&bl, &br, MergePrecision::Fast);
            kind.merge_bounds_into(&bl, &br, MergePrecision::Fast, &mut concat, &mut out);
            assert_eq!(out, fresh, "{kind:?}");
            if kind != TransformKind::Dwt {
                let d = kind.dims(4);
                let (lo, hi) = kind.merge_aggregate((bl.lo(), bl.hi()), (br.lo(), br.hi()));
                assert_eq!((&lo[..d], &hi[..d]), (fresh.lo(), fresh.hi()), "{kind:?}");
                assert_eq!(
                    kind.aggregate_interval(&lo[..d], &hi[..d]),
                    kind.aggregate_interval(fresh.lo(), fresh.hi())
                );
            }
        }
    }

    #[test]
    fn tight_merge_never_looser_than_fast() {
        let bl = Bounds::new(vec![-1.0, 0.0, 1.0, 2.0], vec![0.0, 2.0, 1.5, 2.5]);
        let br = Bounds::new(vec![3.0, -2.0, 0.0, 0.0], vec![4.0, 0.0, 0.25, 1.0]);
        let fast = TransformKind::Dwt.merge_bounds(&bl, &br, MergePrecision::Fast);
        let tight = TransformKind::Dwt.merge_bounds(&bl, &br, MergePrecision::Tight);
        assert!(fast.contains_bounds(&tight, EPS));
    }

    #[test]
    fn spread_interval_bounds_true_spread() {
        let window = [3.0, 9.0, 1.0, 5.0];
        let feat = TransformKind::Spread.compute(&window, 0);
        assert_eq!(feat, vec![9.0, 1.0]);
        let b = Bounds::new(vec![8.5, 0.5], vec![9.5, 1.5]);
        let (lo, hi) = TransformKind::Spread.aggregate_interval(b.lo(), b.hi()).unwrap();
        let true_spread = TransformKind::Spread.scalar_aggregate(&window).unwrap();
        assert!(lo <= true_spread && true_spread <= hi);
        assert!((true_spread - 8.0).abs() < EPS);
    }

    #[test]
    fn aggregate_interval_for_sum() {
        let b = Bounds::new(vec![10.0], vec![14.0]);
        assert_eq!(TransformKind::Sum.aggregate_interval(b.lo(), b.hi()), Some((10.0, 14.0)));
        assert_eq!(TransformKind::Dwt.aggregate_interval(b.lo(), b.hi()), None);
    }

    #[test]
    fn dims_per_kind() {
        assert_eq!(TransformKind::Sum.dims(8), 1);
        assert_eq!(TransformKind::Spread.dims(8), 2);
        assert_eq!(TransformKind::Dwt.dims(8), 8);
    }
}
