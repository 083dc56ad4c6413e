//! Transforming minimum bounding rectangles through the wavelet transform.
//!
//! When the summarizer trades accuracy for space by grouping `c` consecutive
//! feature vectors into an MBR, computing the next level's feature requires
//! pushing a *rectangle* (not a point) through one analysis step. Appendix A
//! gives two algorithms:
//!
//! * **Online I** — transform all `2^{f'}` corners of the rectangle and take
//!   the tightest enclosing box. Exact for the rectangle (tightest possible
//!   output box) but Θ(2^{f'}·f).
//! * **Online II** (Lemma A.2) — transform only the low and high corners,
//!   using the δ-split `h̃ = (h̃+δ) − δ` so monotonicity holds even when the
//!   filter has negative taps. Θ(f), at the cost of a looser box.
//!
//! Both are *conservative*: the output box contains the transform of every
//! point in the input box, so downstream pruning never causes a false
//! dismissal.

use crate::filter::FilterBank;

/// An axis-aligned hyper-rectangle in feature space, the `B` of the paper:
/// `B[2i]`/`B[2i+1]` are the low/high coordinates of dimension `i`.
///
/// `Bounds::default()` is an empty (zero-dimensional) placeholder for the
/// `*_into` forms below, which overwrite a caller-owned rectangle and reuse
/// its storage; every allocating constructor and transform is a thin
/// wrapper over one of them.
#[derive(Debug, Default, PartialEq)]
pub struct Bounds {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

// By hand so `clone_from` reuses the destination's storage.
impl Clone for Bounds {
    fn clone(&self) -> Self {
        Bounds { lo: self.lo.clone(), hi: self.hi.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.lo.clone_from(&source.lo);
        self.hi.clone_from(&source.hi);
    }
}

/// Checks that `lo`/`hi` form a valid rectangle: equal, nonzero
/// dimensionality and `lo ≤ hi` in every dimension.
///
/// # Panics
/// Panics if they do not.
pub fn check_corners(lo: &[f64], hi: &[f64]) {
    assert_eq!(lo.len(), hi.len(), "lo/hi dimensionality mismatch");
    assert!(!lo.is_empty(), "bounds need at least one dimension");
    for (l, h) in lo.iter().zip(hi) {
        assert!(l <= h, "inverted bounds: lo {l} > hi {h}");
    }
}

impl Bounds {
    /// A degenerate rectangle containing the single point `p`.
    pub fn point(p: &[f64]) -> Self {
        let mut b = Bounds::default();
        b.set_point(p);
        b
    }

    /// A rectangle from explicit low/high coordinates.
    ///
    /// # Panics
    /// Panics if the vectors differ in length, are empty, or `lo > hi` in
    /// some dimension.
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        check_corners(&lo, &hi);
        Bounds { lo, hi }
    }

    /// Overwrites `self` with the degenerate rectangle at `p`, reusing its
    /// storage.
    pub fn set_point(&mut self, p: &[f64]) {
        self.lo.clear();
        self.lo.extend_from_slice(p);
        self.hi.clear();
        self.hi.extend_from_slice(p);
    }

    /// Overwrites `self` with the rectangle `[lo, hi]`, reusing its
    /// storage.
    ///
    /// # Panics
    /// Panics under the same conditions as [`Bounds::new`].
    pub fn set(&mut self, lo: &[f64], hi: &[f64]) {
        check_corners(lo, hi);
        self.lo.clear();
        self.lo.extend_from_slice(lo);
        self.hi.clear();
        self.hi.extend_from_slice(hi);
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Low corner.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// High corner.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Center point.
    pub fn center(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| (l + h) * 0.5).collect()
    }

    /// Extent `hi − lo` per dimension.
    pub fn widths(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).collect()
    }

    /// `true` if `p` lies inside (with tolerance `eps`).
    pub fn contains(&self, p: &[f64], eps: f64) -> bool {
        p.len() == self.dims()
            && p.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(x, (l, h))| *x >= l - eps && *x <= h + eps)
    }

    /// `true` if `other` lies fully inside `self` (with tolerance `eps`).
    pub fn contains_bounds(&self, other: &Bounds, eps: f64) -> bool {
        self.contains(&other.lo, eps) && self.contains(&other.hi, eps)
    }

    /// Grows the rectangle to include `p`.
    ///
    /// # Panics
    /// Panics if `p` has the wrong dimensionality.
    pub fn extend(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.dims(), "point dimensionality mismatch");
        for (i, &x) in p.iter().enumerate() {
            if x < self.lo[i] {
                self.lo[i] = x;
            }
            if x > self.hi[i] {
                self.hi[i] = x;
            }
        }
    }

    /// The concatenation `[self, other]` as a rectangle in `R^{d1+d2}`;
    /// represents all signals whose first half lies in `self` and second
    /// half in `other`.
    pub fn concat(&self, other: &Bounds) -> Bounds {
        let mut out = Bounds::default();
        self.concat_into(other, &mut out);
        out
    }

    /// [`Bounds::concat`] into `out`, reusing its storage.
    pub fn concat_into(&self, other: &Bounds, out: &mut Bounds) {
        out.lo.clear();
        out.lo.extend_from_slice(&self.lo);
        out.lo.extend_from_slice(&other.lo);
        out.hi.clear();
        out.hi.extend_from_slice(&self.hi);
        out.hi.extend_from_slice(&other.hi);
    }

    /// Scales every coordinate by `s ≥ 0` (normalization is linear).
    ///
    /// # Panics
    /// Panics if `s` is negative.
    pub fn scale(&self, s: f64) -> Bounds {
        assert!(s >= 0.0, "scale factor must be nonnegative");
        Bounds {
            lo: self.lo.iter().map(|v| v * s).collect(),
            hi: self.hi.iter().map(|v| v * s).collect(),
        }
    }

    /// Enlarges the rectangle by `r` on both sides of every dimension
    /// (the query-MBR enlargement of Algorithm 4).
    ///
    /// # Panics
    /// Panics if `r` is negative.
    pub fn enlarge(&self, r: f64) -> Bounds {
        assert!(r >= 0.0, "enlargement must be nonnegative");
        Bounds {
            lo: self.lo.iter().map(|v| v - r).collect(),
            hi: self.hi.iter().map(|v| v + r).collect(),
        }
    }

    /// Minimum Euclidean distance from point `p` to this rectangle
    /// (`d_min(p, B)` of Roussopoulos et al., used by the hierarchical
    /// radius refinement).
    pub fn min_dist(&self, p: &[f64]) -> f64 {
        assert_eq!(p.len(), self.dims(), "point dimensionality mismatch");
        let mut acc = 0.0;
        for (x, (l, h)) in p.iter().zip(self.lo.iter().zip(&self.hi)) {
            let d = if x < l {
                l - x
            } else if x > h {
                x - h
            } else {
                0.0
            };
            acc += d * d;
        }
        acc.sqrt()
    }

    /// **Online II** (Lemma A.2): one analysis step applied to the
    /// rectangle, using only the low and high corners and the δ-split.
    ///
    /// Returns a rectangle in `R^{d/2}` containing `analyze(x)` for every
    /// `x` in `self`.
    ///
    /// # Panics
    /// Panics if the dimensionality is odd.
    pub fn analyze_online2(&self, bank: &FilterBank) -> Bounds {
        let mut out = Bounds::default();
        self.analyze_online2_into(bank, &mut out);
        out
    }

    /// [`Bounds::analyze_online2`] into `out`, reusing its storage; for a
    /// nonnegative filter (Haar) this does not allocate.
    ///
    /// # Panics
    /// Panics if the dimensionality is odd.
    pub fn analyze_online2_into(&self, bank: &FilterBank, out: &mut Bounds) {
        let d = bank.delta();
        if d == 0.0 {
            // Nonnegative filter (Haar): corners transform monotonically.
            let half = self.dims() / 2;
            out.lo.resize(half, 0.0);
            out.hi.resize(half, 0.0);
            bank.analyze_into(&self.lo, &mut out.lo);
            bank.analyze_into(&self.hi, &mut out.hi);
            return;
        }
        // Equations 16–17.
        let lo_plus = bank.analyze_shifted(&self.lo, d);
        let hi_plus = bank.analyze_shifted(&self.hi, d);
        let lo_delta = bank.analyze_delta(&self.lo, d);
        let hi_delta = bank.analyze_delta(&self.hi, d);
        out.lo = lo_plus.iter().zip(&hi_delta).map(|(a, b)| a - b).collect();
        out.hi = hi_plus.iter().zip(&lo_delta).map(|(a, b)| a - b).collect();
    }

    /// **Online I**: one analysis step applied to the rectangle by
    /// transforming all `2^d` corners and taking the tightest enclosing box.
    ///
    /// # Panics
    /// Panics if the dimensionality exceeds 24 (corner enumeration would be
    /// intractable) or is odd.
    pub fn analyze_online1(&self, bank: &FilterBank) -> Bounds {
        let d = self.dims();
        assert!(d <= 24, "Online I enumerates 2^d corners; d={d} is intractable");
        let mut corner = vec![0.0; d];
        let mut out: Option<Bounds> = None;
        for mask in 0u64..(1u64 << d) {
            for i in 0..d {
                corner[i] = if mask >> i & 1 == 1 { self.hi[i] } else { self.lo[i] };
            }
            let t = bank.analyze(&corner);
            match &mut out {
                None => out = Some(Bounds::point(&t)),
                Some(b) => b.extend(&t),
            }
        }
        out.expect("at least one corner")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    fn sample_bounds() -> Bounds {
        Bounds::new(vec![-1.0, 0.0, 2.0, -3.0], vec![1.0, 0.5, 2.0, 4.0])
    }

    /// Deterministic interior points of a rectangle for conservativeness checks.
    fn interior_points(b: &Bounds, n: usize) -> Vec<Vec<f64>> {
        let d = b.dims();
        (0..n)
            .map(|k| {
                (0..d)
                    .map(|i| {
                        // low-discrepancy-ish fractions in [0,1]
                        let t = ((k * 31 + i * 17) % 97) as f64 / 96.0;
                        b.lo()[i] + t * (b.hi()[i] - b.lo()[i])
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn point_bounds_have_zero_width() {
        let b = Bounds::point(&[1.0, 2.0]);
        assert_eq!(b.widths(), vec![0.0, 0.0]);
        assert!(b.contains(&[1.0, 2.0], 0.0));
    }

    #[test]
    fn extend_grows_monotonically() {
        let mut b = Bounds::point(&[0.0, 0.0]);
        b.extend(&[1.0, -2.0]);
        b.extend(&[-0.5, 3.0]);
        assert_eq!(b.lo(), &[-0.5, -2.0]);
        assert_eq!(b.hi(), &[1.0, 3.0]);
    }

    #[test]
    fn min_dist_inside_is_zero_outside_positive() {
        let b = sample_bounds();
        assert_eq!(b.min_dist(&[0.0, 0.25, 2.0, 0.0]), 0.0);
        let d = b.min_dist(&[2.0, 0.25, 2.0, 0.0]);
        assert!((d - 1.0).abs() < EPS);
    }

    #[test]
    fn online2_haar_contains_all_interior_transforms() {
        let bank = FilterBank::haar();
        let b = sample_bounds();
        let out = b.analyze_online2(&bank);
        for p in interior_points(&b, 64) {
            let t = bank.analyze(&p);
            assert!(out.contains(&t, EPS), "{t:?} outside {out:?}");
        }
    }

    #[test]
    fn online2_db2_contains_all_interior_transforms() {
        let bank = FilterBank::db2();
        let b = sample_bounds();
        let out = b.analyze_online2(&bank);
        for p in interior_points(&b, 64) {
            let t = bank.analyze(&p);
            assert!(out.contains(&t, EPS), "{t:?} outside {out:?}");
        }
    }

    #[test]
    fn online1_is_tighter_than_online2() {
        let bank = FilterBank::db2();
        let b = sample_bounds();
        let tight = b.analyze_online1(&bank);
        let loose = b.analyze_online2(&bank);
        assert!(loose.contains_bounds(&tight, EPS));
        // And strictly looser in at least one dimension for this filter/box.
        let lw: f64 = loose.widths().iter().sum();
        let tw: f64 = tight.widths().iter().sum();
        assert!(lw >= tw - EPS);
    }

    #[test]
    fn online1_equals_online2_for_haar() {
        // With nonnegative taps both reduce to corner transforms.
        let bank = FilterBank::haar();
        let b = sample_bounds();
        let a = b.analyze_online1(&bank);
        let c = b.analyze_online2(&bank);
        for i in 0..a.dims() {
            assert!((a.lo()[i] - c.lo()[i]).abs() < EPS);
            assert!((a.hi()[i] - c.hi()[i]).abs() < EPS);
        }
    }

    #[test]
    fn degenerate_box_transforms_to_exact_point() {
        let bank = FilterBank::db2();
        let p = [0.3, -1.0, 2.2, 0.9];
        let b = Bounds::point(&p);
        let out = b.analyze_online2(&bank);
        let exact = bank.analyze(&p);
        for i in 0..exact.len() {
            assert!((out.lo()[i] - exact[i]).abs() < EPS);
            assert!((out.hi()[i] - exact[i]).abs() < EPS);
        }
    }

    #[test]
    fn haar_width_growth_bounded_by_two() {
        // A.1: unitary rotation stretches each projection at most 2x the
        // total original extent; for Haar one step sums pairs, so each output
        // width is at most (w[2i]+w[2i+1])/√2 ≤ √2 · max-pair-width.
        let bank = FilterBank::haar();
        let b = sample_bounds();
        let out = b.analyze_online2(&bank);
        let w_in = b.widths();
        let w_out = out.widths();
        for (i, w) in w_out.iter().enumerate() {
            let pair = w_in[2 * i] + w_in[2 * i + 1];
            assert!(*w <= pair / std::f64::consts::SQRT_2 + EPS);
        }
    }

    #[test]
    fn concat_preserves_corners() {
        let a = Bounds::new(vec![0.0], vec![1.0]);
        let b = Bounds::new(vec![2.0], vec![3.0]);
        let c = a.concat(&b);
        assert_eq!(c.lo(), &[0.0, 2.0]);
        assert_eq!(c.hi(), &[1.0, 3.0]);
    }

    #[test]
    fn scale_and_enlarge() {
        let b = Bounds::new(vec![-2.0, 1.0], vec![2.0, 3.0]);
        let s = b.scale(0.5);
        assert_eq!(s.lo(), &[-1.0, 0.5]);
        assert_eq!(s.hi(), &[1.0, 1.5]);
        let e = b.enlarge(1.0);
        assert_eq!(e.lo(), &[-3.0, 0.0]);
        assert_eq!(e.hi(), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_bounds_rejected() {
        let _ = Bounds::new(vec![1.0], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "inverted bounds")]
    fn inverted_set_rejected() {
        Bounds::point(&[0.0]).set(&[1.0], &[0.0]);
    }

    /// The `_into` forms overwrite whatever the destination held.
    #[test]
    fn into_forms_overwrite_reused_buffers() {
        let bank = FilterBank::haar();
        let b = sample_bounds();
        let mut out = Bounds::new(vec![-9.0; 6], vec![9.0; 6]);
        b.analyze_online2_into(&bank, &mut out);
        assert_eq!(out, b.analyze_online2(&bank));
        let mut cat = Bounds::point(&[5.0; 9]);
        b.concat_into(&Bounds::point(&[1.0]), &mut cat);
        assert_eq!(cat, b.concat(&Bounds::point(&[1.0])));
        let mut copy = Bounds::point(&[3.0]);
        copy.clone_from(&b);
        assert_eq!(copy, b);
    }
}
