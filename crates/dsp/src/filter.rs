//! Two-channel analysis filter banks: circular convolution + downsampling.
//!
//! Appendix A of the paper phrases the incremental DWT in terms of a low-pass
//! decomposition filter `h̃` (Equations 11–12): approximation coefficients at
//! the next level are obtained by convolving the current approximation signal
//! with `h̃` and downsampling by two. For Haar, `h̃ = [1/√2, 1/√2]`; longer
//! Daubechies-style filters have negative taps, which is exactly the case
//! Lemma A.2's δ-split handles. This module implements both the filtering and
//! the split.

use std::borrow::Cow;

/// The Haar low-pass taps, shared by every [`FilterBank::haar`].
const HAAR_TAPS: [f64; 2] = [crate::haar::INV_SQRT2; 2];

/// A two-channel analysis filter bank described by its low-pass
/// decomposition filter `h̃` (the high-pass is the quadrature mirror, used
/// only for detail coefficients, which Stardust discards).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterBank {
    lowpass: Cow<'static, [f64]>,
}

impl FilterBank {
    /// The Haar filter bank, `h̃ = [1/√2, 1/√2]`. Borrows static taps, so
    /// building one does not allocate.
    pub fn haar() -> Self {
        FilterBank { lowpass: Cow::Borrowed(&HAAR_TAPS) }
    }

    /// The Daubechies-4 (two-vanishing-moment) filter bank. Its low-pass
    /// filter has a negative tap, exercising the δ-split path of Lemma A.2.
    pub fn db2() -> Self {
        let s3 = 3f64.sqrt();
        let norm = 4.0 * 2f64.sqrt();
        FilterBank {
            lowpass: Cow::Owned(vec![
                (1.0 + s3) / norm,
                (3.0 + s3) / norm,
                (3.0 - s3) / norm,
                (1.0 - s3) / norm,
            ]),
        }
    }

    /// Builds a filter bank from arbitrary low-pass taps.
    ///
    /// # Panics
    /// Panics if `taps` is empty.
    pub fn from_taps(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "filter needs at least one tap");
        FilterBank { lowpass: Cow::Owned(taps) }
    }

    /// The low-pass taps.
    pub fn taps(&self) -> &[f64] {
        &self.lowpass
    }

    /// `true` if every tap is nonnegative (Haar), in which case the MBR
    /// transform can use the corner signals directly without a δ-split.
    pub fn is_nonnegative(&self) -> bool {
        self.lowpass.iter().all(|&t| t >= 0.0)
    }

    /// The δ amplitude of Lemma A.2: the smallest nonnegative constant such
    /// that every tap of `h̃ + δ` is nonnegative.
    pub fn delta(&self) -> f64 {
        self.lowpass.iter().copied().fold(0.0f64, |acc, t| acc.max(-t))
    }

    /// One analysis step: circular convolution of `x` with the low-pass
    /// filter followed by downsampling by two (Equations 11–12).
    ///
    /// `out[n] = Σ_k h̃[k] · x[(2n + k) mod len]`.
    ///
    /// # Panics
    /// Panics if `x.len()` is odd or zero.
    pub fn analyze(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len() / 2];
        self.analyze_into(x, &mut out);
        out
    }

    /// [`FilterBank::analyze`] into a caller buffer of `x.len() / 2`
    /// coefficients; allocation-free.
    ///
    /// # Panics
    /// Panics if `x.len()` is odd or zero, or `out` has the wrong length.
    pub fn analyze_into(&self, x: &[f64], out: &mut [f64]) {
        assert!(!x.is_empty() && x.len().is_multiple_of(2), "analysis needs even, nonzero length");
        assert_eq!(out.len(), x.len() / 2, "output buffer must hold half the input length");
        let n = x.len();
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &h) in self.lowpass.iter().enumerate() {
                acc += h * x[(2 * i + k) % n];
            }
            *o = acc;
        }
    }

    /// Like [`FilterBank::analyze`] but with the taps shifted by an additive
    /// constant `delta`; used to form the two nonnegative parts of the
    /// δ-split `h̃ = (h̃ + δ) − δ`.
    pub fn analyze_shifted(&self, x: &[f64], delta: f64) -> Vec<f64> {
        assert!(!x.is_empty() && x.len().is_multiple_of(2), "analysis needs even, nonzero length");
        let n = x.len();
        let mut out = Vec::with_capacity(n / 2);
        for i in 0..n / 2 {
            let mut acc = 0.0;
            for (k, &h) in self.lowpass.iter().enumerate() {
                acc += (h + delta) * x[(2 * i + k) % n];
            }
            out.push(acc);
        }
        out
    }

    /// Convolution of `x` with the constant filter `δ` (same support as the
    /// low-pass filter), downsampled by two: `out[n] = δ · Σ_k x[(2n+k) mod len]`.
    pub fn analyze_delta(&self, x: &[f64], delta: f64) -> Vec<f64> {
        assert!(!x.is_empty() && x.len().is_multiple_of(2), "analysis needs even, nonzero length");
        let n = x.len();
        let taps = self.lowpass.len();
        let mut out = Vec::with_capacity(n / 2);
        for i in 0..n / 2 {
            let mut acc = 0.0;
            for k in 0..taps {
                acc += x[(2 * i + k) % n];
            }
            out.push(acc * delta);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar;

    const EPS: f64 = 1e-10;

    #[test]
    fn haar_analyze_matches_averaging_step() {
        let x = [1.0, 3.0, -2.0, 6.0, 0.5, 0.5, 9.0, -9.0];
        let via_filter = FilterBank::haar().analyze(&x);
        let via_step = haar::averaging_step(&x);
        for (a, b) in via_filter.iter().zip(&via_step) {
            assert!((a - b).abs() < EPS);
        }
    }

    #[test]
    fn haar_is_nonnegative_db2_is_not() {
        assert!(FilterBank::haar().is_nonnegative());
        assert!(!FilterBank::db2().is_nonnegative());
        assert_eq!(FilterBank::haar().delta(), 0.0);
        assert!(FilterBank::db2().delta() > 0.0);
    }

    #[test]
    fn db2_lowpass_sums_to_sqrt2() {
        // Admissibility: Σ h̃[k] = √2 for an orthonormal two-channel bank.
        let sum: f64 = FilterBank::db2().taps().iter().sum();
        assert!((sum - 2f64.sqrt()).abs() < EPS);
    }

    #[test]
    fn db2_preserves_constant_energy_per_step() {
        // For a constant signal, one analysis step scales by √2 exactly.
        let x = vec![1.0; 8];
        let y = FilterBank::db2().analyze(&x);
        for v in y {
            assert!((v - 2f64.sqrt()).abs() < EPS);
        }
    }

    #[test]
    fn delta_split_is_exact() {
        // analyze(x) == analyze_shifted(x, δ) − analyze_delta(x, δ)
        let bank = FilterBank::db2();
        let d = bank.delta();
        let x = [0.4, -1.2, 3.3, 2.0, -0.7, 0.0, 5.5, 1.1];
        let direct = bank.analyze(&x);
        let plus = bank.analyze_shifted(&x, d);
        let minus = bank.analyze_delta(&x, d);
        for i in 0..direct.len() {
            assert!((direct[i] - (plus[i] - minus[i])).abs() < EPS);
        }
    }

    #[test]
    fn shifted_filter_is_monotone_on_ordered_signals() {
        // With nonnegative taps, x ≤ y pointwise implies analyze(x) ≤ analyze(y).
        let bank = FilterBank::db2();
        let d = bank.delta();
        let lo = [0.0, 1.0, -2.0, 0.5, 1.5, -1.0, 0.0, 2.0];
        let hi = [0.5, 1.5, -1.0, 1.5, 2.5, 0.0, 1.0, 2.0];
        let alo = bank.analyze_shifted(&lo, d);
        let ahi = bank.analyze_shifted(&hi, d);
        for (a, b) in alo.iter().zip(&ahi) {
            assert!(a <= &(b + EPS));
        }
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_rejected() {
        let _ = FilterBank::from_taps(vec![]);
    }
}
