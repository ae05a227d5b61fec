//! Radial scene-complexity fields.
//!
//! How much of a scene's geometry lands inside a fovea disc of radius `e1`
//! determines the local rendering cost in Q-VR (Eq. 2's `#triangles ×
//! %fovea`). Game scenes are not uniform: detail concentrates where users
//! look (interactive objects, focal architecture). We model triangle
//! density as a radial profile around the gaze point,
//!
//! ```text
//! density(e) = 1 + k · exp(−e² / 2σ²)
//! ```
//!
//! with `k` the *center concentration* and `σ` its angular extent. The
//! fraction of frame triangles within eccentricity `e1` is the ring-
//! integrated density, where ring weights come from the display's clipped
//! disc geometry (so off-screen parts of the disc never count).

use qvr_hvs::{DisplayGeometry, GazePoint};
use std::fmt;

/// A radial triangle-density field around the gaze point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexityField {
    concentration: f64,
    sigma_deg: f64,
}

impl ComplexityField {
    /// Integration step in degrees.
    const STEP: f64 = 0.5;

    /// Creates a field with center concentration `k ≥ 0` and angular extent
    /// `σ > 0` degrees.
    ///
    /// # Panics
    ///
    /// Panics if `concentration` is negative or `sigma_deg` is not positive.
    #[must_use]
    pub fn new(concentration: f64, sigma_deg: f64) -> Self {
        assert!(concentration >= 0.0, "concentration must be non-negative");
        assert!(sigma_deg > 0.0, "sigma must be positive");
        ComplexityField {
            concentration,
            sigma_deg,
        }
    }

    /// A uniform field: triangles spread evenly over the view.
    #[must_use]
    pub fn uniform() -> Self {
        ComplexityField {
            concentration: 0.0,
            sigma_deg: 30.0,
        }
    }

    /// The center concentration `k`.
    #[must_use]
    pub fn concentration(&self) -> f64 {
        self.concentration
    }

    /// The angular extent `σ` in degrees.
    #[must_use]
    pub fn sigma_deg(&self) -> f64 {
        self.sigma_deg
    }

    /// Relative triangle density at eccentricity `e` degrees from gaze.
    #[must_use]
    pub fn density(&self, e_deg: f64) -> f64 {
        1.0 + self.concentration * (-0.5 * (e_deg / self.sigma_deg).powi(2)).exp()
    }

    /// Fraction of the frame's triangles inside the eccentricity disc of
    /// radius `e1` centred at `gaze`, in `[0, 1]`.
    ///
    /// Ring weights are the derivative of the clipped disc area, so gaze
    /// points near the panel edge integrate correctly.
    #[must_use]
    pub fn triangle_fraction(
        &self,
        e1_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
    ) -> f64 {
        if e1_deg <= 0.0 {
            return 0.0;
        }
        let e_max = display.max_eccentricity().0 * 1.5;
        let num = self.integrate(e1_deg.min(e_max), display, gaze, None);
        let den = self.integrate(e_max, display, gaze, None);
        Self::fraction_of(num, den)
    }

    /// `triangle_fraction` through a per-gaze memo (see
    /// [`TriangleFractionCache`]). The first call at a gaze runs the
    /// gaze-wide denominator integral once and records its running ring sum
    /// at every grid radius. Every numerator at that gaze is then a prefix
    /// lookup plus at most one partial ring (one area evaluation), and a
    /// repeated `e1` is a plain memo hit. Results are bit-identical to
    /// [`ComplexityField::triangle_fraction`]: a numerator's prefix is the
    /// same float adds in the same order as the uncached loop runs.
    #[must_use]
    pub fn triangle_fraction_cached(
        &self,
        e1_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: &mut TriangleFractionCache,
    ) -> f64 {
        if e1_deg <= 0.0 {
            return 0.0;
        }
        cache.rekey(gaze);
        if let Some(frac) = cache.lookup(e1_deg) {
            return frac;
        }
        let e_max = display.max_eccentricity().0 * 1.5;
        let den = match cache.den {
            Some(den) => den,
            None => {
                // Grid radii 0, STEP, …, up to e_max.
                cache.prefix.reserve(grid_index(e_max) + 1);
                cache.prefix.push((0.0, 0.0));
                let den = self.integrate(e_max, display, gaze, Some(&mut *cache));
                cache.den = Some(den);
                den
            }
        };
        let num = self.prefix_integral(e1_deg.min(e_max), display, gaze, cache);
        let frac = Self::fraction_of(num, den);
        cache.insert(e1_deg, frac);
        frac
    }

    fn fraction_of(num: f64, den: f64) -> f64 {
        if den <= 0.0 {
            0.0
        } else {
            (num / den).clamp(0.0, 1.0)
        }
    }

    /// The ring integral out to `upto_deg`. With a cache, every full ring
    /// also appends `(running sum, area)` to its prefix and every area
    /// evaluation is counted.
    fn integrate(
        &self,
        upto_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
        mut cache: Option<&mut TriangleFractionCache>,
    ) -> f64 {
        // Once a grid radius certainly covers the whole clipped panel, every
        // later ring is the difference of two bit-identical saturated areas
        // — exactly 0.0 — so the loop can stop. `saturation_radius` is
        // conservative by a full degree: rings near the boundary still run
        // the real integration.
        let r_sat = display.saturation_radius_deg(gaze) + 1.0;
        let mut sum = 0.0;
        let mut prev_area = 0.0;
        let mut e = Self::STEP;
        while e <= upto_deg + 1e-9 {
            if e - Self::STEP >= r_sat {
                // Previous grid radius was already saturated; this ring and
                // every remaining one (including the partial last ring)
                // would add exactly 0.0.
                return sum;
            }
            let area = display.fovea_area_fraction(e, gaze);
            let ring = (area - prev_area).max(0.0);
            sum += ring * self.density(e - Self::STEP / 2.0);
            prev_area = area;
            if let Some(cache) = cache.as_deref_mut() {
                cache.area_evaluations += 1;
                cache.prefix.push((sum, area));
            }
            e += Self::STEP;
        }
        let grid = (sum, prev_area);
        self.partial_ring(upto_deg, e - Self::STEP, grid, display, gaze, cache)
    }

    /// The running sum `grid.0` at the grid radius `grid_deg` (clipped-disc
    /// area `grid.1`), plus the partial last ring out to `upto_deg` if that
    /// ring is wider than 1e-9°.
    fn partial_ring(
        &self,
        upto_deg: f64,
        grid_deg: f64,
        (sum, prev_area): (f64, f64),
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: Option<&mut TriangleFractionCache>,
    ) -> f64 {
        let rem = upto_deg - grid_deg;
        if rem <= 1e-9 {
            return sum;
        }
        if let Some(cache) = cache {
            cache.area_evaluations += 1;
        }
        let area = display.fovea_area_fraction(upto_deg, gaze);
        let ring = (area - prev_area).max(0.0);
        sum + ring * self.density(upto_deg - rem / 2.0)
    }

    /// `integrate(upto_deg)` read from the denominator's recorded prefix,
    /// for any `upto_deg` no larger than the denominator's. The uncached
    /// loop runs the grid radii `k·STEP <= upto_deg + 1e-9`, a prefix of
    /// the denominator's, so its running sum after the last one is the
    /// recorded one, and it then adds the same partial ring.
    fn prefix_integral(
        &self,
        upto_deg: f64,
        display: &DisplayGeometry,
        gaze: GazePoint,
        cache: &mut TriangleFractionCache,
    ) -> f64 {
        let k = grid_index(upto_deg);
        let last = cache.prefix.len() - 1;
        if k > last {
            // The denominator ran every radius up to `k` unless saturation
            // stopped it first, which stops the uncached loop at the same
            // ring.
            return cache.prefix[last].0;
        }
        let grid = cache.prefix[k];
        // k·STEP is exact: the loop's `e += STEP` only visits multiples of
        // 0.5, which f64 represents exactly at these magnitudes.
        let grid_deg = k as f64 * Self::STEP;
        self.partial_ring(upto_deg, grid_deg, grid, display, gaze, Some(cache))
    }
}

/// Index of the last grid radius `k·STEP` that `integrate`'s loop condition
/// `k·STEP <= upto_deg + 1e-9` admits. Halving and doubling are exact, so
/// `floor((upto + 1e-9) / STEP)` is exactly that `k`.
fn grid_index(upto_deg: f64) -> usize {
    ((upto_deg + 1e-9) / ComplexityField::STEP).floor() as usize
}

/// Per-gaze memo for [`ComplexityField::triangle_fraction_cached`].
///
/// Keyed by the gaze point's raw bits: a new gaze clears everything (the
/// buffers keep their capacity, so a warmed-up cache allocates nothing).
/// For the current gaze it holds the denominator, the denominator's running
/// ring sum and clipped-disc area at every grid radius, and each `e1`
/// already answered. One cache belongs to ONE (field, display) pair —
/// steppers own one per session; sharing across profiles would mix
/// incompatible integrals.
#[derive(Debug, Clone, Default)]
pub struct TriangleFractionCache {
    gaze: Option<(u64, u64)>,
    den: Option<f64>,
    /// `(running ring sum, clipped-disc area)` after grid radius `k·STEP`,
    /// at index `k`, with `(0, 0)` at index 0. It ends at the denominator's
    /// last full ring, or at the last ring before saturation stopped it.
    prefix: Vec<(f64, f64)>,
    entries: Vec<(u64, f64)>,
    area_evaluations: u64,
}

impl TriangleFractionCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Clipped-disc area evaluations
    /// ([`DisplayGeometry::fovea_area_fraction`] calls) this cache has made
    /// over its lifetime: a deterministic work counter. A new gaze costs
    /// one denominator pass, any later `e1` at that gaze at most one more
    /// evaluation, and a repeated `e1` none.
    #[must_use]
    pub fn area_evaluations(&self) -> u64 {
        self.area_evaluations
    }

    fn rekey(&mut self, gaze: GazePoint) {
        let key = (gaze.x.to_bits(), gaze.y.to_bits());
        if self.gaze != Some(key) {
            self.gaze = Some(key);
            self.den = None;
            self.prefix.clear();
            self.entries.clear();
        }
    }

    fn lookup(&self, e1_deg: f64) -> Option<f64> {
        let key = e1_deg.to_bits();
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, f)| *f)
    }

    fn insert(&mut self, e1_deg: f64, frac: f64) {
        self.entries.push((e1_deg.to_bits(), frac));
    }
}

impl Default for ComplexityField {
    fn default() -> Self {
        ComplexityField::new(3.0, 20.0)
    }
}

impl fmt::Display for ComplexityField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "density(e) = 1 + {:.1}·exp(-e²/2·{:.0}²)",
            self.concentration, self.sigma_deg
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn display() -> DisplayGeometry {
        DisplayGeometry::vive_pro_class()
    }

    #[test]
    fn density_peaks_at_center() {
        let f = ComplexityField::new(4.0, 15.0);
        assert!(f.density(0.0) > f.density(10.0));
        assert!(f.density(10.0) > f.density(40.0));
        assert!((f.density(0.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_density_is_flat() {
        let f = ComplexityField::uniform();
        assert_eq!(f.density(0.0), f.density(50.0));
    }

    #[test]
    fn fraction_monotone_in_radius() {
        let f = ComplexityField::default();
        let d = display();
        let g = GazePoint::center();
        let mut last = 0.0;
        for e in 1..=90 {
            let frac = f.triangle_fraction(f64::from(e), &d, g);
            assert!(frac + 1e-9 >= last, "fraction must grow with e1");
            assert!((0.0..=1.0).contains(&frac));
            last = frac;
        }
    }

    #[test]
    fn full_disc_captures_everything() {
        let f = ComplexityField::default();
        let frac = f.triangle_fraction(120.0, &display(), GazePoint::center());
        assert!(
            frac > 0.999,
            "whole view must contain all triangles, got {frac}"
        );
    }

    #[test]
    fn zero_radius_captures_nothing() {
        let f = ComplexityField::default();
        assert_eq!(
            f.triangle_fraction(0.0, &display(), GazePoint::center()),
            0.0
        );
    }

    #[test]
    fn concentrated_field_front_loads_triangles() {
        let d = display();
        let g = GazePoint::center();
        let uniform = ComplexityField::uniform();
        let concentrated = ComplexityField::new(8.0, 10.0);
        let e1 = 15.0;
        let fu = uniform.triangle_fraction(e1, &d, g);
        let fc = concentrated.triangle_fraction(e1, &d, g);
        assert!(
            fc > 1.5 * fu,
            "concentration must front-load triangles: uniform {fu}, concentrated {fc}"
        );
    }

    #[test]
    fn uniform_fraction_tracks_area() {
        let d = display();
        let g = GazePoint::center();
        let f = ComplexityField::uniform();
        for e1 in [10.0, 25.0, 45.0] {
            let frac = f.triangle_fraction(e1, &d, g);
            // With a flat density, triangle share equals (visible) area
            // share of the whole extended view; compare against the ratio of
            // clipped disc areas.
            let area_ratio = d.fovea_area_fraction(e1, g)
                / d.fovea_area_fraction(d.max_eccentricity().0 * 1.5, g);
            assert!(
                (frac - area_ratio).abs() < 0.02,
                "e1={e1}: {frac} vs {area_ratio}"
            );
        }
    }

    #[test]
    fn off_center_gaze_still_integrates() {
        let f = ComplexityField::default();
        let frac = f.triangle_fraction(20.0, &display(), GazePoint::clamped(0.8, -0.7));
        assert!(frac > 0.0 && frac < 1.0);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn zero_sigma_rejected() {
        let _ = ComplexityField::new(1.0, 0.0);
    }

    #[test]
    fn display_format() {
        let s = ComplexityField::default().to_string();
        assert!(s.contains("density"));
    }
}
