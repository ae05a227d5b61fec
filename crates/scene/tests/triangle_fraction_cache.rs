//! The per-gaze triangle-fraction cache against the uncached integral.
//!
//! `triangle_fraction_cached` answers numerators from the denominator's
//! recorded ring prefix, so it returns integrals it never ran directly. Its
//! contract is bit identity with `triangle_fraction` on every input, and a
//! fixed amount of area work per gaze. The property suite runs at the
//! elevated case count in the release CI job (`QVR_PROPTEST_CASES`).

use proptest::prelude::*;
use qvr_hvs::{DisplayGeometry, GazePoint};
use qvr_scene::{Benchmark, ComplexityField, TriangleFractionCache};

/// A random panel or one of the presets the apps ship with.
fn display_of(pick: u32, fov_h: f64, fov_v: f64) -> DisplayGeometry {
    match pick {
        0 => DisplayGeometry::vive_pro_class(),
        1 => DisplayGeometry::low_res_class(),
        2 => DisplayGeometry::per_eye(1000, 300, 160.0, 60.0),
        _ => DisplayGeometry::per_eye(1920, 1080, fov_h, fov_v),
    }
}

/// A random field, the default, the uniform one, or an app's.
fn field_of(pick: u32, k: f64, sigma: f64) -> ComplexityField {
    match pick {
        0 => ComplexityField::default(),
        1 => ComplexityField::uniform(),
        2 => Benchmark::Grid.profile().complexity,
        _ => ComplexityField::new(k, sigma),
    }
}

/// A random gaze, the centre, or a panel edge or corner.
fn gaze_of(pick: u32, x: f64, y: f64) -> GazePoint {
    match pick {
        0 => GazePoint::center(),
        1 => GazePoint::clamped(1.0, 1.0),
        2 => GazePoint::clamped(-1.0, 1.0),
        3 => GazePoint::clamped(-1.0, -1.0),
        4 => GazePoint::clamped(1.0, -1.0),
        5 => GazePoint::clamped(1.0, 0.0),
        6 => GazePoint::clamped(0.0, -1.0),
        _ => GazePoint::clamped(x, y),
    }
}

/// One `e1` probe of a sequence: on the 0.5° grid, a hair either side of
/// it, off-grid, zero, negative, past saturation, at or beyond `e_max`,
/// NaN, or a repeat of an earlier probe.
fn e1_of(
    kind: u32,
    u: f64,
    k: u32,
    display: &DisplayGeometry,
    gaze: GazePoint,
    earlier: &[f64],
) -> f64 {
    let e_max = display.max_eccentricity().0 * 1.5;
    let grid = f64::from(k) * 0.5;
    match kind {
        0 => grid,
        1 => grid + 1e-9 * (2.0 * u - 1.0) * 2.0,
        2 => u * e_max,
        3 => 0.0,
        4 => -u * 50.0,
        5 => display.saturation_radius_deg(gaze) + 1.0 + u * 20.0,
        6 => e_max + u * 100.0,
        7 => e_max,
        8 => f64::NAN,
        _ if earlier.is_empty() => grid,
        _ => earlier[k as usize % earlier.len()],
    }
}

proptest! {
    #[test]
    fn cached_fraction_has_the_uncached_bits(
        panel in (0u32..6, 60.0f64..160.0, 60.0f64..160.0),
        field in (0u32..5, 0.0f64..10.0, 1.0f64..60.0),
        gazes in collection::vec((0u32..10, -1.0f64..1.0, -1.0f64..1.0), 3),
        probes in collection::vec((0u32..12, 0.0f64..1.0, 0u32..400, 0u32..8), 14),
    ) {
        let display = display_of(panel.0, panel.1, panel.2);
        let field = field_of(field.0, field.1, field.2);
        let gazes: Vec<GazePoint> = gazes.iter().map(|&(p, x, y)| gaze_of(p, x, y)).collect();
        let mut cache = TriangleFractionCache::new();
        let mut gaze = gazes[0];
        let mut earlier = Vec::new();
        for (kind, u, k, switch) in probes {
            // Change gaze mid-sequence now and then, sometimes back to one
            // seen before.
            if switch == 0 {
                gaze = gazes[k as usize % gazes.len()];
                earlier.clear();
            }
            let e1 = e1_of(kind, u, k, &display, gaze, &earlier);
            earlier.push(e1);
            let cached = field.triangle_fraction_cached(e1, &display, gaze, &mut cache);
            let uncached = field.triangle_fraction(e1, &display, gaze);
            prop_assert_eq!(
                cached.to_bits(),
                uncached.to_bits(),
                "e1={} gaze={:?} display={} field={}: cached {} vs uncached {}",
                e1, gaze, display, field, cached, uncached
            );
        }
    }
}

#[test]
fn a_gaze_costs_one_denominator_pass_then_at_most_one_area_per_e1() {
    let display = DisplayGeometry::vive_pro_class();
    let field = ComplexityField::default();
    let e_max = display.max_eccentricity().0 * 1.5; // 116.67°
    let mut cache = TriangleFractionCache::new();
    assert_eq!(cache.area_evaluations(), 0);

    // Rings in each gaze's denominator pass. The loop stops once the
    // previous grid radius reaches the saturation radius + 1°: 78.78° at
    // the centre (158 rings) and 98.29° at (0.3, -0.2) (197 rings). From a
    // corner the disc never saturates before e_max, so all 233 full rings
    // run, plus the partial ring from 116.5° to e_max.
    for (gaze, den_rings) in [
        (GazePoint::center(), 158),
        (GazePoint::clamped(0.3, -0.2), 197),
        (GazePoint::clamped(1.0, 1.0), 234),
    ] {
        // A new gaze: one denominator pass, plus the partial ring of the
        // off-grid e1.
        let before = cache.area_evaluations();
        let _ = field.triangle_fraction_cached(24.2, &display, gaze, &mut cache);
        assert_eq!(cache.area_evaluations() - before, den_rings + 1, "{gaze:?}");

        // Later numerators at the same gaze: none on the grid, one for an
        // off-grid partial ring.
        for (e1, areas) in [(24.0, 0), (31.7, 1), (5.25, 1), (0.5, 0)] {
            let before = cache.area_evaluations();
            let _ = field.triangle_fraction_cached(e1, &display, gaze, &mut cache);
            assert_eq!(cache.area_evaluations() - before, areas, "e1 {e1} {gaze:?}");
        }
        // At or past saturation or e_max: never more than one.
        for e1 in [90.0, 100.3, e_max, 500.0, f64::NAN] {
            let before = cache.area_evaluations();
            let _ = field.triangle_fraction_cached(e1, &display, gaze, &mut cache);
            assert!(cache.area_evaluations() - before <= 1, "e1 {e1} {gaze:?}");
        }

        // A repeated e1 is a memo hit, and e1 <= 0 never integrates.
        let before = cache.area_evaluations();
        for e1 in [24.2, 31.7, 5.25, 24.0, 0.0, -3.0] {
            let _ = field.triangle_fraction_cached(e1, &display, gaze, &mut cache);
        }
        assert_eq!(cache.area_evaluations(), before, "{gaze:?}");
    }
}
