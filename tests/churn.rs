//! Virtual-time stepping and churn integration tests: clock monotonicity,
//! frame-count parity with round-robin, the §7 time-skew artifact
//! disappearing under `SteppingPolicy::VirtualTime`, churn determinism,
//! and the bounded-memory (O(window) retained tasks per resource) claim
//! the CI smoke job pins at 64 sessions.

use qvr::prelude::*;
use qvr::scene::Benchmark;

fn vt_fleet(n: usize, frames: usize, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        n,
        frames,
        seed,
    );
    config.stepping = SteppingPolicy::VirtualTime;
    config
}

#[test]
fn virtual_time_never_steps_a_session_backwards() {
    // Property: stepping order is earliest-first, and no session's virtual
    // clock (last_display_end) ever decreases; moreover the global pick is
    // always the minimum clock among unfinished sessions.
    let mut fleet = Fleet::new(vt_fleet(6, 25, 21));
    let mut clocks = [0.0f64; 6];
    while let Some(slot) = fleet.step_next() {
        let before = clocks[slot];
        let after = fleet.sessions()[slot].last_display_end();
        assert!(
            after >= before,
            "session {slot}'s clock ran backwards: {after:.2} < {before:.2}"
        );
        // The popped session was the earliest unfinished one.
        for (i, c) in clocks.iter().enumerate() {
            if fleet.sessions()[i].frames_stepped() < 25 || i == slot {
                assert!(
                    before <= *c + 1e-9,
                    "stepped slot {slot} at {before:.2} but slot {i} was earlier at {c:.2}"
                );
            }
        }
        clocks[slot] = after;
    }
    for s in fleet.sessions() {
        assert_eq!(s.frames_stepped(), 25);
    }
}

#[test]
fn virtual_time_frame_counts_match_round_robin() {
    // Per-session frame counts are a budget, not a race: both policies
    // deliver exactly `frames` frames to every session.
    let rr = Fleet::run(FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        5,
        30,
        3,
    ));
    let vt = Fleet::run(vt_fleet(5, 30, 3));
    assert_eq!(rr.len(), vt.len());
    for (a, b) in rr.sessions.iter().zip(&vt.sessions) {
        assert_eq!(a.len(), 30);
        assert_eq!(b.len(), 30);
    }
}

#[test]
fn virtual_time_fleets_are_deterministic() {
    let a = Fleet::run(vt_fleet(6, 20, 11));
    let b = Fleet::run(vt_fleet(6, 20, 11));
    assert_eq!(a, b);
}

#[test]
fn uniform_fleets_agree_across_stepping_policies() {
    // A homogeneous fleet has (nearly) no time skew, so virtual-time
    // stepping must reproduce round-robin's aggregate shape — the policies
    // only diverge when tenants advance at very different paces.
    let rr = Fleet::run(FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        4,
        40,
        5,
    ));
    let vt = Fleet::run(vt_fleet(4, 40, 5));
    let ratio = vt.mtp_p95_ms / rr.mtp_p95_ms;
    assert!(
        (0.8..1.25).contains(&ratio),
        "uniform fleets should agree across policies: p95 ratio {ratio:.2}"
    );
}

/// Peak spread between session clocks over a whole run: the §7 skew.
fn peak_skew_ms(mut fleet: Fleet, frames: usize) -> f64 {
    let mut peak = 0.0f64;
    let mut measure = |sessions: &[&Session]| {
        let unfinished: Vec<f64> = sessions
            .iter()
            .filter(|s| s.frames_stepped() > 0 && s.frames_stepped() < frames)
            .map(|s| s.last_display_end())
            .collect();
        if unfinished.len() >= 2 {
            let min = unfinished.iter().copied().fold(f64::INFINITY, f64::min);
            let max = unfinished.iter().copied().fold(0.0f64, f64::max);
            peak = peak.max(max - min);
        }
    };
    match fleet.stepping() {
        SteppingPolicy::RoundRobin => {
            for _ in 0..frames {
                fleet.step_round();
                measure(&fleet.sessions());
            }
        }
        SteppingPolicy::VirtualTime => {
            while fleet.step_next().is_some() {
                measure(&fleet.sessions());
            }
        }
    }
    peak
}

#[test]
fn virtual_time_retires_the_section7_skew_artifact() {
    // DESIGN.md §7: under round-robin, strongly unequal link shares make
    // per-session timelines advance at different simulated paces — after
    // enough rounds the tenants are whole time-windows apart, and the
    // slow tenant's far-future pool frontiers queue the fast one. Under
    // virtual-time stepping the same fleet stays synchronized: the peak
    // clock spread collapses to less than a couple of frame intervals.
    let frames = 60;
    let config = |stepping: SteppingPolicy| FleetConfig {
        system: SystemConfig::default(),
        sessions: vec![
            SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile())
                .with_share(LinkShare::weighted(8.0)),
            SessionSpec::new(SchemeKind::RemoteOnly, Benchmark::Hl2H.profile()),
        ],
        frames,
        seed: 17,
        server_units: 8,
        shared_network: true,
        link_streams: 1,
        fairness: FairnessPolicy::Weighted,
        server_policy: ServerPolicy::default(),
        stepping,
        retire_window_ms: None,
        telemetry: TelemetryConfig::default(),
    };
    let rr_skew = peak_skew_ms(Fleet::new(config(SteppingPolicy::RoundRobin)), frames);
    let vt_skew = peak_skew_ms(Fleet::new(config(SteppingPolicy::VirtualTime)), frames);
    assert!(
        rr_skew > 4.0 * vt_skew,
        "round-robin must skew tenants apart and virtual time must not: \
         {rr_skew:.0} ms vs {vt_skew:.0} ms"
    );
    // And the artifact's symptom is gone: with virtual time, the fast
    // tenant's remote chain stays fast at long horizons (under round-robin
    // the slow tenant's future frontiers inflate it — DESIGN.md §7 is why
    // the weighted-tilt unit test had to stop at 8 frames).
    let rem = |s: &FleetSummary, i: usize| {
        let f = &s.sessions[i].frames;
        f.iter().map(|r| r.t_remote_ms).sum::<f64>() / f.len() as f64
    };
    let vt = Fleet::run(config(SteppingPolicy::VirtualTime));
    let rr = Fleet::run(config(SteppingPolicy::RoundRobin));
    assert!(
        rem(&vt, 0) < rem(&vt, 1),
        "virtual time: the 8x-weighted tenant keeps its faster remote chain \
         even over {frames} frames: {:.1} vs {:.1} ms",
        rem(&vt, 0),
        rem(&vt, 1),
    );
    assert!(
        rem(&rr, 0) > rem(&vt, 0),
        "round-robin's cross-window queueing must inflate the fast tenant's \
         chain relative to virtual time: {:.1} vs {:.1} ms",
        rem(&rr, 0),
        rem(&vt, 0),
    );
}

#[test]
fn churn_traces_are_deterministic_under_a_fixed_seed() {
    let spec = || SessionSpec::new(SchemeKind::Qvr, Benchmark::Doom3H.profile());
    let make = || {
        let trace = ChurnTrace::poisson(23, 6.0, 300.0, 1_200.0, 1, |_| spec());
        ChurnConfig::new(SystemConfig::default(), vec![spec()], trace, 1_200.0, 23)
    };
    let a = ChurnFleet::run(make());
    let b = ChurnFleet::run(make());
    assert_eq!(a, b, "same seed, same trace, same everything");
    assert!(!a.is_empty());
}

#[test]
fn recycled_slot_gets_a_fresh_rate_controller() {
    // Tenant 0 leaves at 500 ms; a new tenant joins at 600 ms and recycles
    // the slot. With rate control on, the controllers live inside each
    // session's stepper, so the joiner must open at exactly the configured
    // initial quality — fresh loop state, nothing inherited from the
    // departed tenant — while a resident tenant has long stepped away from
    // that initial point.
    let rc = RateControlConfig::on();
    let spec = || SessionSpec::new(SchemeKind::Qvr, Benchmark::Hl2H.profile());
    let trace = ChurnTrace::script(vec![
        ChurnEvent::leave(500.0, 0),
        ChurnEvent::join(600.0, spec()),
    ]);
    let summary = ChurnFleet::run(
        ChurnConfig::new(
            SystemConfig::default(),
            vec![spec(), spec()],
            trace,
            1_200.0,
            11,
        )
        .with_rate_control(rc),
    );
    let tenant = |ordinal: usize| {
        summary
            .tenants
            .iter()
            .find(|t| t.ordinal == ordinal)
            .expect("every ordinal leaves a record")
    };
    let joiner = tenant(2);
    assert!(!joiner.summary.is_empty(), "the joiner stepped frames");
    assert_eq!(
        joiner.summary.frames[0].quality,
        Some(rc.initial_quality),
        "a recycled slot must start from a fresh controller"
    );
    let resident = tenant(1);
    let settled = resident
        .summary
        .frames
        .last()
        .and_then(|f| f.quality)
        .expect("rate control on: every frame carries its quality");
    assert_ne!(
        settled, rc.initial_quality,
        "the resident controller should have stepped off its initial point"
    );
}

/// The retirement window for the bounded-memory smoke, ms. The CI job sets
/// `QVR_RETIRE_WINDOW`; locally the default keeps the test meaningful.
fn retire_window_ms() -> f64 {
    std::env::var("QVR_RETIRE_WINDOW")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250.0)
}

#[test]
fn churn_bounded_memory_64_sessions_retains_o_window_tasks() {
    // The scale claim: a churn fleet with windowed retirement holds
    // O(window) live tasks per resource no matter how much history it has
    // simulated. Debug builds run a smaller instance; the release CI smoke
    // job runs the full 64-session fleet.
    let (n, horizon_ms) = if cfg!(debug_assertions) {
        (16, 900.0)
    } else {
        (64, 2_000.0)
    };
    let window_ms = retire_window_ms();
    let spec = |i: usize| {
        let apps = [
            Benchmark::Hl2H,
            Benchmark::Doom3H,
            Benchmark::Wolf,
            Benchmark::Ut3,
        ];
        SessionSpec::new(SchemeKind::Qvr, apps[i % apps.len()].profile())
    };
    let initial: Vec<SessionSpec> = (0..n).map(spec).collect();
    // Rolling churn on top: every 40 ms one tenant leaves and a fresh one
    // joins, so membership keeps turning over while the count stays ~n.
    let mut events = Vec::new();
    for k in 0..(n / 4) {
        let t = 100.0 + 40.0 * k as f64;
        events.push(ChurnEvent::leave(t, k));
        events.push(ChurnEvent::join(t + 1.0, spec(n + k)));
    }
    let mut config = ChurnConfig::new(
        SystemConfig::default(),
        initial,
        ChurnTrace::script(events),
        horizon_ms,
        42,
    )
    .with_retire_window_ms(window_ms)
    // Stream the MTP timeline too: the WindowedStatsSink must keep the
    // churn stats series O(window) alongside the engine's task retirement.
    .with_stats_window_ms(window_ms);
    config.server_units = 8;
    config.link_streams = 8;
    let summary = ChurnFleet::run(config);
    assert_eq!(summary.len(), n + n / 4, "everyone joined");
    // Streaming replaced the retained series: no per-run sample vector,
    // and the sink's live footprint is a couple of windows of in-flight
    // frames — it scales with (sessions × window), never the horizon.
    assert!(
        summary.samples.is_empty(),
        "streaming keeps no sample series"
    );
    let total_frames: usize = summary.windows.iter().map(|(_, f, _)| *f).sum();
    assert!(total_frames > 0, "the streamed timeline saw every frame");
    let stats_cap = 4 * n * qvr::sim::checked::ceil_index(window_ms / 10.0);
    assert!(
        summary.peak_open_samples < stats_cap,
        "live stats memory must stay O(sessions x window): peak {} vs cap {} \
         ({} frames streamed over {horizon_ms} ms)",
        summary.peak_open_samples,
        stats_cap,
        total_frames
    );
    assert!(
        summary.retired_tasks > summary.total_tasks / 2,
        "most history must retire: {} of {} tasks",
        summary.retired_tasks,
        summary.total_tasks
    );
    // O(window) per resource: a display-paced session at ~90 Hz with a few
    // tasks per frame stays well under 8 tasks per simulated ms on any one
    // resource; the cap scales with the window, not the horizon.
    let cap = (8.0 * window_ms) as usize;
    assert!(
        summary.peak_live_per_resource < cap,
        "per-resource live state must stay O(window): peak {} vs cap {} \
         (window {window_ms} ms, {} total tasks)",
        summary.peak_live_per_resource,
        cap,
        summary.total_tasks
    );
}

#[test]
fn fleet_retirement_keeps_aggregates_bit_identical() {
    // Retirement drops history, never numbers: the same round-robin fleet
    // with and without a window must produce identical summaries, while
    // the windowed engine retains a fraction of the tasks.
    let mut plain = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        4,
        50,
        42,
    );
    let mut windowed = plain.clone();
    windowed.retire_window_ms = Some(300.0);
    plain.retire_window_ms = None;
    let keep = Fleet::new(plain);
    let drop = Fleet::new(windowed);
    let keep_engine = keep.shared_engine();
    let drop_engine = drop.shared_engine();
    let a = keep.finish();
    let mut b = drop.finish();
    // The schedule-state gauge is diagnostics about the engine's retained
    // footprint, not measured output — it is the one field retirement is
    // *supposed* to change, and it must change downward.
    assert!(
        b.peak_live_tasks < a.peak_live_tasks,
        "windowed retirement must lower the peak live-task footprint \
         ({} vs {})",
        b.peak_live_tasks,
        a.peak_live_tasks
    );
    b.peak_live_tasks = a.peak_live_tasks;
    assert_eq!(a, b, "retirement must not change a single bit of output");
    assert_eq!(keep_engine.retired_tasks(), 0);
    assert!(
        drop_engine.retired_tasks() > 0,
        "history must actually retire"
    );
    assert!(drop_engine.live_tasks() < keep_engine.live_tasks());
}

/// FNV-1a over raw `u64` words — the churn goldens' fingerprint, so a
/// single drifted bit anywhere in a run changes the pinned value.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Fingerprint of a churn run's outputs: every tenant's per-frame MTP and
/// bytes, the occupancy timeline, the fleet energy, and the streamed
/// windows.
fn churn_fingerprint(s: &ChurnSummary) -> u64 {
    let mut h = Fnv::new();
    for t in &s.tenants {
        h.u64(t.ordinal as u64);
        h.f64(t.joined_ms);
        h.f64(t.left_ms);
        for f in &t.summary.frames {
            h.f64(f.mtp_ms);
            h.f64(f.tx_bytes);
        }
    }
    for (at, n) in &s.occupancy {
        h.f64(*at);
        h.u64(*n as u64);
    }
    let e = s.energy;
    for v in [
        e.server_render_mj,
        e.server_encode_mj,
        e.server_idle_mj,
        e.ap_radio_mj,
        e.client_mj,
    ] {
        h.f64(v);
    }
    for (start, n, p95) in &s.windows {
        h.f64(*start);
        h.u64(*n as u64);
        h.f64(*p95);
    }
    h.0
}

/// A scripted open roster with no admission gate: mixed schemes, two
/// joins, two leaves.
fn scripted_churn() -> ChurnConfig {
    let spec = |i: usize| {
        let schemes = [
            SchemeKind::Qvr,
            SchemeKind::Ffr,
            SchemeKind::RemoteOnly,
            SchemeKind::LocalOnly,
        ];
        let apps = [Benchmark::Hl2H, Benchmark::Doom3L, Benchmark::Wolf];
        SessionSpec::new(schemes[i % 4], apps[i % 3].profile())
    };
    let trace = ChurnTrace::script(vec![
        ChurnEvent::join(120.0, spec(2)),
        ChurnEvent::leave(260.0, 0),
        ChurnEvent::join(300.0, spec(3)),
        ChurnEvent::leave(450.0, 2),
    ]);
    ChurnConfig::new(
        SystemConfig::default(),
        vec![spec(0), spec(1)],
        trace,
        600.0,
        29,
    )
}

/// A `churn_cells`-shaped cell: Poisson arrivals over six schemes, the
/// default admission gate, weighted fairness, rate control on, 300 ms
/// retirement, and deferred 200 ms windowed statistics.
fn gated_churn() -> ChurnConfig {
    let schemes = [
        SchemeKind::Qvr,
        SchemeKind::Ffr,
        SchemeKind::QvrSw,
        SchemeKind::RemoteOnly,
        SchemeKind::StaticCollab,
        SchemeKind::LocalOnly,
    ];
    let apps = Benchmark::all();
    let spec = |k: usize| SessionSpec::new(schemes[k % 6], apps[k % apps.len()].profile());
    let initial: Vec<SessionSpec> = (0..2).map(spec).collect();
    let trace = ChurnTrace::poisson(41, 5.0, 450.0, 1_300.0, 2, |k| spec(k + 2));
    let mut config = ChurnConfig::new(SystemConfig::default(), initial, trace, 1_300.0, 41)
        .with_admission(AdmissionPolicy::default())
        .with_fairness(FairnessPolicy::Weighted)
        .with_rate_control(RateControlConfig::on())
        .with_retire_window_ms(300.0);
    config.telemetry = config
        .telemetry
        .with_window_ms(200.0)
        .with_deferred_windows();
    config
}

/// Pins one churn config's run and cell bundle to captured values:
/// `(fingerprint, [rejected, degraded, upgrades, total_tasks,
/// retired_tasks, peak_live_per_resource], [cell frames, makespan bits,
/// server-busy bits])`.
fn assert_churn_golden(config: &ChurnConfig, golden: (u64, [usize; 6], [u64; 3])) {
    let s = ChurnFleet::run(config.clone());
    let mut fleet = ChurnFleet::new(config.clone());
    fleet.enable_cell_sinks();
    let cell = fleet.finish_cell(0);
    let got = (
        churn_fingerprint(&s),
        [
            s.rejected,
            s.degraded,
            s.upgrades,
            s.total_tasks,
            s.retired_tasks,
            s.peak_live_per_resource,
        ],
        [
            cell.frames as u64,
            cell.makespan_ms.to_bits(),
            cell.server_busy_ms.to_bits(),
        ],
    );
    assert_eq!(got, golden, "churn bits drifted from the captured golden");
}

#[test]
fn churn_golden_scripted_roster() {
    assert_churn_golden(
        &scripted_churn(),
        (
            7_596_858_970_003_406_663,
            [0, 0, 0, 2712, 0, 309],
            [118, 4_648_948_158_609_113_977, 4_637_006_829_595_931_186],
        ),
    );
}

#[test]
fn churn_golden_gated_cell() {
    let config = gated_churn();
    assert!(config.admission.is_some() && config.retire_window_ms.is_some());
    assert_churn_golden(
        &config,
        (
            16_342_085_255_218_220_149,
            [6, 2, 0, 5045, 3363, 109],
            [209, 4_653_489_172_910_133_709, 4_637_553_367_085_880_114],
        ),
    );
}
