//! Per-layer metrics of the traced run, and the simulated-time model
//! statistics every run prints.
//!
//! Three sources, all outside the simulator:
//!
//! * **Spans** around the public calls the benchmark makes (`Fleet::new`,
//!   `step_next`/`step_round`, `finish`, `ChurnFleet::tick`,
//!   `finish_cell`, `ShardSummary::merge`).
//! * **Counts** read through public accessors (engine task and retirement
//!   counts, frame events seen by the benchmark's own telemetry sink).
//! * **Replays**: each layer's public function timed on the workload's
//!   recorded inputs — the gazes and motion that `AppSession::advance`
//!   regenerates from each session's seed, and the per-frame `e1`, bytes,
//!   and latencies of its `FrameRecord`s — in the order and number the
//!   scheme's stepper calls them. A layer's `step_share` is its replayed
//!   per-frame cost times the frames stepped, over the measured stepping
//!   time. Shares are inclusive: `scene`'s triangle-fraction integrals call
//!   `hvs` internally and count as `scene`; `hvs.step_share` counts only
//!   the direct fovea-area call a frame makes.

use crate::host::{mean, median, percentile};
use crate::inputs::{self, session_seed};
use crate::run::{Batch, Inputs};
use qvr::core::liwc::LatencyPredictor;
use qvr::prelude::*;
use qvr::scene::TriangleFractionCache;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Simulated-time statistics of one batch. A change that only speeds the
/// simulator up must leave every one of these (and `model.digest`)
/// identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct Model {
    /// Median motion-to-photon latency over every completed frame, ms.
    pub mtp_p50_ms: f64,
    /// 95th-percentile motion-to-photon latency, ms.
    pub mtp_p95_ms: f64,
    /// Slowest session frame rate of any completed group, frames/s.
    pub fps_floor: f64,
    /// Mean fovea eccentricity over foveated frames with recorded `e1`
    /// (0 where no per-frame record crosses the cell seam), degrees.
    pub e1_mean_deg: f64,
    /// Mean downlink KB per frame.
    pub tx_kb_per_frame: f64,
    /// Mean server-pool utilization of the completed groups.
    pub server_utilization: f64,
    /// Mean network-stage span per frame, ms.
    pub stage_network_ms_mean: f64,
    /// Mean server-render-stage span per frame, ms.
    pub stage_render_ms_mean: f64,
}

impl Model {
    /// `name=value` pairs with every digit, for diffing two commits.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v, _) in self.metrics() {
            let _ = write!(out, "{name}={v} ");
        }
        out.trim_end().to_string()
    }

    /// The model statistics as per-layer metrics.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("model.mtp_p50_ms", self.mtp_p50_ms, "ms"),
            ("model.mtp_p95_ms", self.mtp_p95_ms, "ms"),
            ("model.fps_floor", self.fps_floor, "1/s"),
            ("model.e1_mean_deg", self.e1_mean_deg, "deg"),
            ("model.tx_kb_per_frame", self.tx_kb_per_frame, "KB"),
            ("model.server_utilization", self.server_utilization, "ratio"),
            (
                "model.stage_network_ms_mean",
                self.stage_network_ms_mean,
                "ms",
            ),
            (
                "model.stage_render_ms_mean",
                self.stage_render_ms_mean,
                "ms",
            ),
        ]
    }
}

/// The model statistics of one batch's completed groups.
#[must_use]
pub fn model(batch: &Batch) -> Model {
    let done: Vec<_> = batch
        .ops
        .iter()
        .filter(|o| o.ok())
        .filter_map(|o| o.outcome.as_ref().ok())
        .collect();
    let mtp: Vec<f64> = done
        .iter()
        .flat_map(|c| c.log.mtp_ms.iter().copied())
        .collect();
    let events: u64 = done.iter().map(|c| c.log.events).sum();
    let per_frame = |f: &dyn Fn(&crate::run::Completed) -> f64| {
        done.iter().map(|c| f(c)).sum::<f64>() / (events.max(1) as f64)
    };
    let (e1_sum, e1_n) = done
        .iter()
        .fold((0.0, 0), |(s, n), c| (s + c.e1.0, n + c.e1.1));
    let (fps_floor, server_utilization) = match &batch.merged {
        Some(m) => (m.fps_floor, m.server_utilization),
        None => (
            done.iter()
                .map(|c| c.aggregates[3])
                .fold(f64::INFINITY, f64::min),
            mean(&done.iter().map(|c| c.aggregates[5]).collect::<Vec<_>>()),
        ),
    };
    Model {
        mtp_p50_ms: percentile(&mtp, 0.5),
        mtp_p95_ms: percentile(&mtp, 0.95),
        fps_floor: if fps_floor.is_finite() {
            fps_floor
        } else {
            0.0
        },
        e1_mean_deg: e1_sum / e1_n.max(1) as f64,
        tx_kb_per_frame: per_frame(&|c| c.log.tx_bytes) / 1e3,
        server_utilization,
        stage_network_ms_mean: per_frame(&|c| c.log.network_ms),
        stage_render_ms_mean: per_frame(&|c| c.log.render_ms),
    }
}

/// Frames replayed per session at most (costs are per frame, so a prefix
/// of each session's frames is a sample of its per-frame cost).
pub const REPLAY_FRAMES: usize = 120;

/// Host cost of one `Instant::now()` pair, µs, subtracted from each timed
/// replay call.
fn timer_overhead_us() -> f64 {
    let samples: Vec<f64> = (0..1_000)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Times one call, µs (timer overhead removed).
fn timed<R>(overhead_us: f64, f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    let us = (t.elapsed().as_secs_f64() * 1e6 - overhead_us).max(0.0);
    (r, us)
}

/// Per-call samples and per-layer totals of one replay.
#[derive(Debug, Default)]
struct Replay {
    overhead_us: f64,
    /// Per-layer replayed µs, indexed by `SCENE` … `CODEC`.
    layer_us: [f64; 7],
    tf_new_us: Vec<f64>,
    tf_cached_us: Vec<f64>,
    area_us: Vec<f64>,
    resolve_us: Vec<f64>,
    periphery_bytes_us: Vec<f64>,
    liwc_us: Vec<f64>,
    gpu_us: Vec<f64>,
    download_us: Vec<f64>,
    entropy_us: Vec<f64>,
    rc_ns: Vec<f64>,
}

/// Indices of the stepping layers whose share a replay estimates.
const SCENE: usize = 0;
const HVS: usize = 1;
const FOVEATION: usize = 2;
const LIWC: usize = 3;
const GPU: usize = 4;
const NET: usize = 5;
const CODEC: usize = 6;

/// One completed session's replay input.
struct ReplaySession<'a> {
    scheme: SchemeKind,
    profile: &'a AppProfile,
    system: &'a SystemConfig,
    seed: u64,
    records: &'a [FrameRecord],
}

/// The motion index the steppers feed the entropy model.
fn motion_index(delta: &qvr::scene::MotionDelta) -> f64 {
    (delta.rotation_magnitude() / 1.5).clamp(0.0, 1.0)
}

impl Replay {
    fn new() -> Self {
        Replay {
            overhead_us: timer_overhead_us(),
            ..Replay::default()
        }
    }

    fn add(&mut self, layer: usize, us: f64) {
        self.layer_us[layer] += us;
    }

    /// Replays one session's frames through each layer's public functions
    /// in the order and number its scheme's stepper calls them.
    #[allow(clippy::too_many_lines)]
    fn session(&mut self, s: &ReplaySession<'_>) -> [f64; 7] {
        let before = self.layer_us;
        let ov = self.overhead_us;
        let sys = s.system;
        let profile = s.profile;
        let display = profile.display;
        let native_px = f64::from(display.width_px()) * f64::from(display.height_px());
        let mut app = AppSession::start(profile.clone(), s.seed);
        let mut cache = TriangleFractionCache::new();
        let gpu = GpuTimingModel::new(sys.gpu);
        let link = SharedChannel::new(NetworkChannel::new(sys.network, s.seed));
        let chunks = sys.tx_chunks.max(1);
        let observed = sys.network.download_mbps();
        let base = sys.network.base_latency_ms();
        let mut rc = RateController::new(sys.rate_control);
        let rc_on = sys.rate_control.enabled;
        let liwc_scheme = matches!(s.scheme, SchemeKind::Qvr | SchemeKind::Dfr);
        let foveated = liwc_scheme || matches!(s.scheme, SchemeKind::Ffr | SchemeKind::QvrSw);
        let mut liwc = {
            let prior = AppSession::start(profile.clone(), s.seed).advance();
            let full_ms = gpu
                .stereo_frame_time(&profile.full_workload(&prior))
                .total_ms();
            Liwc::new(
                sys.initial_e1_deg,
                sys.liwc_initial_gradient,
                sys.liwc_reward_alpha,
                LatencyPredictor::new(
                    prior.triangles as f64 / full_ms.max(0.1),
                    sys.liwc_predictor_alpha,
                    sys.cl_ms + sys.ls_ms,
                ),
            )
        };
        let mut e_prev = sys.initial_e1_deg;
        for rec in s.records.iter().take(REPLAY_FRAMES) {
            let frame = app.advance();
            let gaze = frame.sample.gaze;
            let detail = frame.content_detail;
            let motion = motion_index(&frame.delta);
            let quality = rec.quality.unwrap_or(1.0);
            if foveated {
                let e = rec.e1_deg.unwrap_or(sys.initial_e1_deg);
                // scene: LIWC evaluates %fovea at its current e1 (new gaze:
                // denominator + numerator), the fovea workload at the chosen
                // e1, and the feedback at the same e1 (a cache hit). Fixed
                // and software controllers only build the fovea workload.
                let frac = if liwc_scheme {
                    let (_, a) = timed(ov, || {
                        profile.fovea_triangle_fraction_cached(&frame, e_prev, &mut cache)
                    });
                    let (frac, b) = timed(ov, || {
                        profile.fovea_triangle_fraction_cached(&frame, e, &mut cache)
                    });
                    let (_, c) = timed(ov, || {
                        profile.fovea_triangle_fraction_cached(&frame, e, &mut cache)
                    });
                    self.tf_new_us.push(a);
                    self.tf_cached_us.push(c);
                    self.add(SCENE, a + b + c);
                    frac
                } else {
                    let (frac, a) = timed(ov, || {
                        profile.fovea_triangle_fraction_cached(&frame, e, &mut cache)
                    });
                    self.tf_new_us.push(a);
                    self.add(SCENE, a);
                    frac
                };
                let (area, t) = timed(ov, || display.fovea_area_fraction(e, gaze));
                self.area_us.push(t);
                self.add(HVS, t);
                // foveation: LIWC's byte predictor resolves a plan at its
                // current e1, then the frame resolves its own.
                let resolves: &[f64] = if liwc_scheme { &[e_prev, e] } else { &[e] };
                let mut plan = None;
                for &ecc in resolves {
                    let (p, t) =
                        timed(ov, || FoveationPlan::resolve(ecc, &display, &sys.mar, gaze));
                    self.resolve_us.push(t);
                    self.add(FOVEATION, t);
                    let (_, t) = if rc_on {
                        timed(ov, || p.periphery_entropy_bytes(detail, motion, quality))
                    } else {
                        timed(ov, || {
                            p.periphery_bytes(&sys.size_model, detail, sys.periphery_quality)
                        })
                    };
                    if rc_on {
                        self.entropy_us.push(t);
                        self.add(CODEC, t);
                    } else {
                        self.periphery_bytes_us.push(t);
                        self.add(FOVEATION, t);
                    }
                    plan = Some(p);
                }
                let plan = plan.expect("at least one resolve");
                if liwc_scheme {
                    let bytes = rec.tx_bytes;
                    let (_, t) = timed(ov, || {
                        let d = liwc.select(
                            &frame.delta,
                            frame.triangles,
                            |_| frac,
                            |_| bytes,
                            observed,
                            base,
                        );
                        liwc.observe(
                            frame.triangles,
                            frac,
                            rec.t_local_ms,
                            rec.t_remote_ms,
                            bytes,
                            observed,
                            base,
                        );
                        d
                    });
                    self.liwc_us.push(t);
                    self.add(LIWC, t);
                }
                let fovea_wl = profile.full_workload(&frame).scaled_region(area, frac);
                let (_, t) = timed(ov, || gpu.stereo_frame_time(&fovea_wl));
                self.gpu_us.push(t);
                self.add(GPU, t);
                let periph_px = plan.middle_region_px * plan.middle_rate.linear_scale().powi(2)
                    + plan.outer_region_px * plan.outer_rate.linear_scale().powi(2);
                let periph_wl = profile
                    .full_workload(&frame)
                    .scaled_region(periph_px / native_px, 1.0);
                let (_, t) = timed(ov, || sys.remote.per_gpu_stereo_render_ms(&periph_wl));
                self.add(GPU, t);
                e_prev = e;
            } else {
                match s.scheme {
                    SchemeKind::LocalOnly => {
                        let wl = profile.full_workload(&frame);
                        let (_, t) = timed(ov, || gpu.stereo_frame_time(&wl));
                        self.gpu_us.push(t);
                        self.add(GPU, t);
                    }
                    SchemeKind::StaticCollab => {
                        let local = profile.interactive_workload(&frame);
                        let (_, t) = timed(ov, || gpu.stereo_frame_time(&local));
                        self.gpu_us.push(t);
                        self.add(GPU, t);
                        let remote = profile.background_workload(&frame);
                        let (_, t) = timed(ov, || sys.remote.per_gpu_stereo_render_ms(&remote));
                        self.add(GPU, t);
                    }
                    _ => {
                        let wl = profile.full_workload(&frame);
                        let (_, t) = timed(ov, || sys.remote.per_gpu_stereo_render_ms(&wl));
                        self.add(GPU, t);
                        if rc_on {
                            let (_, t) = timed(ov, || {
                                EntropyModel::layer(native_px, detail, motion, 1.0, 0.0)
                                    .frame_bytes(quality)
                            });
                            self.entropy_us.push(t);
                            self.add(CODEC, t);
                        }
                    }
                }
            }
            // net: every streaming frame uploads its pose and streams its
            // downlink in `tx_chunks` chunks (the first pays base latency).
            if s.scheme != SchemeKind::LocalOnly {
                let (_, t) = timed(ov, || link.upload_ms(1_536.0));
                self.add(NET, t);
                let chunk = rec.tx_bytes / f64::from(chunks);
                if chunk > 0.0 {
                    let (_, t) = timed(ov, || link.download_ms(chunk));
                    self.download_us.push(t);
                    self.add(NET, t);
                    for _ in 1..chunks {
                        let (_, t) = timed(ov, || link.transfer_only_ms(chunk));
                        self.add(NET, t);
                    }
                }
            }
            // codec: the closed rate loop (rate-controlled streaming only).
            if rc_on && s.scheme.uses_network() {
                let bytes = rec.tx_bytes;
                let (_, t) = timed(ov, || {
                    let target = RateController::target_bytes(
                        link.allocated_download_mbps(),
                        sys.target_fps,
                    );
                    rc.observe(bytes, target);
                });
                self.rc_ns.push(t * 1e3);
                self.add(CODEC, t);
            }
        }
        let mut delta = [0.0; 7];
        for (i, d) in delta.iter_mut().enumerate() {
            *d = self.layer_us[i] - before[i];
        }
        delta
    }
}

/// Engine micro-replay: `submit` cost per task and `retire_before` cost
/// per call on a chain shaped like the workload's frames.
fn replay_sim(tasks_per_frame: f64, frames: usize) -> (f64, f64) {
    let engine = qvr::sim::SharedEngine::new();
    let resources: Vec<_> = ["cpu", "gpu", "net_down", "vdec", "net_up"]
        .iter()
        .map(|name| engine.resource(name))
        .collect();
    let per_frame = tasks_per_frame.round().max(1.0) as usize;
    let mut submit_ns = Vec::with_capacity(frames);
    let mut retire_us = Vec::with_capacity(frames);
    let mut prev: Option<qvr::sim::TaskId> = None;
    for _ in 0..frames {
        let t = Instant::now();
        for k in 0..per_frame {
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(engine.submit("task", Some(resources[k % resources.len()]), 0.4, &deps));
        }
        submit_ns.push(t.elapsed().as_secs_f64() * 1e9 / per_frame as f64);
        let frontier = engine.end_of(prev.expect("submitted"));
        let t = Instant::now();
        black_box(engine.retire_before(frontier - inputs::RETIRE_WINDOW_MS));
        retire_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&submit_ns), median(&retire_us))
}

/// Telemetry fan-out replay: ns per event through a fresh sink set built
/// from the fleet's own telemetry configuration (aggregate stream on, as
/// in multi-tenant fleets and shard cells).
fn replay_telemetry(
    events: &[FrameEvent],
    telemetry: &TelemetryConfig,
    system: &SystemConfig,
    units: usize,
) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let mut sinks = SinkSet::from_config(telemetry, system, units, true);
    let t = Instant::now();
    for e in events {
        sinks.emit(black_box(e));
    }
    t.elapsed().as_secs_f64() * 1e9 / events.len() as f64
}

/// Admission replay: a controller configured like the cell's, offered the
/// cell's joins and told of its leaves in the order the cell applies them.
/// Returns `(offer ms samples, probes run, offers, admitted)`.
fn replay_admission(input: &inputs::CellInput) -> (Vec<f64>, usize, usize, usize) {
    let c = &input.config;
    let policy = c.admission.clone().expect("churn cells gate admission");
    let mut ctl = AdmissionController::with_capacity(
        c.system,
        c.fairness,
        policy,
        c.seed,
        c.server_units,
        c.link_streams,
    )
    .with_server_policy(c.server_policy);
    let mut roster: Vec<usize> = Vec::new();
    let mut offer_ms = Vec::new();
    let mut ordinal = 0;
    let mut admitted = 0;
    let initial = input.offers[..inputs::CELL_INITIAL]
        .iter()
        .map(|s| ChurnEventKind::Join(Box::new(s.clone())));
    let trace = c.trace.events().iter().map(|e| e.kind.clone());
    for kind in initial.chain(trace) {
        match kind {
            ChurnEventKind::Join(spec) => {
                let t = Instant::now();
                let d = ctl.offer(*spec);
                offer_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if d != AdmissionDecision::Rejected {
                    roster.push(ordinal);
                    admitted += 1;
                }
                ordinal += 1;
            }
            ChurnEventKind::Leave(o) => {
                if let Some(pos) = roster.iter().position(|r| *r == o) {
                    roster.remove(pos);
                    black_box(ctl.release(pos));
                }
            }
        }
    }
    (offer_ms, ctl.probes_run(), ordinal, admitted)
}

/// What the spans and replays of one traced run measured, before it is
/// laid out as metrics. Zero where the workload never exercises a layer.
#[derive(Debug, Default)]
struct Measured {
    /// Replayed per-frame cost × frames stepped, µs, per stepping layer.
    layer_us: [f64; 7],
    /// Host time of the stepping calls (step calls or churn ticks), µs per
    /// batch.
    steps_us: f64,
    /// `retire_before` calls the stepping made per batch.
    retire_calls: f64,
    /// `(new µs/session, step µs p50, step µs p99, finish ms)`.
    fleet: (f64, f64, f64, f64),
    /// `(tick µs p50, tick µs p99, finish_cell ms)`.
    churn: (f64, f64, f64),
    /// `(offer ms p50, probes/offer, accept ratio, share of tick time)`.
    admission: (f64, f64, f64, f64),
    /// `(merge ms, worker busy ratio)`.
    shard: (f64, f64),
    /// Telemetry fan-out replay, ns per event.
    telemetry_ns: f64,
}

/// Per-layer costs of one replayed session, scaled from its replayed
/// prefix to the `frames` it stepped, added into `layer_us`.
fn add_scaled(layer_us: &mut [f64; 7], per: [f64; 7], replayed: usize, frames: usize) {
    for (acc, v) in layer_us.iter_mut().zip(per) {
        *acc += v / replayed.max(1) as f64 * frames as f64;
    }
}

/// Spans named `name` over every traced batch, restricted to the groups
/// that completed in the first one: `(op, µs)`.
fn spans_of(runs: &[&Batch], ok_ops: &[u32], name: &str) -> Vec<(u32, f64)> {
    runs.iter()
        .flat_map(|b| b.tracer.spans().iter())
        .filter(|s| s.name == name && ok_ops.contains(&s.op))
        .map(|s| (s.op, s.us()))
        .collect()
}

fn us_of(runs: &[&Batch], ok_ops: &[u32], name: &str) -> Vec<f64> {
    spans_of(runs, ok_ops, name)
        .into_iter()
        .map(|(_, u)| u)
        .collect()
}

/// `qvr_party` and `stream_rooms`: fleet step calls, per-session replays
/// of every completed fleet, and a telemetry replay of one fleet's events.
fn measure_fleets(
    runs: &[&Batch],
    ok_ops: &[u32],
    configs: &[FleetConfig],
    replay: &mut Replay,
) -> Measured {
    let first = runs[0];
    let mut m = Measured::default();
    for (i, op) in first.ops.iter().enumerate() {
        let (Ok(c), true) = (&op.outcome, op.ok()) else {
            continue;
        };
        let cfg = &configs[i];
        for (j, summary) in c.sessions.iter().enumerate() {
            let spec = &cfg.sessions[j];
            let per = replay.session(&ReplaySession {
                scheme: spec.scheme,
                profile: &spec.profile,
                system: &cfg.system,
                seed: session_seed(cfg.seed, j),
                records: &summary.frames,
            });
            add_scaled(&mut m.layer_us, per, summary.frames.len(), cfg.frames);
        }
        if cfg.retire_window_ms.is_some() {
            // Fleets retire on every step call.
            m.retire_calls += match cfg.stepping {
                SteppingPolicy::VirtualTime => c.log.events as f64,
                SteppingPolicy::RoundRobin => cfg.frames as f64,
            };
        }
        if m.telemetry_ns == 0.0 {
            if let Some(events) = &c.log.kept {
                m.telemetry_ns =
                    replay_telemetry(events, &cfg.telemetry, &cfg.system, cfg.server_units);
            }
        }
    }
    let step_next = spans_of(runs, ok_ops, "core.fleet/step_next");
    let step_round = spans_of(runs, ok_ops, "core.fleet/step_round");
    m.steps_us = step_next
        .iter()
        .chain(&step_round)
        .map(|(_, u)| u)
        .sum::<f64>()
        / runs.len() as f64;
    // A round steps every session once: per-frame cost is its share.
    let per_frame: Vec<f64> = step_next
        .iter()
        .map(|(_, u)| *u)
        .chain(
            step_round
                .iter()
                .map(|(op, u)| u / configs[*op as usize].sessions.len() as f64),
        )
        .collect();
    let sessions: usize = ok_ops
        .iter()
        .map(|&op| configs[op as usize].sessions.len())
        .sum();
    let new_us = us_of(runs, ok_ops, "core.fleet/new").iter().sum::<f64>() / runs.len() as f64;
    m.fleet = (
        new_us / sessions.max(1) as f64,
        percentile(&per_frame, 0.5),
        percentile(&per_frame, 0.99),
        median(&us_of(runs, ok_ops, "core.fleet/finish")) / 1e3,
    );
    m
}

/// `churn_cells`: tick spans, a replay of cell 0's tenants, an admission
/// controller replay of every cell, and the shard merge.
fn measure_cells(
    runs: &[&Batch],
    ok_ops: &[u32],
    cells: &[inputs::CellInput],
    replay: &mut Replay,
) -> Measured {
    let first = runs[0];
    let mut m = Measured::default();
    let frame_ticks = us_of(runs, ok_ops, "core.churn/tick");
    let event_ticks = us_of(runs, ok_ops, "core.churn/event_tick");
    let tick_total: f64 = frame_ticks.iter().chain(&event_ticks).sum();
    m.steps_us = tick_total / runs.len() as f64;
    m.churn = (
        percentile(&frame_ticks, 0.5),
        percentile(&frame_ticks, 0.99),
        median(&us_of(runs, ok_ops, "core.churn/finish_cell")) / 1e3,
    );
    let offered: usize = cells.iter().map(|c| c.offers.len()).sum();
    let new_us = us_of(runs, ok_ops, "core.churn/new").iter().sum::<f64>() / runs.len() as f64;
    m.fleet = (
        new_us / offered.max(1) as f64,
        percentile(&frame_ticks, 0.5),
        percentile(&frame_ticks, 0.99),
        0.0,
    );

    // The cell seam drops per-frame records, so cell 0 is re-run through
    // `ChurnFleet::run` (same config, same seed, same frames) for its
    // tenants' records; its per-frame costs scale to every cell's frames.
    let done: Vec<&crate::run::Completed> = first
        .ops
        .iter()
        .filter(|o| o.ok())
        .filter_map(|o| o.outcome.as_ref().ok())
        .collect();
    let frames: u64 = done.iter().map(|c| c.log.events).sum();
    let shadow = ChurnFleet::run(cells[0].config.clone());
    let mut shadow_us = [0.0f64; 7];
    let mut shadow_frames = 0;
    for t in &shadow.tenants {
        let spec = &cells[0].offers[t.ordinal];
        let per = replay.session(&ReplaySession {
            scheme: spec.scheme,
            profile: &spec.profile,
            system: &cells[0].config.system,
            seed: session_seed(cells[0].config.seed, t.ordinal),
            records: &t.summary.frames,
        });
        let n = t.summary.frames.len();
        add_scaled(&mut shadow_us, per, n.min(REPLAY_FRAMES), n);
        shadow_frames += n;
    }
    let scale = frames as f64 / shadow_frames.max(1) as f64;
    for (acc, v) in m.layer_us.iter_mut().zip(shadow_us) {
        *acc = v * scale;
    }
    // Churn cells retire in quarter-window batches.
    m.retire_calls =
        inputs::CELL_HORIZON_MS / (0.25 * inputs::RETIRE_WINDOW_MS) * ok_ops.len() as f64;

    let replays = qvr::sim::parallel_map_with(inputs::CELL_WORKERS, cells, replay_admission);
    let offer_ms: Vec<f64> = replays.iter().flat_map(|r| r.0.iter().copied()).collect();
    let probes: usize = replays.iter().map(|r| r.1).sum();
    let offers: usize = replays.iter().map(|r| r.2).sum();
    let admitted_replay: usize = replays.iter().map(|r| r.3).sum();
    let admitted: usize = done.iter().map(|c| c.admitted).sum();
    if admitted_replay != admitted {
        eprintln!("warning: the admission replay admitted {admitted_replay}, the cells {admitted}");
    }
    m.admission = (
        median(&offer_ms),
        probes as f64 / offers.max(1) as f64,
        admitted_replay as f64 / offers.max(1) as f64,
        event_ticks.iter().sum::<f64>() / tick_total.max(1e-9),
    );

    let total = |name: &str| -> f64 {
        runs.iter()
            .flat_map(|b| b.tracer.spans().iter())
            .filter(|s| s.name == name)
            .map(crate::trace::Span::us)
            .sum()
    };
    m.shard = (
        median(&us_of(runs, &[0], "core.shard/merge")) / 1e3,
        total("core.shard/cell")
            / (inputs::CELL_WORKERS as f64 * total("core.shard/parallel_cells")).max(1e-9),
    );
    if let Some(events) = done.first().and_then(|c| c.log.kept.as_ref()) {
        let cfg = &cells[0].config;
        m.telemetry_ns = replay_telemetry(events, &cfg.telemetry, &cfg.system, cfg.server_units);
    }
    m
}

/// Every per-layer metric of a traced run (`runs` are its traced batches;
/// the first is whole), in `BENCHMARK.json` order. `fps_untraced` and
/// `fps_traced` give the tracing overhead.
#[must_use]
pub fn per_layer(
    runs: &[&Batch],
    model: &Model,
    fps_untraced: f64,
    fps_traced: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let first = runs[0];
    let ok_ops: Vec<u32> = first
        .ops
        .iter()
        .enumerate()
        .filter(|(_, o)| o.ok())
        .map(|(i, _)| u32::try_from(i).expect("op id fits u32"))
        .collect();
    let done: Vec<&crate::run::Completed> = first
        .ops
        .iter()
        .filter(|o| o.ok())
        .filter_map(|o| o.outcome.as_ref().ok())
        .collect();
    let frames: u64 = done.iter().map(|c| c.log.events).sum();
    let tasks: usize = done.iter().map(|c| c.engine.tasks).sum();
    let retired: usize = done.iter().map(|c| c.engine.retired).sum();
    let peak_live = done.iter().map(|c| c.engine.peak_live).max().unwrap_or(0);
    let tasks_per_frame = tasks as f64 / frames.max(1) as f64;

    let mut replay = Replay::new();
    let m = match &first.inputs {
        Inputs::Fleets(configs) => measure_fleets(runs, &ok_ops, configs, &mut replay),
        Inputs::Cells(cells) => measure_cells(runs, &ok_ops, cells, &mut replay),
    };
    let (submit_ns, retire_us) = replay_sim(tasks_per_frame, 600);
    let share = |us: f64| us / m.steps_us.max(1e-9);
    let sim_us = tasks_per_frame * frames as f64 * submit_ns * 1e-3 + m.retire_calls * retire_us;
    let telemetry_us = frames as f64 * m.telemetry_ns * 1e-3;
    let layer_share = m.layer_us.map(share);
    let attributed =
        layer_share.iter().sum::<f64>() + share(sim_us) + share(telemetry_us) + m.admission.3;
    let r = &replay;
    vec![
        ("fleet.new_us_per_session", m.fleet.0, "us"),
        ("fleet.step_us_p50", m.fleet.1, "us"),
        ("fleet.step_us_p99", m.fleet.2, "us"),
        ("fleet.finish_ms", m.fleet.3, "ms"),
        (
            "fleet.step_unattributed_share",
            (1.0 - attributed).max(0.0),
            "ratio",
        ),
        (
            "scene.triangle_fraction.new_gaze_us",
            median(&r.tf_new_us),
            "us",
        ),
        (
            "scene.triangle_fraction.cached_us",
            median(&r.tf_cached_us),
            "us",
        ),
        ("scene.step_share", layer_share[SCENE], "ratio"),
        ("hvs.fovea_area_us", median(&r.area_us), "us"),
        ("hvs.step_share", layer_share[HVS], "ratio"),
        ("foveation.resolve_us", median(&r.resolve_us), "us"),
        (
            "foveation.periphery_bytes_us",
            median(&r.periphery_bytes_us),
            "us",
        ),
        ("foveation.step_share", layer_share[FOVEATION], "ratio"),
        ("liwc.select_observe_us", median(&r.liwc_us), "us"),
        ("liwc.step_share", layer_share[LIWC], "ratio"),
        ("gpu.stereo_frame_time_us", median(&r.gpu_us), "us"),
        ("gpu.step_share", layer_share[GPU], "ratio"),
        ("net.download_us", median(&r.download_us), "us"),
        ("net.step_share", layer_share[NET], "ratio"),
        ("codec.entropy_bytes_us", median(&r.entropy_us), "us"),
        ("codec.rc_observe_ns", median(&r.rc_ns), "ns"),
        ("codec.step_share", layer_share[CODEC], "ratio"),
        ("sim.submit_ns", submit_ns, "ns"),
        ("sim.tasks_per_frame", tasks_per_frame, "count"),
        ("sim.retire_before_us", retire_us, "us"),
        (
            "sim.retired_ratio",
            retired as f64 / tasks.max(1) as f64,
            "ratio",
        ),
        ("sim.peak_live_intervals", peak_live as f64, "count"),
        ("sim.step_share", share(sim_us), "ratio"),
        ("telemetry.emit_ns_per_event", m.telemetry_ns, "ns"),
        ("telemetry.events", frames as f64, "count"),
        ("telemetry.step_share", share(telemetry_us), "ratio"),
        ("churn.tick_us_p50", m.churn.0, "us"),
        ("churn.tick_us_p99", m.churn.1, "us"),
        ("churn.finish_cell_ms", m.churn.2, "ms"),
        ("admission.offer_ms_p50", m.admission.0, "ms"),
        ("admission.probes_per_offer", m.admission.1, "count"),
        ("admission.accept_ratio", m.admission.2, "ratio"),
        ("admission.step_share", m.admission.3, "ratio"),
        ("shard.merge_ms", m.shard.0, "ms"),
        ("shard.worker_busy_ratio", m.shard.1, "ratio"),
    ]
    .into_iter()
    .chain(model.metrics())
    .chain([
        (
            "trace.overhead_ratio",
            fps_untraced / fps_traced.max(1e-9),
            "ratio",
        ),
        (
            "trace.spans",
            runs.iter().map(|b| b.tracer.spans().len()).sum::<usize>() as f64 / runs.len() as f64,
            "count",
        ),
    ])
    .collect()
}
