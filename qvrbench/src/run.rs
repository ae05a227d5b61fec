//! Runs one batch of a workload — a fixed amount of simulated work, to
//! completion — through the simulator's public entry points, timing each
//! operation from outside and checking its outputs.
//!
//! An *operation* is one offered tenant session. A room or cell that
//! panics, or fails a check, fails every session it was offered; the batch
//! carries on.

use crate::host::{catch, Digest, Stopwatch};
use crate::inputs::{self, CellInput, CELL_WORKERS};
use crate::layers::REPLAY_FRAMES;
use crate::trace::{SpanId, Tracer};
use qvr::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 16-tenant Q-VR party fleet: the geometry-bound headline shape.
    QvrParty,
    /// 48 non-foveated rooms in sequence: engine, link, GPU timing, and
    /// telemetry, with the geometry layer bypassed.
    StreamRooms,
    /// 32 admission-gated churn cells on 2 workers, merged as a shard.
    ChurnCells,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::QvrParty,
        Workload::StreamRooms,
        Workload::ChurnCells,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::QvrParty => "qvr_party",
            Workload::StreamRooms => "stream_rooms",
            Workload::ChurnCells => "churn_cells",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one fleet's or cell's frame-event stream showed, recorded by a
/// telemetry sink attached through the public sink seam.
#[derive(Debug, Default)]
pub struct StreamLog {
    /// Frame events seen.
    pub events: u64,
    /// Order-dependent hash of every event's simulated fields.
    pub digest: Digest,
    /// Per slot: the frame index the current occupant should emit next.
    next: Vec<Option<u64>>,
    /// Frames per slot occupancy (a slot's frame index restarts at 0 when a
    /// new tenant takes it), closed by [`StreamLog::close`].
    pub runs: Vec<u64>,
    /// Events whose frame index broke their slot's sequence.
    pub bad_order: u64,
    /// Events with a non-finite or non-positive latency, or non-finite
    /// bytes or times.
    pub nonfinite: u64,
    /// Latest span start seen, ms of virtual time.
    pub max_span_start_ms: f64,
    /// Every frame's motion-to-photon latency, ms.
    pub mtp_ms: Vec<f64>,
    /// Σ downlink bytes.
    pub tx_bytes: f64,
    /// Σ network-stage span, ms.
    pub network_ms: f64,
    /// Σ server-render-stage span, ms.
    pub render_ms: f64,
    /// The events themselves (traced runs only: telemetry replay input).
    pub kept: Option<Vec<FrameEvent>>,
}

impl StreamLog {
    fn new(keep: bool) -> Self {
        StreamLog {
            kept: keep.then(Vec::new),
            ..StreamLog::default()
        }
    }

    fn record(&mut self, e: &FrameEvent) {
        self.events += 1;
        for w in [e.session as u64, e.frame] {
            self.digest.word(w);
        }
        for x in [e.end_ms, e.mtp_ms, e.tx_bytes, e.quality.unwrap_or(-1.0)] {
            self.digest.f64(x);
        }
        if self.next.len() <= e.session {
            self.next.resize(e.session + 1, None);
        }
        let slot = &mut self.next[e.session];
        if e.frame == 0 {
            if let Some(n) = slot.replace(1) {
                self.runs.push(n);
            }
        } else if *slot == Some(e.frame) {
            *slot = Some(e.frame + 1);
        } else {
            self.bad_order += 1;
        }
        let finite = e.mtp_ms.is_finite()
            && e.mtp_ms > 0.0
            && e.tx_bytes.is_finite()
            && e.end_ms.is_finite()
            && e.span_start_ms.is_finite();
        if !finite {
            self.nonfinite += 1;
        }
        self.max_span_start_ms = self.max_span_start_ms.max(e.span_start_ms);
        self.mtp_ms.push(e.mtp_ms);
        self.tx_bytes += e.tx_bytes;
        let span = |s: &StageSpan| {
            if s.is_empty() {
                0.0
            } else {
                s.end_ms - s.start_ms
            }
        };
        self.network_ms += span(&e.spans.network);
        self.render_ms += span(&e.spans.render);
        if let Some(kept) = &mut self.kept {
            kept.push(*e);
        }
    }

    fn close(&mut self) {
        let open: Vec<u64> = self.next.drain(..).flatten().collect();
        self.runs.extend(open);
    }
}

#[derive(Debug)]
struct LogSink(Rc<RefCell<StreamLog>>);

impl TelemetrySink for LogSink {
    fn on_frame(&mut self, event: &FrameEvent) {
        self.0.borrow_mut().record(event);
    }
}

fn attach_log(keep: bool) -> (Rc<RefCell<StreamLog>>, Box<dyn TelemetrySink>) {
    let log = Rc::new(RefCell::new(StreamLog::new(keep)));
    (log.clone(), Box::new(LogSink(log)))
}

/// Engine retention facts read through a [`SharedEngine`] handle.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineFacts {
    /// Tasks submitted.
    pub tasks: usize,
    /// Tasks retired by windowed retirement.
    pub retired: usize,
    /// Peak live intervals any resource held.
    pub peak_live: usize,
}

impl EngineFacts {
    fn read(engine: &qvr::sim::SharedEngine) -> Self {
        EngineFacts {
            tasks: engine.task_count(),
            retired: engine.retired_tasks(),
            peak_live: engine.max_live_intervals(),
        }
    }
}

/// One completed (not necessarily correct) room, party fleet, or cell.
#[derive(Debug)]
pub struct Completed {
    /// The frame-event log.
    pub log: StreamLog,
    /// Engine retention facts.
    pub engine: EngineFacts,
    /// Per-session summaries with their first [`REPLAY_FRAMES`] frame
    /// records (traced fleets only: replay input; churn cells drop them at
    /// the cell seam).
    pub sessions: Vec<RunSummary>,
    /// Whether every session stepped exactly its frame budget (fleets).
    pub budget_ok: bool,
    /// Digest of the per-session summaries (makespans, energies).
    pub session_digest: u64,
    /// Σ and count of recorded per-frame fovea eccentricities.
    pub e1: (f64, u64),
    /// Simulated aggregates folded into the digest and the model stats:
    /// `(mtp p50, p95, p99, fps floor, mean fps, server utilization)`.
    pub aggregates: [f64; 6],
    /// The cell bundle (churn cells only), merged after the batch.
    pub cell: Option<CellSummary>,
    /// Sessions the cell admitted (churn cells; fleets admit everyone).
    pub admitted: usize,
}

/// One operation group's outcome: a room, the party fleet, or a cell.
#[derive(Debug)]
pub struct OpResult {
    /// Sessions offered (the operations this group accounts for).
    pub sessions: usize,
    /// `Ok` when the group ran to completion; the panic class otherwise.
    pub outcome: Result<Completed, String>,
    /// The failed output check, if any.
    pub check: Option<String>,
    /// Host time in `Fleet::new` / `ChurnFleet::new`, s.
    pub setup_s: f64,
    /// Host wall time stepping and finishing, s.
    pub wall_s: f64,
    /// Process CPU time stepping and finishing, s.
    pub cpu_s: f64,
}

impl OpResult {
    /// Frames stepped by this group if it completed and passed its checks.
    #[must_use]
    pub fn good_frames(&self) -> u64 {
        match (&self.outcome, &self.check) {
            (Ok(c), None) => c.log.events,
            _ => 0,
        }
    }

    /// Whether the group completed and passed its checks.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.outcome.is_ok() && self.check.is_none()
    }

    /// The failure class, if the group failed.
    #[must_use]
    pub fn failure(&self) -> Option<&str> {
        match (&self.outcome, &self.check) {
            (Err(class), _) => Some(class),
            (Ok(_), Some(check)) => Some(check),
            (Ok(_), None) => None,
        }
    }
}

/// Runs one fleet (the party, or a room) to completion.
pub fn run_fleet(config: &FleetConfig, op: u32, tr: &mut Tracer, root: Option<SpanId>) -> OpResult {
    let sessions = config.sessions.len();
    let config = config.clone();
    let stepping = config.stepping;
    let frames = config.frames;
    let keep = tr.enabled();
    let setup = Stopwatch::start();
    let mut fleet = tr.span("core.fleet/new", root, op, || Fleet::new(config));
    let (setup_s, _) = setup.elapsed();
    let (log, sink) = attach_log(keep);
    fleet.attach_sink(sink);
    let engine = fleet.shared_engine();
    let sw = Stopwatch::start();
    let outcome = catch(|| {
        match stepping {
            SteppingPolicy::VirtualTime => loop {
                let id = tr.open("core.fleet/step_next", root, op);
                let stepped = fleet.step_next();
                tr.close(id);
                if stepped.is_none() {
                    break;
                }
            },
            SteppingPolicy::RoundRobin => {
                for _ in 0..frames {
                    tr.span("core.fleet/step_round", root, op, || fleet.step_round());
                }
            }
        }
        tr.span("core.fleet/finish", root, op, || fleet.finish())
    });
    let (wall_s, cpu_s) = sw.elapsed();
    let facts = EngineFacts::read(&engine);
    drop(engine);
    let outcome = outcome.map(|summary| {
        let mut log = log.take();
        log.close();
        let budget_ok = summary.sessions.len() == sessions
            && summary.sessions.iter().all(|s| s.frames.len() == frames);
        let mut d = Digest::default();
        let mut e1 = (0.0, 0);
        for s in &summary.sessions {
            d.f64(s.makespan_ms);
            d.f64(s.energy.total_mj());
            for e in s.frames.iter().filter_map(|f| f.e1_deg) {
                e1.0 += e;
                e1.1 += 1;
            }
        }
        let kept = if keep {
            summary
                .sessions
                .into_iter()
                .map(|mut s| {
                    s.frames.truncate(REPLAY_FRAMES);
                    s
                })
                .collect()
        } else {
            Vec::new()
        };
        Completed {
            log,
            engine: facts,
            budget_ok,
            session_digest: d.value(),
            e1,
            aggregates: [
                summary.mtp_p50_ms,
                summary.mtp_p95_ms,
                summary.mtp_p99_ms,
                summary.fps_floor,
                summary.mean_fps,
                summary.server_utilization,
            ],
            admitted: sessions,
            sessions: kept,
            cell: None,
        }
    });
    let mut result = OpResult {
        sessions,
        outcome,
        check: None,
        setup_s,
        wall_s,
        cpu_s,
    };
    result.check = check_fleet(&result, frames);
    result
}

/// Output checks of a completed fleet: every session stepped exactly its
/// frame budget, the event stream agrees with the per-session records, and
/// every simulated statistic is finite.
fn check_fleet(result: &OpResult, frames: usize) -> Option<String> {
    let Ok(c) = &result.outcome else {
        return None;
    };
    let budget = frames as u64;
    if !c.budget_ok {
        return Some("check:frame_budget".into());
    }
    if c.log.events != budget * result.sessions as u64
        || c.log.runs.len() != result.sessions
        || c.log.runs.iter().any(|&r| r != budget)
        || c.log.bad_order != 0
    {
        return Some("check:event_stream".into());
    }
    if c.log.nonfinite != 0 || c.aggregates.iter().any(|x| !x.is_finite()) {
        return Some("check:nonfinite".into());
    }
    None
}

/// Runs one churn cell to completion: ticks it by hand (each tick is one
/// membership event or one frame) and finalises it into its cell bundle.
pub fn run_cell(input: &CellInput, tr: &mut Tracer) -> OpResult {
    let op = u32::try_from(input.cell).expect("cell id fits u32");
    let sessions = input.offers.len();
    let config = input.config.clone();
    let horizon = config.horizon_ms;
    let keep = tr.enabled();
    let root = tr.open("core.shard/cell", None, op);
    let setup = Stopwatch::start();
    let mut fleet = tr.span("core.churn/new", root, op, || {
        let mut fleet = ChurnFleet::new(config);
        fleet.enable_cell_sinks();
        fleet
    });
    let (setup_s, _) = setup.elapsed();
    let (log, sink) = attach_log(keep);
    fleet.attach_sink(sink);
    let engine = fleet.shared_engine();
    let sw = Stopwatch::start();
    let outcome = catch(|| {
        loop {
            let before = log.borrow().events;
            let id = tr.open("core.churn/tick", root, op);
            let more = fleet.tick();
            tr.close(id);
            if log.borrow().events == before && more {
                // No frame was stepped: the tick applied a membership event
                // (a join runs admission probes).
                tr.rename_last("core.churn/event_tick");
            }
            if !more {
                break;
            }
        }
        tr.span("core.churn/finish_cell", root, op, || {
            fleet.finish_cell(input.cell)
        })
    });
    let (wall_s, cpu_s) = sw.elapsed();
    tr.close(root);
    let facts = EngineFacts::read(&engine);
    drop(engine);
    let outcome = outcome.map(|cell| {
        let mut log = log.take();
        log.close();
        Completed {
            log,
            engine: facts,
            sessions: Vec::new(),
            budget_ok: true,
            session_digest: 0,
            e1: (0.0, 0),
            aggregates: [
                0.0,
                0.0,
                0.0,
                0.0,
                0.0,
                if cell.makespan_ms > 0.0 {
                    cell.server_busy_ms / (cell.makespan_ms * cell.server_units as f64)
                } else {
                    0.0
                },
            ],
            admitted: cell.sessions,
            cell: Some(cell),
        }
    });
    let mut result = OpResult {
        sessions,
        outcome,
        check: None,
        setup_s,
        wall_s,
        cpu_s,
    };
    result.check = check_cell(&result, horizon);
    result
}

/// Output checks of a completed churn cell: the frames the cell bundle
/// counts are exactly the frames streamed, each tenant occupancy's frames
/// are one contiguous sequence started inside the horizon, no more tenants
/// stepped than were admitted, and every statistic is finite.
fn check_cell(result: &OpResult, horizon_ms: f64) -> Option<String> {
    let Ok(c) = &result.outcome else {
        return None;
    };
    let cell = c.cell.as_ref().expect("cells ship a bundle");
    if cell.frames as u64 != c.log.events
        || c.log.bad_order != 0
        || c.log.runs.len() > c.admitted
        || c.admitted > result.sessions
        || c.log.max_span_start_ms >= horizon_ms
    {
        return Some("check:occupancy".into());
    }
    if c.log.nonfinite != 0 || !cell.makespan_ms.is_finite() || !cell.server_busy_ms.is_finite() {
        return Some("check:nonfinite".into());
    }
    None
}

/// One batch of a workload.
#[derive(Debug)]
pub struct Batch {
    /// Operation groups in input order.
    pub ops: Vec<OpResult>,
    /// Input generation plus every fleet/cell constructor, s.
    pub setup_s: f64,
    /// Wall time the throughput divides by, s.
    pub wall_s: f64,
    /// CPU time the CPU throughput divides by, s.
    pub cpu_s: f64,
    /// The merged shard (`churn_cells` only).
    pub merged: Option<ShardSummary>,
    /// Order-dependent digest of every simulated result in the batch.
    pub digest: u64,
    /// Failed output checks at batch level (the shard merge).
    pub batch_check: Option<String>,
    /// Spans of this batch (empty unless traced).
    pub tracer: Tracer,
    /// The inputs (kept for replays in traced runs).
    pub inputs: Inputs,
    /// Simulated-time statistics of the completed groups.
    pub model: crate::layers::Model,
}

/// A batch's generated inputs.
#[derive(Debug)]
pub enum Inputs {
    /// Fleet configs (`qvr_party` has one, `stream_rooms` 48).
    Fleets(Vec<FleetConfig>),
    /// Churn cells.
    Cells(Vec<CellInput>),
}

impl Batch {
    /// Drops the per-frame material (replay records, latency samples, kept
    /// events) once the batch's checks, digest, and model statistics are
    /// computed, so a run's memory does not grow with its batch count.
    pub fn slim(&mut self) {
        for c in self.ops.iter_mut().filter_map(|o| o.outcome.as_mut().ok()) {
            c.sessions = Vec::new();
            c.log.mtp_ms = Vec::new();
            c.log.kept = None;
        }
    }

    /// Sessions offered.
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.ops.iter().map(|o| o.sessions).sum()
    }

    /// Sessions whose group panicked or failed a check (every session of
    /// the batch when the batch-level check failed).
    #[must_use]
    pub fn failed(&self) -> usize {
        if self.batch_check.is_some() {
            return self.attempted();
        }
        self.ops
            .iter()
            .filter(|o| !o.ok())
            .map(|o| o.sessions)
            .sum()
    }

    /// Failed sessions by failure class.
    #[must_use]
    pub fn failures(&self) -> BTreeMap<String, usize> {
        let mut by: BTreeMap<String, usize> = BTreeMap::new();
        for o in &self.ops {
            if let Some(class) = o.failure() {
                *by.entry(class.to_string()).or_default() += o.sessions;
            }
        }
        if let Some(check) = &self.batch_check {
            *by.entry(check.clone()).or_default() += self.attempted();
        }
        by
    }

    /// The failure class of operation group `i`, if it failed (the
    /// batch-level check's when that failed).
    #[must_use]
    pub fn failure_of(&self, i: usize) -> Option<String> {
        self.batch_check
            .clone()
            .or_else(|| self.ops[i].failure().map(str::to_string))
    }

    /// Frames stepped by groups that completed and passed their checks.
    #[must_use]
    pub fn good_frames(&self) -> u64 {
        if self.batch_check.is_some() {
            return 0;
        }
        self.ops.iter().map(OpResult::good_frames).sum()
    }

    /// Simulated frames per wall-second.
    #[must_use]
    pub fn frames_per_s(&self) -> f64 {
        self.good_frames() as f64 / self.wall_s.max(1e-9)
    }

    /// Simulated frames per process CPU-second.
    #[must_use]
    pub fn frames_per_cpu_s(&self) -> f64 {
        self.good_frames() as f64 / self.cpu_s.max(1e-9)
    }
}

/// Runs one batch of `workload` on `seed`; `trace` keeps spans and replay
/// material.
#[must_use]
pub fn run_batch(workload: Workload, seed: u64, trace: bool, origin: Instant) -> Batch {
    let mut tr = Tracer::new(trace, origin, 0);
    let root = tr.open(workload.name(), None, 0);
    let gen = Stopwatch::start();
    let inputs = tr.span("inputs/generate", root, 0, || match workload {
        Workload::QvrParty => Inputs::Fleets(vec![inputs::party(seed)]),
        Workload::StreamRooms => Inputs::Fleets(inputs::rooms(seed)),
        Workload::ChurnCells => Inputs::Cells(inputs::cells(seed)),
    });
    let (gen_s, _) = gen.elapsed();
    let (ops, wall_s, cpu_s, merged) = match &inputs {
        Inputs::Fleets(configs) => {
            let ops: Vec<OpResult> = configs
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let op = u32::try_from(i).expect("room id fits u32");
                    let room = tr.open("core.fleet/run", root, op);
                    let r = run_fleet(c, op, &mut tr, room);
                    tr.close(room);
                    r
                })
                .collect();
            // Throughput counts only groups that completed and passed their
            // checks, over the host time those groups took.
            let good = ops.iter().filter(|o| o.ok());
            let (wall_s, cpu_s) = good.fold((0.0, 0.0), |(w, c), o| (w + o.wall_s, c + o.cpu_s));
            (ops, wall_s, cpu_s, None)
        }
        Inputs::Cells(cells) => {
            // The cells overlap on the workers, so throughput divides by
            // the whole parallel section, merge included.
            let sw = Stopwatch::start();
            let section = tr.open("core.shard/parallel_cells", root, 0);
            let results: Vec<(OpResult, Tracer)> =
                qvr::sim::parallel_map_with(CELL_WORKERS, cells, |input| {
                    let tid = u32::try_from(input.cell + 1).expect("cell id fits u32");
                    let mut ctr = Tracer::new(trace, origin, tid);
                    let r = run_cell(input, &mut ctr);
                    (r, ctr)
                });
            tr.close(section);
            let mut ops = Vec::with_capacity(results.len());
            for (r, ctr) in results {
                tr.absorb(ctr);
                ops.push(r);
            }
            let bundles: Vec<CellSummary> = ops
                .iter_mut()
                .filter(|o| o.ok())
                .filter_map(|o| o.outcome.as_mut().ok().and_then(|c| c.cell.take()))
                .collect();
            let merged = tr.span("core.shard/merge", root, 0, || ShardSummary::merge(bundles));
            let (wall_s, cpu_s) = sw.elapsed();
            (ops, wall_s, cpu_s, Some(merged))
        }
    };
    let mut batch = Batch {
        setup_s: gen_s + ops.iter().map(|o| o.setup_s).sum::<f64>(),
        ops,
        wall_s,
        cpu_s,
        merged,
        digest: 0,
        batch_check: None,
        tracer: Tracer::new(false, origin, 0),
        inputs,
        model: crate::layers::Model::default(),
    };
    tr.close(root);
    batch.batch_check = check_merge(&batch);
    batch.digest = digest(&batch);
    batch.model = crate::layers::model(&batch);
    batch.tracer = tr;
    batch
}

/// The shard merge must account for exactly the frames and sessions of
/// the cells it folded, with finite aggregates.
fn check_merge(batch: &Batch) -> Option<String> {
    let s = batch.merged.as_ref()?;
    let good = batch.ops.iter().filter(|o| o.ok());
    let (frames, sessions) = good.fold((0u64, 0usize), |(f, n), o| {
        let c = o.outcome.as_ref().expect("ok groups completed");
        (f + c.log.events, n + c.admitted)
    });
    let finite = [
        s.mtp_p50_ms,
        s.mtp_p95_ms,
        s.mtp_p99_ms,
        s.fps_floor,
        s.mean_fps,
    ]
    .iter()
    .all(|x| x.is_finite());
    if s.frames as u64 != frames || s.sessions != sessions || !finite {
        return Some("check:shard_merge".into());
    }
    None
}

/// Folds every group's status and simulated results, in input order, into
/// one digest: equal digests mean equal simulated outputs.
fn digest(batch: &Batch) -> u64 {
    let mut d = Digest::default();
    for o in &batch.ops {
        d.word(o.sessions as u64);
        match &o.outcome {
            Ok(c) => {
                d.word(c.log.digest.value());
                d.word(c.log.events);
                d.word(c.admitted as u64);
                for x in c.aggregates {
                    d.f64(x);
                }
                d.word(c.session_digest);
            }
            Err(class) => {
                for b in class.bytes() {
                    d.word(u64::from(b));
                }
            }
        }
    }
    if let Some(s) = &batch.merged {
        for x in [
            s.mtp_p50_ms,
            s.mtp_p95_ms,
            s.mtp_p99_ms,
            s.fps_floor,
            s.mean_fps,
            s.server_utilization,
            s.makespan_ms,
            s.energy.total_mj(),
        ] {
            d.f64(x);
        }
        d.word(s.frames as u64);
    }
    d.value()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::quiet_panics;

    /// A `stream_rooms`-shaped Wi-Fi room of 22 tenants (a balanced mix of
    /// the three non-foveated schemes) under virtual-time stepping and the
    /// canonical 300 ms retirement window: saturated frames outlive the
    /// window, and a static tenant's prefetch dependency then hits retired
    /// history (the windowed-retirement defect).
    fn saturated_wifi_room() -> FleetConfig {
        use qvr::scene::Benchmark;
        let apps = [Benchmark::Wolf, Benchmark::Hl2H, Benchmark::Grid];
        let mut config = FleetConfig::uniform(
            SystemConfig::default(),
            SchemeKind::RemoteOnly,
            Benchmark::Hl2H.profile(),
            1,
            inputs::ROOM_FRAMES,
            7,
        );
        config.sessions = (0..22)
            .map(|i| SessionSpec::new(inputs::ROOM_SCHEMES[i % 3], apps[i / 3 % 3].profile()))
            .collect();
        config.stepping = SteppingPolicy::VirtualTime;
        config.retire_window_ms = Some(inputs::RETIRE_WINDOW_MS);
        config
    }

    fn small_room() -> FleetConfig {
        let mut config = FleetConfig::uniform(
            SystemConfig::default(),
            SchemeKind::RemoteOnly,
            qvr::scene::Benchmark::Hl2H.profile(),
            3,
            40,
            7,
        );
        config.retire_window_ms = Some(inputs::RETIRE_WINDOW_MS);
        config
    }

    #[test]
    fn a_panicking_room_is_counted_not_fatal() {
        quiet_panics();
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let bad = run_fleet(&saturated_wifi_room(), 0, &mut tr, None);
        assert_eq!(
            bad.outcome.as_ref().err().map(String::as_str),
            Some("retired_task")
        );
        assert_eq!(bad.sessions, 22);
        assert_eq!(bad.good_frames(), 0);
        // The benchmark carries on: the next room runs and passes its checks.
        let good = run_fleet(&small_room(), 1, &mut tr, None);
        assert!(good.ok(), "{:?}", good.failure());
        assert_eq!(good.good_frames(), 3 * 40);
        let batch = Batch {
            ops: vec![bad, good],
            setup_s: 0.0,
            wall_s: 1.0,
            cpu_s: 1.0,
            merged: None,
            digest: 0,
            batch_check: None,
            tracer: tr,
            inputs: Inputs::Fleets(Vec::new()),
            model: crate::layers::Model::default(),
        };
        assert_eq!(batch.attempted(), 25);
        assert_eq!(batch.failed(), 22);
        assert_eq!(batch.failures().get("retired_task"), Some(&22));
        assert_eq!(batch.failure_of(0).as_deref(), Some("retired_task"));
        assert_eq!(batch.failure_of(1), None);
        assert_eq!(batch.good_frames(), 120);
    }

    #[test]
    fn checks_catch_a_broken_frame_budget() {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        let mut r = run_fleet(&small_room(), 0, &mut tr, None);
        assert!(r.ok());
        if let Ok(c) = &mut r.outcome {
            c.budget_ok = false;
        }
        assert_eq!(check_fleet(&r, 40).as_deref(), Some("check:frame_budget"));
        if let Ok(c) = &mut r.outcome {
            c.budget_ok = true;
            c.log.runs.pop();
        }
        assert_eq!(check_fleet(&r, 40).as_deref(), Some("check:event_stream"));
    }

    #[test]
    fn a_cell_runs_checks_and_repeats_bit_for_bit() {
        let cells = inputs::cells(11);
        let mut input = cells[0].clone();
        input.config.horizon_ms = 400.0;
        let run = || {
            let mut tr = Tracer::new(false, Instant::now(), 0);
            let r = run_cell(&input, &mut tr);
            assert!(r.ok(), "{:?}", r.failure());
            let c = r.outcome.expect("completed");
            (c.log.events, c.log.digest.value(), c.admitted)
        };
        let a = run();
        assert!(a.0 > 0 && a.2 > 0);
        assert_eq!(a, run(), "same inputs, same simulated results");
    }
}
