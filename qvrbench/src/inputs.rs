//! Workload inputs, generated from the `--seed` argument alone. The
//! simulator receives only what is built here: fleet configs (rosters,
//! networks, stepping policies) and churn configs (Poisson traces).

use qvr::core::admission::AdmissionPolicy;
use qvr::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// `qvr_party`: tenants in the one party fleet.
pub const PARTY_TENANTS: usize = 16;
/// `qvr_party`: frames each tenant steps.
pub const PARTY_FRAMES: usize = 240;
/// `qvr_party`: the six apps the tenants cycle through.
pub const PARTY_APPS: [Benchmark; 6] = [
    Benchmark::Hl2H,
    Benchmark::Doom3H,
    Benchmark::Wolf,
    Benchmark::Ut3,
    Benchmark::Grid,
    Benchmark::Doom3L,
];

/// `stream_rooms`: rooms run one after another.
pub const ROOMS: usize = 4 * ROOM_SIZES.len();
/// `stream_rooms`: the room sizes of each network × stepping quarter (the
/// seed decides which room of the quarter gets which size). Saturated Wi-Fi
/// virtual-time rooms hit the windowed-retirement defect: on every roster
/// tried at 22 tenants and above, on none at 12 and below, and on some
/// rosters only in between. The ladder skips 13–21, so the rooms that fail,
/// and with them the failed count, are the same on every seed.
pub const ROOM_SIZES: [usize; 12] = [4, 5, 6, 7, 8, 9, 10, 11, 12, 22, 24, 26];
/// `stream_rooms`: frames each tenant steps.
pub const ROOM_FRAMES: usize = 600;
/// The canonical windowed-retirement window, ms.
pub const RETIRE_WINDOW_MS: f64 = 300.0;

/// `churn_cells`: independent cells. A cell's host cost swings by an
/// order of magnitude with who its admission gate lets in and how long
/// they stay, so the batch averages over many cells.
pub const CELLS: usize = 32;
/// `churn_cells`: worker threads the cells fan out on.
pub const CELL_WORKERS: usize = 2;
/// `churn_cells`: virtual-time horizon of each cell, ms.
pub const CELL_HORIZON_MS: f64 = 3_000.0;
/// `churn_cells`: Poisson arrival rate per cell, joins/s.
pub const CELL_ARRIVALS_PER_S: f64 = 5.0;
/// `churn_cells`: mean holding time as a share of the horizon.
pub const CELL_HOLD_SHARE: f64 = 0.35;
/// `churn_cells`: tenants present at virtual time 0.
pub const CELL_INITIAL: usize = 2;
/// `churn_cells`: deferred windowed-statistics bucket width, ms.
pub const CELL_STATS_WINDOW_MS: f64 = 200.0;
/// `churn_cells`: the scheme mix arrivals draw from.
pub const CELL_SCHEMES: [SchemeKind; 6] = [
    SchemeKind::Qvr,
    SchemeKind::Ffr,
    SchemeKind::QvrSw,
    SchemeKind::RemoteOnly,
    SchemeKind::StaticCollab,
    SchemeKind::LocalOnly,
];

/// The schemes a `stream_rooms` tenant draws from: none is foveated, so
/// the geometry layer is never called.
pub const ROOM_SCHEMES: [SchemeKind; 3] = [
    SchemeKind::RemoteOnly,
    SchemeKind::StaticCollab,
    SchemeKind::LocalOnly,
];

/// The per-session seed a fleet derives for session `idx` (and a churn
/// fleet for arrival ordinal `idx`). Replays regenerate each session's app
/// frames from it.
#[must_use]
pub fn session_seed(seed: u64, idx: usize) -> u64 {
    seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Decorrelates a workload's generator from the raw seed.
fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// `qvr_party`: 16 full-Q-VR tenants cycling six apps on one shared Wi-Fi
/// link, virtual-time stepping, no retirement, default sinks.
#[must_use]
pub fn party(seed: u64) -> FleetConfig {
    let mut config = FleetConfig::uniform(
        SystemConfig::default(),
        SchemeKind::Qvr,
        Benchmark::Hl2H.profile(),
        PARTY_TENANTS,
        PARTY_FRAMES,
        seed,
    );
    config.sessions = (0..PARTY_TENANTS)
        .map(|i| SessionSpec::new(SchemeKind::Qvr, PARTY_APPS[i % PARTY_APPS.len()].profile()))
        .collect();
    config.stepping = SteppingPolicy::VirtualTime;
    config
}

/// A seeded, balanced assignment of `n` items to `k` categories: each
/// category gets `n / k` items (the first `n % k` one more), in shuffled
/// order. The seed decides who gets what; the mix is the same on every
/// seed, so a workload's cost does not swing with an unlucky draw.
fn balanced(rng: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).map(|i| i % k).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v
}

/// `stream_rooms`: 48 independent non-foveated rooms. The seed draws each
/// room's size (a permutation of [`ROOM_SIZES`] in each network × stepping
/// quarter), its network (Wi-Fi or early 5G) and
/// stepping policy (balanced), and its roster (balanced mixes of the three
/// non-foveated schemes and of the seven apps). Every room retires engine history with the
/// canonical 300 ms window.
#[must_use]
pub fn rooms(seed: u64) -> Vec<FleetConfig> {
    let mut rng = rng(seed, 2);
    let apps = Benchmark::all();
    let quarters = balanced(&mut rng, ROOMS, 4);
    // Every quarter has the whole size ladder; the seed decides which room
    // of the quarter gets which size.
    let mut sizes: Vec<Vec<usize>> = (0..4)
        .map(|_| {
            balanced(&mut rng, ROOM_SIZES.len(), ROOM_SIZES.len())
                .into_iter()
                .map(|k| ROOM_SIZES[k])
                .collect()
        })
        .collect();
    quarters
        .into_iter()
        .map(|q| {
            let n = sizes[q].pop().expect("each quarter has per_quarter rooms");
            let network = if q % 2 == 0 {
                NetworkPreset::WiFi
            } else {
                NetworkPreset::Early5G
            };
            let stepping = if q / 2 == 0 {
                SteppingPolicy::RoundRobin
            } else {
                SteppingPolicy::VirtualTime
            };
            let app_of = balanced(&mut rng, n, apps.len());
            let sessions = balanced(&mut rng, n, ROOM_SCHEMES.len())
                .into_iter()
                .zip(app_of)
                .map(|(k, a)| SessionSpec::new(ROOM_SCHEMES[k], apps[a].profile()))
                .collect();
            let mut config = FleetConfig::uniform(
                SystemConfig::default().with_network(network),
                SchemeKind::RemoteOnly,
                Benchmark::Hl2H.profile(),
                1,
                ROOM_FRAMES,
                rng.next_u64(),
            );
            config.sessions = sessions;
            config.stepping = stepping;
            config.retire_window_ms = Some(RETIRE_WINDOW_MS);
            config
        })
        .collect()
}

/// One `churn_cells` cell: its config plus every join it will offer, in
/// arrival-ordinal order (initial roster first, then the trace's joins).
#[derive(Debug, Clone)]
pub struct CellInput {
    /// The cell id (its position in the merge order).
    pub cell: usize,
    /// The churn config the cell runs.
    pub config: ChurnConfig,
    /// Every offered session, by arrival ordinal.
    pub offers: Vec<SessionSpec>,
}

/// `churn_cells`: 32 Wi-Fi cells with Poisson arrivals over a balanced mix
/// of six schemes,
/// the default admission policy, weighted fairness, rate control on, 300 ms
/// retirement, and deferred 200 ms windowed statistics.
#[must_use]
pub fn cells(seed: u64) -> Vec<CellInput> {
    let apps = Benchmark::all();
    (0..CELLS)
        .map(|cell| {
            let cseed = cell_seed(seed, cell);
            let mut rng = rng(cseed, 3);
            // Arrivals cycle through a seeded order of the six schemes, so
            // every cell offers the same balanced mix.
            let order = balanced(&mut rng, CELL_SCHEMES.len(), CELL_SCHEMES.len());
            let mut arrivals = 0;
            let mut spec = |_: usize| {
                let scheme = CELL_SCHEMES[order[arrivals % order.len()]];
                arrivals += 1;
                let app = apps[rng.gen_range(0..apps.len())];
                SessionSpec::new(scheme, app.profile())
            };
            let initial: Vec<SessionSpec> = (0..CELL_INITIAL).map(&mut spec).collect();
            let trace = ChurnTrace::poisson(
                cseed,
                CELL_ARRIVALS_PER_S,
                CELL_HOLD_SHARE * CELL_HORIZON_MS,
                CELL_HORIZON_MS,
                initial.len(),
                &mut spec,
            );
            let mut offers = initial.clone();
            offers.extend(trace.events().iter().filter_map(|e| match &e.kind {
                ChurnEventKind::Join(s) => Some((**s).clone()),
                ChurnEventKind::Leave(_) => None,
            }));
            let mut config = ChurnConfig::new(
                SystemConfig::default(),
                initial,
                trace,
                CELL_HORIZON_MS,
                cseed,
            )
            .with_admission(AdmissionPolicy::default())
            .with_fairness(FairnessPolicy::Weighted)
            .with_rate_control(RateControlConfig::on())
            .with_retire_window_ms(RETIRE_WINDOW_MS);
            config.telemetry = config
                .telemetry
                .with_window_ms(CELL_STATS_WINDOW_MS)
                .with_deferred_windows();
            CellInput {
                cell,
                config,
                offers,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = rooms(5);
        let b = rooms(5);
        let c = rooms(6);
        let key = |rs: &[FleetConfig]| -> Vec<(usize, u64, bool)> {
            rs.iter()
                .map(|r| {
                    (
                        r.sessions.len(),
                        r.seed,
                        r.stepping == SteppingPolicy::RoundRobin,
                    )
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b));
        let tenants = |rs: &[FleetConfig]| rs.iter().map(|r| r.sessions.len()).sum::<usize>();
        assert_eq!(tenants(&c), 4 * ROOM_SIZES.iter().sum::<usize>());
        assert_ne!(key(&a), key(&c));
        assert!(a
            .iter()
            .all(|r| r.sessions.iter().all(|s| ROOM_SCHEMES.contains(&s.scheme))));
        let cs = cells(5);
        assert_eq!(cs.len(), CELLS);
        assert!(cs.iter().all(|c| c.offers.len() > CELL_INITIAL));
        assert_eq!(party(5).sessions.len(), PARTY_TENANTS);
    }
}
