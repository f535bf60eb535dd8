//! Farm bench: how the one-process debug farm scales with fleet size.
//!
//! For each fleet size N the bench launches N lightweight-monitor guests
//! (flight recorders on), lets the whole fleet simulate to a fixed horizon,
//! and records:
//!
//! - **sim speed vs N** — aggregate and per-guest instructions per host
//!   second, plus per-guest degradation relative to the single-guest fleet
//!   (the cost of sharing worker threads);
//! - **memory per guest** — resident-set growth across the launch, divided
//!   by N (Linux `/proc/self/statm`; reported as 0 elsewhere);
//! - **sessions per second** — after the horizon, client threads hammer
//!   distinct guests with short scripted debug sessions
//!   (connect → halt → regs → resume → disconnect) for a fixed wall
//!   window.

use crate::{Align, Report};
use hx_farm::{Farm, FarmConfig, GuestSpec};
use hx_obs::json::{Json, JsonObj};
use rdbg::Debugger;
use std::time::{Duration, Instant};

pub struct FarmBenchConfig {
    /// Fleet sizes to sweep, ascending (the first is the degradation
    /// baseline).
    pub fleet_sizes: Vec<usize>,
    /// Simulated horizon per fleet, milliseconds.
    pub horizon_ms: u64,
    /// Wall-clock window for the session-throughput phase, per fleet.
    pub session_window: Duration,
    /// Concurrent session clients (capped at the fleet size — one client
    /// per guest, the stub serves one session at a time).
    pub session_clients: usize,
}

impl FarmBenchConfig {
    pub fn new() -> FarmBenchConfig {
        FarmBenchConfig {
            fleet_sizes: vec![1, 4, 8, 16, 32],
            horizon_ms: 40,
            session_window: Duration::from_secs(2),
            session_clients: 4,
        }
    }

    /// CI-scale: small fleets, short horizon, one-second session window.
    pub fn fast() -> FarmBenchConfig {
        FarmBenchConfig {
            fleet_sizes: vec![1, 4, 8],
            horizon_ms: 20,
            session_window: Duration::from_secs(1),
            session_clients: 4,
        }
    }
}

impl Default for FarmBenchConfig {
    fn default() -> Self {
        FarmBenchConfig::new()
    }
}

/// One fleet-size measurement.
pub struct FleetPoint {
    pub guests: usize,
    /// Whether the whole fleet reached the horizon.
    pub settled: bool,
    /// Launch-to-settled wall seconds.
    pub wall_seconds: f64,
    /// Fleet-total instructions at the horizon, summed over every guest.
    pub total_instret: u64,
    pub instr_per_host_sec: f64,
    pub per_guest_instr_per_sec: f64,
    /// `per_guest_instr_per_sec / (same for the baseline fleet)`.
    pub degradation_vs_base: f64,
    pub mem_per_guest_kb: u64,
    pub sessions: u64,
    pub sessions_per_sec: f64,
}

/// Resident set size in kilobytes (0 on non-Linux hosts).
fn rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
            return 0;
        };
        let pages: u64 = statm
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        pages * 4 // 4 KiB pages
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// One scripted debug session against a farm guest: connect, halt, read
/// registers, resume, disconnect. Returns whether every step succeeded.
fn one_session(addr: &str) -> bool {
    let Ok(link) = hx_farm::TcpLink::connect(addr) else {
        return false;
    };
    let mut dbg = Debugger::new(link);
    dbg.halt().is_ok() && dbg.read_registers().is_ok() && dbg.resume().is_ok()
}

/// Hammers distinct guests with scripted sessions for `window`, one client
/// thread per guest; returns total completed sessions.
fn session_storm(ports: &[u16], clients: usize, window: Duration) -> u64 {
    let deadline = Instant::now() + window;
    std::thread::scope(|s| {
        let handles: Vec<_> = ports
            .iter()
            .take(clients.max(1))
            .map(|&port| {
                s.spawn(move || {
                    let addr = format!("127.0.0.1:{port}");
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        if one_session(&addr) {
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    })
}

/// Runs the sweep. Fleet sizes run in ascending order so each fleet's RSS
/// growth is measured above the previous high-water mark.
pub fn run_farm_bench(cfg: &FarmBenchConfig) -> Vec<FleetPoint> {
    let horizon = hx_machine::timing::DEFAULT_CLOCK_HZ / 1_000 * cfg.horizon_ms;
    let mut points: Vec<FleetPoint> = Vec::new();
    for &n in &cfg.fleet_sizes {
        let rss_before = rss_kb();
        let farm = Farm::launch(FarmConfig {
            guests: vec![GuestSpec::default(); n],
            horizon: Some(horizon),
            ..FarmConfig::default()
        })
        .expect("farm launches");
        let t0 = Instant::now();
        // Generous ceiling: a fleet that cannot settle in this long is a
        // finding, not a hang.
        let settled = farm.wait_settled(Duration::from_secs(120 + 2 * n as u64));
        let wall_seconds = t0.elapsed().as_secs_f64();
        let rss_after = rss_kb();

        let total_instret: u64 = (0..n)
            .filter_map(|g| farm.with_guest(g, |p| p.machine().total_instret()))
            .sum();

        let sessions = session_storm(farm.ports(), cfg.session_clients.min(n), cfg.session_window);
        farm.shutdown();

        let per_guest = total_instret as f64 / wall_seconds / n as f64;
        let base = points
            .first()
            .map(|p| p.per_guest_instr_per_sec)
            .unwrap_or(per_guest);
        points.push(FleetPoint {
            guests: n,
            settled,
            wall_seconds,
            total_instret,
            instr_per_host_sec: total_instret as f64 / wall_seconds,
            per_guest_instr_per_sec: per_guest,
            degradation_vs_base: per_guest / base.max(1.0),
            mem_per_guest_kb: rss_after.saturating_sub(rss_before) / n as u64,
            sessions,
            sessions_per_sec: sessions as f64 / cfg.session_window.as_secs_f64().max(1e-9),
        });
    }
    points
}

pub fn farm_report(cfg: &FarmBenchConfig, points: &[FleetPoint]) -> Report {
    let mut r = Report::new(format!(
        "Debug farm scaling — {} simulated ms per fleet, {:.0} s session window",
        cfg.horizon_ms,
        cfg.session_window.as_secs_f64()
    ))
    .column("guests", Align::Right)
    .column("settled", Align::Left)
    .column("wall s", Align::Right)
    .column("instr/s total", Align::Right)
    .column("instr/s per guest", Align::Right)
    .column("vs N=1", Align::Right)
    .column("mem/guest KiB", Align::Right)
    .column("sessions/s", Align::Right);
    for p in points {
        r.row([
            p.guests.to_string(),
            if p.settled { "yes" } else { "NO" }.to_string(),
            format!("{:.2}", p.wall_seconds),
            format!("{:.0}", p.instr_per_host_sec),
            format!("{:.0}", p.per_guest_instr_per_sec),
            format!("{:.2}", p.degradation_vs_base),
            p.mem_per_guest_kb.to_string(),
            format!("{:.1}", p.sessions_per_sec),
        ]);
    }
    r
}

/// The `farm` section of the bench document.
pub fn farm_section(cfg: &FarmBenchConfig, points: &[FleetPoint]) -> JsonObj {
    let rows = points.iter().map(|p| {
        let per_guest = p.per_guest_instr_per_sec;
        let mut row = JsonObj::new();
        row.set("guests", p.guests as u64)
            .set("settled", p.settled)
            .set("wall_seconds", Json::fixed(p.wall_seconds, 4))
            .set("total_instret", p.total_instret)
            .set("instr_per_host_sec", Json::fixed(p.instr_per_host_sec, 0))
            .set("per_guest_instr_per_sec", Json::fixed(per_guest, 0))
            .set("degradation_vs_base", Json::fixed(p.degradation_vs_base, 4))
            .set("mem_per_guest_kb", p.mem_per_guest_kb)
            .set("sessions", p.sessions)
            .set("sessions_per_sec", Json::fixed(p.sessions_per_sec, 2));
        Json::from(row)
    });
    let window = cfg.session_window.as_secs_f64();
    let mut s = JsonObj::new();
    s.set("horizon_ms", cfg.horizon_ms)
        .set("session_window_s", Json::fixed(window, 1))
        .set("points", rows.collect::<Vec<_>>());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_replaces_a_previous_farm_section() {
        let cfg = FarmBenchConfig::fast();
        let points = vec![FleetPoint {
            guests: 1,
            settled: true,
            wall_seconds: 1.0,
            total_instret: 10,
            instr_per_host_sec: 10.0,
            per_guest_instr_per_sec: 10.0,
            degradation_vs_base: 1.0,
            mem_per_guest_kb: 7,
            sessions: 3,
            sessions_per_sec: 3.0,
        }];
        let doc = "{\n  \"bench\": \"fig3_1\"\n}\n";
        let merge = |doc: &str| crate::set_section(doc, "farm", farm_section(&cfg, &points));
        let once = merge(doc);
        let twice = merge(&once);
        assert_eq!(once, twice, "re-merge replaces, never duplicates");
        assert!(once.contains("\"bench\": \"fig3_1\""));
        assert!(once.contains("\"mem_per_guest_kb\":7"));
        assert_eq!(once.matches("\"farm\":").count(), 1);
    }
}
