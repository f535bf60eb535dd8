//! The debug farm: one host process serving N concurrent guests.
//!
//! The ROADMAP's production-scale step: instead of one machine per process,
//! a [`Farm`] boots N independent machines (any mix of platforms and core
//! counts), shards them across worker threads, and exposes each machine's
//! in-monitor rdbg stub on its own TCP socket — plus one *control* socket
//! for fleet-wide aggregation (`stats`/`prof`/`metrics` summed across
//! guests, with per-guest drill-down) and lifecycle commands (`evict`,
//! `shutdown`).
//!
//! # Determinism
//!
//! A farm-served guest simulates **byte-identically** to the same guest run
//! standalone. Guests boot through [`boot_guest`], the one recipe the CLIs
//! and benches use too, so there is no farm-only boot to drift. The worker
//! loop only ever calls [`Platform::run_for`] in slices — and slicing is
//! simulation-invisible (`run_for(a); run_for(b)` ≡ `run_for(a + b)`, a
//! tested engine invariant) — and injects nothing unless a debug client
//! actually sends bytes. With a flight recorder on, the journal sealed at
//! the simulation horizon is the same text a standalone run produces;
//! `tests/farm.rs` proves this differentially.
//!
//! # Fault isolation
//!
//! One wedged guest must not stall its shard. Three mechanisms:
//!
//! - every slice is bounded (`slice` cycles), so a worker never dwells on
//!   one guest;
//! - a guest whose machine reports
//!   [`PlatformStep::Stuck`](hx_machine::platform::PlatformStep::Stuck) (a
//!   fault campaign wedged it, say) is **parked**: it stops consuming
//!   worker time but its debug socket stays served — incoming debugger
//!   traffic wakes it, which is exactly how a crashed OS is debugged;
//! - a guest that repeatedly blows the per-slice host-time budget is
//!   **evicted**: simulation stops, its socket drops, and fleet status
//!   reports it so the operator knows. The control `evict` command does
//!   the same on demand.
//!
//! The `Send` supertrait on [`Platform`] (and on `rdbg::Link`) is what
//! lets whole machines cross thread boundaries here without per-site
//! bounds.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use hitactix::GuestStats;
use hx_machine::Platform;
use hx_obs::json::{Json, JsonObj};
use hx_obs::HostAttribution;
use lvmm::FlightRecorder;

mod args;
mod boot;

pub use args::{parse_hex32, parse_num64, Flags};
pub use boot::{boot_guest, guest_machine, load_workload, new_machine, GuestSpec, PlatformKind};

/// Farm-wide configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    pub guests: Vec<GuestSpec>,
    /// Worker threads the guests are sharded across (round-robin).
    pub workers: usize,
    /// Simulated cycles per service slice. Small enough for interactive
    /// debugging, large enough to amortize the lock/poll overhead.
    pub slice: u64,
    /// Stop simulating each guest once its clock reaches this cycle
    /// (`None`: run until shut down). Debug sessions keep working after
    /// the horizon — the journal is sealed exactly at it.
    pub horizon: Option<u64>,
    /// Flight-recorder checkpoint cadence (cycles), for `record` guests.
    /// Each checkpoint copies all of guest RAM, so a cadence much below the
    /// default makes dozens of guests unaffordable.
    pub record_every: u64,
    /// Host-time budget for one slice; a guest exceeding it
    /// `slow_strikes` times in a row is evicted.
    pub slow_budget: Duration,
    pub slow_strikes: u32,
    /// Bind guest `i` to `base_port + 1 + i` and control to `base_port`
    /// (`None`: ephemeral ports, reported by [`Farm::ports`]).
    pub base_port: Option<u16>,
}

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            guests: Vec::new(),
            workers: 4,
            slice: 20_000,
            horizon: None,
            record_every: FlightRecorder::DEFAULT_EVERY,
            slow_budget: Duration::from_millis(250),
            slow_strikes: 3,
            base_port: None,
        }
    }
}

/// Guest lifecycle, as reported in fleet status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestHealth {
    /// Simulating normally.
    Running,
    /// Reached the simulation horizon; socket still served.
    Done,
    /// Machine reported `Stuck` (wedged/crashed guest); socket still
    /// served, debugger traffic wakes it.
    Parked,
    /// Removed from service (budget overrun or operator `evict`).
    Evicted,
}

impl GuestHealth {
    pub fn label(self) -> &'static str {
        match self {
            GuestHealth::Running => "running",
            GuestHealth::Done => "done",
            GuestHealth::Parked => "parked",
            GuestHealth::Evicted => "evicted",
        }
    }
}

/// Final per-guest summary returned by [`Farm::shutdown`].
#[derive(Debug)]
pub struct GuestReport {
    pub id: usize,
    pub platform: &'static str,
    pub health: GuestHealth,
    pub port: u16,
    pub now: u64,
    pub instret: u64,
    pub sessions: u64,
    /// The sealed journal text (only `record` guests that reached the
    /// horizon; the differential determinism test compares this byte for
    /// byte with a standalone run).
    pub journal: Option<String>,
}

struct GuestSlot {
    id: usize,
    platform: Box<dyn Platform>,
    listener: TcpListener,
    conn: Option<TcpStream>,
    health: GuestHealth,
    port: u16,
    sessions: u64,
    bytes_in: u64,
    bytes_out: u64,
    slow: u32,
    journal_text: Option<String>,
}

impl GuestSlot {
    /// One service pass: ingest client bytes, accept a new client, run a
    /// bounded slice, drain UART to the client, update health. Returns
    /// `true` if the guest did anything (so the worker knows whether to
    /// back off).
    fn service(&mut self, cfg: &FarmShared) -> bool {
        if self.health == GuestHealth::Evicted {
            // Fail fast for new clients instead of letting them hang.
            while let Ok((s, _)) = self.listener.accept() {
                drop(s);
            }
            return false;
        }
        // Retire a finished session before accepting, so a client that
        // reconnects right after disconnecting is not mistaken for a second
        // concurrent one.
        let mut got = self.read_client();
        if let Ok((s, _)) = self.listener.accept() {
            if self.conn.is_none() {
                s.set_nonblocking(true).ok();
                s.set_nodelay(true).ok();
                self.conn = Some(s);
                self.sessions += 1;
                got += self.read_client();
            }
            // A second concurrent client on the same guest is refused by
            // drop — one stub, one session.
        }
        self.bytes_in += got as u64;

        let run = match self.health {
            GuestHealth::Running => true,
            // Parked/Done guests consume no worker time on their own, but
            // debugger traffic drives slices so the stub keeps answering.
            GuestHealth::Parked | GuestHealth::Done => got > 0,
            GuestHealth::Evicted => false,
        };
        if !run {
            return got > 0;
        }

        let mut slice = cfg.slice;
        if self.health == GuestHealth::Running {
            if let Some(h) = cfg.horizon {
                let remaining = h.saturating_sub(self.platform.machine().now());
                if remaining == 0 {
                    self.finish_horizon();
                    return true;
                }
                slice = slice.min(remaining);
            }
        }

        let t0 = Instant::now();
        let ran = self.platform.run_for(slice);
        let host = t0.elapsed();

        let out = self.platform.machine_mut().uart_output();
        if !out.is_empty() {
            self.bytes_out += out.len() as u64;
            if let Some(c) = &mut self.conn {
                if c.write_all(&out).is_err() {
                    self.conn = None;
                }
            }
        }

        // Per-guest isolation: a guest that keeps blowing the host-time
        // budget gets evicted so its shard stays responsive for neighbors.
        if host > cfg.slow_budget {
            self.slow += 1;
            if self.slow >= cfg.slow_strikes {
                self.evict();
                return true;
            }
        } else {
            self.slow = 0;
        }

        if self.health == GuestHealth::Running {
            if let Some(h) = cfg.horizon {
                if self.platform.machine().now() >= h {
                    self.finish_horizon();
                    return true;
                }
            }
            if ran < slice {
                // `run_for` came up short: the machine hit `Stuck`. Park it
                // — debugger traffic can still wake it for post-mortem.
                self.health = GuestHealth::Parked;
            }
        }
        ran > 0 || got > 0
    }

    /// Feeds everything the client has sent into the guest's UART and
    /// retires a closed connection. Returns the bytes read.
    fn read_client(&mut self) -> usize {
        let Some(c) = &mut self.conn else {
            return 0;
        };
        let mut got = 0;
        let mut buf = [0u8; 4096];
        loop {
            match c.read(&mut buf) {
                Ok(0) => {
                    self.conn = None;
                    break;
                }
                Ok(n) => {
                    // Client bytes are the *only* external input a farm
                    // guest ever sees; with no client the simulation is
                    // standalone-identical.
                    self.platform.machine_mut().uart_input(&buf[..n]);
                    got += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    self.conn = None;
                    break;
                }
            }
        }
        got
    }

    /// Seals the journal exactly at the horizon and retires the guest to
    /// `Done`. Debug sessions (including time travel) keep working.
    fn finish_horizon(&mut self) {
        let now = self.platform.machine().now();
        let obs = &mut self.platform.machine_mut().obs;
        if let Some(j) = obs.journal_mut() {
            j.seal(now);
        }
        self.journal_text = obs.journal().map(|j| j.save());
        self.health = GuestHealth::Done;
    }

    fn evict(&mut self) {
        self.health = GuestHealth::Evicted;
        self.conn = None;
    }
}

struct FarmShared {
    guests: Vec<Mutex<GuestSlot>>,
    running: AtomicBool,
    slice: u64,
    horizon: Option<u64>,
    slow_budget: Duration,
    slow_strikes: u32,
}

/// The farm: N guests behind per-guest debug sockets plus a control socket,
/// serviced by worker threads until [`Farm::shutdown`] (or a control
/// `shutdown` command).
pub struct Farm {
    shared: Arc<FarmShared>,
    workers: Vec<JoinHandle<()>>,
    control: Option<JoinHandle<()>>,
    control_port: u16,
    ports: Vec<u16>,
}

impl Farm {
    /// Boots every guest, binds every socket, and starts the workers and
    /// the control thread.
    pub fn launch(cfg: FarmConfig) -> Result<Farm, String> {
        if cfg.guests.is_empty() {
            return Err("farm needs at least one guest".into());
        }
        let mut slots = Vec::with_capacity(cfg.guests.len());
        let mut ports = Vec::with_capacity(cfg.guests.len());
        for (id, spec) in cfg.guests.iter().enumerate() {
            let platform = boot_guest(spec, cfg.record_every)?;
            let port = cfg.base_port.map(|b| b + 1 + id as u16).unwrap_or(0);
            let listener = TcpListener::bind(("127.0.0.1", port))
                .map_err(|e| format!("guest {id}: bind failed: {e}"))?;
            listener.set_nonblocking(true).ok();
            let port = listener.local_addr().map_err(|e| e.to_string())?.port();
            ports.push(port);
            slots.push(Mutex::new(GuestSlot {
                id,
                platform,
                listener,
                conn: None,
                health: GuestHealth::Running,
                port,
                sessions: 0,
                bytes_in: 0,
                bytes_out: 0,
                slow: 0,
                journal_text: None,
            }));
        }
        let control_listener = TcpListener::bind(("127.0.0.1", cfg.base_port.unwrap_or(0)))
            .map_err(|e| format!("control: bind failed: {e}"))?;
        control_listener.set_nonblocking(true).ok();
        let control_port = control_listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .port();

        let shared = Arc::new(FarmShared {
            guests: slots,
            running: AtomicBool::new(true),
            slice: cfg.slice,
            horizon: cfg.horizon,
            slow_budget: cfg.slow_budget,
            slow_strikes: cfg.slow_strikes,
        });

        let workers = (0..cfg.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                let stride = cfg.workers.max(1);
                thread::Builder::new()
                    .name(format!("farm-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w, stride))
                    .expect("spawn worker")
            })
            .collect();
        let control = {
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("farm-control".into())
                    .spawn(move || control_loop(&shared, control_listener))
                    .expect("spawn control"),
            )
        };
        Ok(Farm {
            shared,
            workers,
            control,
            control_port,
            ports,
        })
    }

    /// Per-guest debug-socket ports, in guest-id order.
    pub fn ports(&self) -> &[u16] {
        &self.ports
    }

    pub fn control_port(&self) -> u16 {
        self.control_port
    }

    /// True once no guest is `Running` (all done, parked, or evicted).
    pub fn all_settled(&self) -> bool {
        self.shared
            .guests
            .iter()
            .all(|g| g.lock().unwrap().health != GuestHealth::Running)
    }

    /// Blocks until [`Farm::all_settled`] or the timeout; returns whether
    /// the fleet settled.
    pub fn wait_settled(&self, timeout: Duration) -> bool {
        let t0 = Instant::now();
        while t0.elapsed() < timeout {
            if self.all_settled() {
                return true;
            }
            thread::sleep(Duration::from_millis(5));
        }
        self.all_settled()
    }

    /// True while the farm serves (a control `shutdown` clears it).
    pub fn serving(&self) -> bool {
        self.shared.running.load(Ordering::Relaxed)
    }

    /// Runs `f` with exclusive access to guest `id`'s platform (the guest
    /// is paused for the duration — workers wait on the same lock). Used
    /// for host-side inspection: memory dumps, stats peeks, test probes.
    pub fn with_guest<R>(&self, id: usize, f: impl FnOnce(&mut dyn Platform) -> R) -> Option<R> {
        let slot = self.shared.guests.get(id)?;
        let mut g = slot.lock().unwrap();
        Some(f(g.platform.as_mut()))
    }

    /// Stops workers and control thread, tears down sockets, and returns
    /// the per-guest reports (with sealed journals where recorded).
    pub fn shutdown(mut self) -> Vec<GuestReport> {
        self.shared.running.store(false, Ordering::Relaxed);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(c) = self.control.take() {
            let _ = c.join();
        }
        self.shared
            .guests
            .iter()
            .map(|g| {
                let mut g = g.lock().unwrap();
                GuestReport {
                    id: g.id,
                    platform: g.platform.name(),
                    health: g.health,
                    port: g.port,
                    now: g.platform.machine().now(),
                    instret: g.platform.machine().total_instret(),
                    sessions: g.sessions,
                    journal: g.journal_text.take(),
                }
            })
            .collect()
    }
}

fn worker_loop(shared: &FarmShared, first: usize, stride: usize) {
    while shared.running.load(Ordering::Relaxed) {
        let mut active = false;
        let mut i = first;
        while i < shared.guests.len() {
            // Guests are serviced one lock at a time: the control thread
            // (and `shutdown`) interleave between slices, and a slice is
            // bounded, so no guest can wedge the shard.
            if shared.guests[i].lock().unwrap().service(shared) {
                active = true;
            }
            i += stride;
        }
        if !active {
            thread::sleep(Duration::from_millis(1));
        }
    }
}

fn control_loop(shared: &FarmShared, listener: TcpListener) {
    while shared.running.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                stream.set_nonblocking(false).ok();
                stream
                    .set_read_timeout(Some(Duration::from_millis(500)))
                    .ok();
                let mut out = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let reader = BufReader::new(stream);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    let reply = handle_control(shared, line.trim());
                    if out.write_all(reply.as_bytes()).is_err() || out.write_all(b"\n").is_err() {
                        break;
                    }
                    if !shared.running.load(Ordering::Relaxed) {
                        break;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Parses and answers one control command with one JSON line.
fn handle_control(shared: &FarmShared, line: &str) -> String {
    let mut words = line.split_whitespace();
    let cmd = words.next().unwrap_or("");
    let arg = words.next();
    let guest_arg = |arg: Option<&str>| -> Result<Option<usize>, String> {
        match arg {
            None => Ok(None),
            Some(s) => {
                let id: usize = s.parse().map_err(|_| format!("bad guest id `{s}`"))?;
                if id >= shared.guests.len() {
                    return Err(format!("no guest {id}"));
                }
                Ok(Some(id))
            }
        }
    };
    let mut reply = JsonObj::new();
    let res = match cmd {
        "status" => Ok(status_json(shared)),
        "stats" => guest_arg(arg).map(|g| stats_json(shared, g)),
        "prof" => guest_arg(arg).map(|g| prof_json(shared, g)),
        "metrics" => guest_arg(arg).map(|g| metrics_json(shared, g)),
        "evict" => match guest_arg(arg) {
            Ok(Some(id)) => {
                shared.guests[id].lock().unwrap().evict();
                Ok(reply.set("evicted", id as u64).finish())
            }
            Ok(None) => Err("evict needs a guest id".into()),
            Err(e) => Err(e),
        },
        "shutdown" => {
            shared.running.store(false, Ordering::Relaxed);
            Ok(reply.set("ok", true).finish())
        }
        _ => Err(format!(
            "unknown command `{cmd}` (status|stats [id]|prof [id]|metrics [id]|evict <id>|shutdown)"
        )),
    };
    res.unwrap_or_else(|e| reply.set("error", &e).finish())
}

fn status_json(shared: &FarmShared) -> String {
    let mut counts = BTreeMap::new();
    let mut guests = Vec::new();
    for slot in &shared.guests {
        let g = slot.lock().unwrap();
        *counts.entry(g.health.label()).or_insert(0u64) += 1;
        let mut o = JsonObj::new();
        o.set("id", g.id as u64)
            .set("platform", g.platform.name())
            .set("health", g.health.label())
            .set("port", g.port as u64)
            .set("now", g.platform.machine().now())
            .set("sessions", g.sessions)
            .set("bytes_in", g.bytes_in)
            .set("bytes_out", g.bytes_out);
        guests.push(Json::from(o));
    }
    let mut fleet = JsonObj::new();
    fleet.set("guests", shared.guests.len() as u64);
    for (health, n) in counts {
        fleet.set(health, n);
    }
    let mut o = JsonObj::new();
    o.set("fleet", fleet).set("guests", guests);
    o.finish()
}

/// Runs `f` on each guest `which` selects (every guest for `None`).
fn for_selected(shared: &FarmShared, which: Option<usize>, mut f: impl FnMut(&GuestSlot)) {
    for slot in &shared.guests {
        let g = slot.lock().unwrap();
        if which.is_none_or(|id| id == g.id) {
            f(&g);
        }
    }
}

/// Per-guest counters plus a fleet total that is, by construction, the
/// field-wise sum of the per-guest objects — the farm-smoke CI job
/// re-derives the sum externally and asserts equality.
fn stats_json(shared: &FarmShared, which: Option<usize>) -> String {
    let mut guests = Vec::new();
    let keys = [
        "instret",
        "guest_cycles",
        "monitor_cycles",
        "host_model_cycles",
        "idle_cycles",
        "frames",
        "stream_bytes",
        "journal_payload_bytes",
        "sessions",
    ];
    let mut tot = keys.map(|_| 0u64);
    for_selected(shared, which, |g| {
        let m = g.platform.machine();
        let t = g.platform.time_stats();
        let gs = GuestStats::read(m).unwrap_or_default();
        let vals = [
            m.total_instret(),
            t.guest,
            t.monitor,
            t.host_model,
            t.idle,
            gs.frames as u64,
            gs.bytes,
            m.obs.journal().map_or(0, |j| j.payload_bytes()),
            g.sessions,
        ];
        let mut o = JsonObj::new();
        o.set("id", g.id as u64)
            .set("health", g.health.label())
            .set("now", m.now());
        for ((k, v), t) in keys.iter().zip(vals).zip(&mut tot) {
            o.set(k, v);
            *t += v;
        }
        guests.push(Json::from(o));
    });
    let mut totals = JsonObj::new();
    for (k, t) in keys.iter().zip(tot) {
        totals.set(k, t);
    }
    let mut o = JsonObj::new();
    o.set("qstats", totals).set("guests", guests);
    o.finish()
}

/// Fleet `qProf`: per-symbol guest cycles summed across profiled guests
/// (deterministic order: cycles descending, then name).
fn prof_json(shared: &FarmShared, which: Option<usize>) -> String {
    let mut by_symbol: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut profiled = 0u64;
    for_selected(shared, which, |g| {
        let Some(prof) = g.platform.machine().obs.prof() else {
            return;
        };
        profiled += 1;
        for (name, cycles, samples) in prof.top(usize::MAX) {
            let e = by_symbol.entry(name.to_string()).or_insert((0, 0));
            e.0 += cycles;
            e.1 += samples;
        }
    });
    let mut rows: Vec<_> = by_symbol.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(&b.0)));
    let symbols: Vec<Json> = rows
        .into_iter()
        .map(|(name, (cycles, samples))| {
            let mut o = JsonObj::new();
            o.set("symbol", &name)
                .set("cycles", cycles)
                .set("samples", samples);
            Json::from(o)
        })
        .collect();
    let mut o = JsonObj::new();
    o.set("profiled_guests", profiled).set("symbols", symbols);
    o.finish()
}

/// Fleet `qMetrics`: monitor-time host attribution summed across guests
/// with the host profiler on, phases in the canonical `HostPhase::ALL`
/// order like every other surface.
fn metrics_json(shared: &FarmShared, which: Option<usize>) -> String {
    let mut sum = HostAttribution::default();
    let mut profiled = 0u64;
    for_selected(shared, which, |g| {
        if let Some(att) = g.platform.machine().obs.host_attribution() {
            profiled += 1;
            sum.wall_ns += att.wall_ns;
            sum.marks += att.marks;
            for (total, ns) in sum.phase_ns.iter_mut().zip(att.phase_ns) {
                *total += ns;
            }
        }
    });
    let mut ph = JsonObj::new();
    for (label, ns) in sum.phases() {
        ph.set(&label, ns);
    }
    let mut o = JsonObj::new();
    o.set("profiled_guests", profiled)
        .set("wall_ns", sum.wall_ns)
        .set("marks", sum.marks)
        .set("phase_ns", ph);
    o.finish()
}

/// An `rdbg::Link` over a TCP connection to a farm guest's debug socket —
/// what `dbgctl --connect` and the farm tests/bench use as the client side.
pub struct TcpLink {
    stream: TcpStream,
}

impl TcpLink {
    pub fn connect(addr: &str) -> std::io::Result<TcpLink> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // `pump` must return periodically (the debugger counts pump calls
        // against its budget), so reads time out quickly.
        stream.set_read_timeout(Some(Duration::from_millis(2)))?;
        Ok(TcpLink { stream })
    }
}

impl rdbg::Link for TcpLink {
    fn send(&mut self, bytes: &[u8]) {
        let _ = self.stream.write_all(bytes);
    }

    fn pump(&mut self) -> Vec<u8> {
        let mut buf = [0u8; 4096];
        match self.stream.read(&mut buf) {
            Ok(n) => buf[..n].to_vec(),
            Err(_) => Vec::new(),
        }
    }
}

/// One-shot control request: connect, send `cmd`, read the one-line JSON
/// reply.
pub fn control_request(port: u16, cmd: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(("127.0.0.1", port))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    stream.write_all(cmd.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_labels_round_trip() {
        for p in [
            PlatformKind::RawHw,
            PlatformKind::Lvmm,
            PlatformKind::Hosted,
        ] {
            assert_eq!(PlatformKind::from_label(p.label()), Some(p));
        }
        assert_eq!(PlatformKind::from_label("raw"), Some(PlatformKind::RawHw));
        assert_eq!(PlatformKind::from_label("vmware"), None);
        assert_eq!(PlatformKind::from_label("Lvmm"), None);
        assert_eq!(PlatformKind::from_label(""), None);

        // Wild writes reach all of RAM on raw hardware and stop at each
        // monitor's reserved region.
        let ram = hx_machine::MachineConfig::default().ram_size as u32;
        assert_eq!(PlatformKind::RawHw.wild_limit(ram), ram);
        assert_eq!(
            PlatformKind::Lvmm.wild_limit(ram),
            ram - lvmm::LvmmConfig::default().monitor_mem
        );
        assert_eq!(
            PlatformKind::Hosted.wild_limit(ram),
            ram - hosted_vmm::HostedConfig::default().host_mem
        );
    }

    #[test]
    fn out_of_range_cores_are_refused_not_clamped() {
        for cores in [0, hx_machine::smp::MAX_CORES + 1] {
            let spec = GuestSpec {
                cores,
                ..GuestSpec::default()
            };
            let Err(err) = guest_machine(&spec) else {
                panic!("{cores} cores booted");
            };
            assert!(err.contains("--cores"), "{err}");
            let Err(err) = Farm::launch(FarmConfig {
                guests: vec![spec],
                ..FarmConfig::default()
            }) else {
                panic!("a farm guest booted with {cores} cores");
            };
            assert!(err.contains("--cores"), "{err}");
        }
        let spec = GuestSpec {
            cores: hx_machine::smp::MAX_CORES,
            ..GuestSpec::default()
        };
        let (machine, _, _) = guest_machine(&spec).expect("MAX_CORES boots");
        assert_eq!(machine.num_cores(), hx_machine::smp::MAX_CORES);
    }

    #[test]
    fn farm_is_send() {
        fn is_send<T: Send>() {}
        is_send::<GuestSlot>();
        is_send::<Farm>();
        is_send::<TcpLink>();
    }

    #[test]
    fn single_guest_farm_settles_at_horizon_and_seals_journal() {
        let cfg = FarmConfig {
            guests: vec![GuestSpec::default()],
            workers: 1,
            horizon: Some(2_000_000),
            ..FarmConfig::default()
        };
        let farm = Farm::launch(cfg).expect("launch");
        assert!(farm.wait_settled(Duration::from_secs(60)));
        let reports = farm.shutdown();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].health, GuestHealth::Done);
        // `run_for` stops at the first step boundary at or past the target
        // (same as a standalone run would), so `now` may overshoot by one
        // step.
        assert!(reports[0].now >= 2_000_000 && reports[0].now < 2_100_000);
        let journal = reports[0].journal.as_ref().expect("sealed journal");
        assert!(journal.starts_with("# lwvmm journal v1"));
        // Sealed at the exact cycle the guest stopped.
        assert!(journal.contains(&format!("end {}", reports[0].now)));
    }
}
