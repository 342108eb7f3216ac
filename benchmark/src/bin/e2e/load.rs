//! The load generators and what they record: one [`Rec`] per request,
//! checked against the catalog as its reply arrives; a closed loop of
//! blocking clients and an open loop over non-blocking connections, each
//! run one [`Window`] at a time.

use crate::daemon::Daemon;
use crate::Res;
use altx::{AddressSpace, CancelToken, PageSize};
use altx_benchmark::gen::{self, Arrival};
use altx_benchmark::sys;
use altx_benchmark::workloads::{Class, Workload};
use altx_serve::frame::{read_frame, write_frame, FrameDecoder, Request, Response};
use altx_serve::workload as catalog;
use altx_serve::Client;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A generator that ran this late invalidates the window it happened in.
pub const MAX_LAG_P99_US: f64 = 2_000.0;
pub const MAX_GENERATOR_GAP: Duration = Duration::from_millis(50);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `Ok`, verified, inside its deadline.
    Good,
    /// `Ok` and verified, but the client saw it after the deadline.
    Late,
    Shed,
    DeadlineExceeded,
    /// `Error`, `UnknownWorkload`, an unexpected frame, or no reply.
    Error,
    /// `Ok` with a winner or value the catalog contradicts.
    Wrong,
}

pub const OUTCOMES: [(Outcome, &str); 6] = [
    (Outcome::Good, "good"),
    (Outcome::Late, "late"),
    (Outcome::Shed, "shed"),
    (Outcome::DeadlineExceeded, "deadline_exceeded"),
    (Outcome::Error, "error"),
    (Outcome::Wrong, "wrong"),
];

/// One request of a phase, filled in when its reply arrives.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub class: u8,
    pub outcome: Outcome,
    /// Client-side latency to the decoded reply, from the send (closed
    /// loop) or the *intended* send (open loop).
    pub lat_ns: u64,
    /// `Response::Ok.latency_us`: what the daemon says the race took.
    pub race_us: u64,
    pub arg: u64,
    pub winner: u32,
    pub value: u64,
}

impl Rec {
    pub fn is_ok(&self) -> bool {
        matches!(self.outcome, Outcome::Good | Outcome::Late)
    }
}

/// Checks one reply against the catalog: the paper's contract is that
/// *some* alternative of the block won, named as the catalog names it.
/// `trivial` additionally promises `value == arg` on every reply.
pub fn classify(class: &Class, arg: u64, resp: &Response, lat_ns: u64) -> (Outcome, u64, u32, u64) {
    match resp {
        Response::Ok {
            winner,
            winner_name,
            latency_us,
            value,
        } => {
            let spec = catalog::spec(class.catalog).expect("workload table names catalog entries");
            let named_right = spec.alt_names.get(*winner as usize) == Some(&winner_name.as_str());
            let value_right = class.catalog != "trivial" || *value == arg;
            let outcome = if !named_right || !value_right {
                Outcome::Wrong
            } else if class.deadline_ms > 0 && lat_ns > u64::from(class.deadline_ms) * 1_000_000 {
                Outcome::Late
            } else {
                Outcome::Good
            };
            (outcome, *latency_us, *winner, *value)
        }
        Response::DeadlineExceeded { latency_us } => (Outcome::DeadlineExceeded, *latency_us, 0, 0),
        Response::Overloaded => (Outcome::Shed, 0, 0, 0),
        _ => (Outcome::Error, 0, 0, 0),
    }
}

/// Re-runs the reported winner alone on a seeded 1-in-256 sample of the
/// non-`trivial` `Ok` replies and compares the value. Returns
/// `(checked, mismatches)`. `corrupt` spoils the first expectation — the
/// test-only proof that a mismatch is fatal.
pub fn recheck_sample(wl: &Workload, recs: &mut [Rec], seed: u64, corrupt: bool) -> (u64, u64) {
    let mut pick = gen::Rng::new(seed, gen::VERIFY_STREAM);
    let (mut checked, mut wrong) = (0, 0);
    for rec in recs.iter_mut() {
        let class = &wl.classes[rec.class as usize];
        if !rec.is_ok() || class.catalog == "trivial" || !pick.next_u64().is_multiple_of(256) {
            continue;
        }
        let block = catalog::build(class.catalog, rec.arg).expect("catalog entry builds");
        let mut ws = AddressSpace::zeroed(4096, PageSize::K4);
        let mut expected =
            block.alternatives()[rec.winner as usize].run(&mut ws, &CancelToken::new());
        if corrupt && checked == 0 {
            expected = expected.map(|v| v ^ 1);
        }
        checked += 1;
        if expected != Some(rec.value) {
            wrong += 1;
            rec.outcome = Outcome::Wrong;
        }
    }
    (checked, wrong)
}

// ------------------------------------------------------------- the window

/// What one stretch of load produced: the warm-up, or one window of the
/// measured phase.
#[derive(Default)]
pub struct Window {
    pub recs: Vec<Rec>,
    /// Daemon CPU ticks spent over the window.
    pub cpu_ticks: u64,
    /// Open loop: how late each request left.
    pub lag_ns: Vec<u64>,
    /// The generator itself stalled for longer than `MAX_GENERATOR_GAP`.
    pub stalled: bool,
    /// Daemon `Threads:` sampled about halfway through.
    pub threads_mid: u64,
    /// Replies that matched no request.
    pub stray: u64,
}

/// When a closed-loop window stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// After this many replies per client (warm-up).
    Count(usize),
    /// After this long (measured).
    After(Duration),
}

// ----------------------------------------------------------- closed loop

pub fn closed_window(
    daemon: &Daemon,
    class: &Class,
    clients: &mut [Client],
    args: &mut [impl Iterator<Item = u64> + Send],
    stop: Stop,
) -> Res<Window> {
    let ticks_before = daemon.cpu_ticks();
    let t0 = Instant::now();
    let per_client: Vec<Res<(Vec<Rec>, bool, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(args.iter_mut())
            .enumerate()
            .map(|(i, (client, args))| {
                scope.spawn(move || -> Res<_> {
                    let mut recs = Vec::with_capacity(1 << 15);
                    let mut stalled = false;
                    let mut threads_mid = 0;
                    let mut idle_since = Instant::now();
                    loop {
                        let sent = Instant::now();
                        match stop {
                            Stop::Count(n) if recs.len() >= n => break,
                            Stop::After(d) if sent - t0 >= d => break,
                            _ => {}
                        }
                        // The generator's own time between a reply and the
                        // next send; waiting for the daemon is not it.
                        stalled |= sent - idle_since > MAX_GENERATOR_GAP;
                        if let Stop::After(d) = stop {
                            if i == 0 && threads_mid == 0 && sent - t0 >= d / 2 {
                                threads_mid = daemon.status_field("Threads");
                            }
                        }
                        let arg = args.next().expect("infinite stream");
                        let resp = client.run(class.catalog, arg, class.deadline_ms)?;
                        idle_since = Instant::now();
                        let lat_ns = (idle_since - sent).as_nanos() as u64;
                        let (outcome, race_us, winner, value) = classify(class, arg, &resp, lat_ns);
                        recs.push(Rec {
                            class: 0,
                            outcome,
                            lat_ns,
                            race_us,
                            arg,
                            winner,
                            value,
                        });
                    }
                    Ok((recs, stalled, threads_mid))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut window = Window {
        cpu_ticks: daemon.cpu_ticks() - ticks_before,
        ..Window::default()
    };
    for out in per_client {
        let (recs, stalled, threads_mid) = out?;
        window.recs.extend(recs);
        window.stalled |= stalled;
        window.threads_mid = window.threads_mid.max(threads_mid);
    }
    Ok(window)
}

// ------------------------------------------------------------- open loop

/// One non-blocking connection of the open-loop generator.
pub struct RawConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Bytes accepted for sending the socket has not taken yet.
    out: Vec<u8>,
    /// Record indices awaiting replies; replies arrive in request order.
    pub inflight: VecDeque<usize>,
}

impl RawConn {
    pub fn new(stream: TcpStream) -> Res<RawConn> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(RawConn {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            inflight: VecDeque::new(),
        })
    }

    fn flush(&mut self) -> Res<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Moves whatever the socket holds into the decoder.
    fn fill(&mut self) -> Res<()> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// A blocking STATS round trip on an otherwise idle connection. Any
    /// frame other than the stats text is a stray reply.
    pub fn stats_page(&mut self) -> Res<String> {
        self.stream.set_nonblocking(false)?;
        self.stream
            .set_read_timeout(Some(Duration::from_secs(10)))?;
        write_frame(&mut self.stream, &Request::Stats.encode())?;
        let body = read_frame(&mut self.stream)?.ok_or("daemon closed the connection")?;
        self.stream.set_nonblocking(true)?;
        match Response::decode(&body)? {
            Response::Text { body } => Ok(body),
            other => Err(format!("stray frame ahead of the STATS reply: {other:?}").into()),
        }
    }
}

/// Requests the open-loop generator lets be outstanding at once. Below
/// the daemon's run-queue depth (64), so the catch-up burst after a
/// stall of this shared box is held back in the generator — and charged
/// to latency and `gen.lag_*`, both counted from the intended send —
/// instead of overflowing the queue into sheds: the benchmark contract
/// wants workloads on which no operation fails. The cap never binds at
/// the depths `burst` reaches when nothing stalls.
const MAX_IN_FLIGHT: usize = 48;

/// Plays `schedule` against the daemon: each request leaves when it is
/// due (or as soon after as the generator manages — that lag is
/// recorded) and is timed from when it was *due*. Returns once every
/// reply is in, so the next window starts on an idle daemon.
pub fn open_window(
    daemon: &Daemon,
    classes: &[Class],
    conns: &mut [RawConn],
    schedule: &[Arrival],
) -> Res<Window> {
    use std::os::fd::AsRawFd;
    let span = Duration::from_nanos(schedule.last().map_or(0, |a| a.at_ns));
    // Replies owed after the last send get this long before they count
    // as lost.
    let drain_by = span + Duration::from_secs(3);
    let mut window = Window::default();
    window.recs.reserve(schedule.len());
    window.lag_ns.reserve(schedule.len());
    let mut due_ns = Vec::with_capacity(schedule.len());
    let mut body = Vec::with_capacity(64);
    let mut next = 0;
    let ticks_before = daemon.cpu_ticks();
    let t0 = Instant::now();
    let mut last_turn = Duration::ZERO;
    loop {
        let now = t0.elapsed();
        let now_ns = now.as_nanos() as u64;
        window.stalled |= now - last_turn > MAX_GENERATOR_GAP && now < span;
        last_turn = now;
        if window.threads_mid == 0 && now >= span / 2 {
            window.threads_mid = daemon.status_field("Threads");
        }
        let in_flight = |conns: &[RawConn]| conns.iter().map(|c| c.inflight.len()).sum::<usize>();
        while next < schedule.len()
            && schedule[next].at_ns <= now_ns
            && in_flight(conns) < MAX_IN_FLIGHT
        {
            let a = schedule[next];
            let class = &classes[a.class];
            let conn = &mut conns[a.class];
            let request = Request::Run {
                workload: class.catalog.to_owned(),
                deadline_ms: class.deadline_ms,
                arg: a.arg,
            };
            write_frame(&mut conn.out, &request.encode())?;
            conn.inflight.push_back(window.recs.len());
            window.lag_ns.push(now_ns - a.at_ns);
            due_ns.push(a.at_ns);
            window.recs.push(Rec {
                class: a.class as u8,
                outcome: Outcome::Error, // until its reply says otherwise
                lat_ns: 0,
                race_us: 0,
                arg: a.arg,
                winner: 0,
                value: 0,
            });
            next += 1;
        }
        for conn in conns.iter_mut() {
            conn.flush()?;
            conn.fill()?;
            body.clear();
            while conn.decoder.next_frame_into(&mut body)? {
                let resp = Response::decode(&body)?;
                body.clear();
                let Some(idx) = conn.inflight.pop_front() else {
                    window.stray += 1;
                    continue;
                };
                let rec = &mut window.recs[idx];
                rec.lat_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(due_ns[idx]);
                let class = &classes[rec.class as usize];
                (rec.outcome, rec.race_us, rec.winner, rec.value) =
                    classify(class, rec.arg, &resp, rec.lat_ns);
            }
        }
        if next == schedule.len() {
            if in_flight(conns) == 0 {
                break;
            }
            if t0.elapsed() > drain_by {
                return Err(format!("{} replies never arrived", in_flight(conns)).into());
            }
        }
        let until_next = match schedule.get(next) {
            Some(a) if in_flight(conns) < MAX_IN_FLIGHT => {
                Duration::from_nanos(a.at_ns).saturating_sub(t0.elapsed())
            }
            // Only a reply can move things on.
            _ => Duration::from_millis(5),
        };
        if !until_next.is_zero() {
            let mut fds: Vec<sys::PollFd> = conns
                .iter()
                .map(|c| sys::PollFd {
                    fd: c.stream.as_raw_fd(),
                    events: sys::POLLIN | if c.out.is_empty() { 0 } else { sys::POLLOUT },
                    revents: 0,
                })
                .collect();
            sys::wait(&mut fds, until_next);
        }
    }
    window.cpu_ticks = daemon.cpu_ticks() - ticks_before;
    Ok(window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use altx_benchmark::workloads::{self, WORKLOADS};
    use altx_serve::workload::CATALOG;

    fn class(catalog: &'static str, deadline_ms: u32) -> Class {
        Class {
            label: catalog,
            catalog,
            deadline_ms,
            rate: 0.0,
        }
    }

    fn ok(winner: u32, name: &str, value: u64) -> Response {
        Response::Ok {
            winner,
            winner_name: name.to_owned(),
            latency_us: 5,
            value,
        }
    }

    #[test]
    fn classify_accepts_any_alternative_the_catalog_names() {
        let c = class("trivial", 0);
        assert_eq!(
            classify(&c, 9, &ok(0, "instant-a", 9), 100).0,
            Outcome::Good
        );
        assert_eq!(
            classify(&c, 9, &ok(1, "instant-b", 9), 100).0,
            Outcome::Good
        );
    }

    #[test]
    fn classify_rejects_what_the_catalog_contradicts() {
        let c = class("trivial", 0);
        // Name does not match the index, index out of range, wrong value.
        assert_eq!(
            classify(&c, 9, &ok(0, "instant-b", 9), 100).0,
            Outcome::Wrong
        );
        assert_eq!(
            classify(&c, 9, &ok(2, "instant-a", 9), 100).0,
            Outcome::Wrong
        );
        assert_eq!(
            classify(&c, 9, &ok(0, "instant-a", 8), 100).0,
            Outcome::Wrong
        );
    }

    #[test]
    fn classify_counts_late_and_refused_replies_as_not_good() {
        let c = class("lognormal", 10);
        assert_eq!(
            classify(&c, 1, &ok(2, "draw-2", 3), 9_000_000).0,
            Outcome::Good
        );
        assert_eq!(
            classify(&c, 1, &ok(2, "draw-2", 3), 10_000_001).0,
            Outcome::Late
        );
        assert_eq!(classify(&c, 1, &Response::Overloaded, 50).0, Outcome::Shed);
        assert_eq!(
            classify(&c, 1, &Response::DeadlineExceeded { latency_us: 1 }, 50).0,
            Outcome::DeadlineExceeded
        );
        assert_eq!(
            classify(&c, 1, &Response::UnknownWorkload, 50).0,
            Outcome::Error
        );
    }

    /// `prolog` values are deterministic per `(arg, winner)`, so a true
    /// reply survives the re-run and a corrupted expectation does not.
    #[test]
    fn recheck_passes_true_replies_and_fails_when_corrupted() {
        let wl = workloads::by_name("cpu").unwrap();
        let make = || -> Vec<Rec> {
            (0..2_000u64)
                .map(|arg| {
                    let block = catalog::build("prolog", arg).unwrap();
                    let mut ws = AddressSpace::zeroed(4096, PageSize::K4);
                    let value = block.alternatives()[1]
                        .run(&mut ws, &CancelToken::new())
                        .unwrap();
                    Rec {
                        class: 0,
                        outcome: Outcome::Good,
                        lat_ns: 1,
                        race_us: 1,
                        arg,
                        winner: 1,
                        value,
                    }
                })
                .collect()
        };
        let mut recs = make();
        let (checked, wrong) = recheck_sample(wl, &mut recs, 3, false);
        assert!(checked > 0, "the sample is not empty");
        assert_eq!(wrong, 0);
        let mut recs = make();
        let (_, wrong) = recheck_sample(wl, &mut recs, 3, true);
        assert_eq!(wrong, 1);
        assert_eq!(
            recs.iter().filter(|r| r.outcome == Outcome::Wrong).count(),
            1
        );
    }

    #[test]
    fn every_workload_names_a_catalog_entry() {
        for wl in WORKLOADS {
            for c in wl.classes {
                assert!(CATALOG.iter().any(|w| w.name == c.catalog), "{}", c.catalog);
            }
        }
    }
}
