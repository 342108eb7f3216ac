//! Blocking client for the daemon's framed protocol, with timeouts,
//! retries, and optional request hedging.
//!
//! The bare [`Client::connect`] is already defensive: every socket gets
//! connect/read/write timeouts so a dead or wedged daemon surfaces as a
//! timed-out [`FrameError::Io`] instead of a hang. Resilience beyond
//! that is opt-in via [`ClientConfig`]:
//!
//! * a [`RetryPolicy`] re-issues calls that failed *retryably* — an
//!   `Overloaded` shed or a transport error — with exponential backoff,
//!   deterministic jitter, and a per-client retry **budget** so a
//!   persistently sick server cannot trap the client in backoff forever;
//! * a **hedge delay** races a second attempt on a fresh connection when
//!   the first reply is slow — the paper's Scheme A ("initiate both,
//!   first answer wins") applied at the RPC layer, where the mutually
//!   exclusive alternatives are two sends of the same idempotent request.
//!
//! Every retry, hedge, reconnect, and abandoned hedge loser is counted
//! in [`ClientStats`] so load generators can report how much resilience
//! machinery actually fired. A hedge loser's thread is never leaked:
//! it is reaped opportunistically and joined on [`Drop`], bounded by
//! the attempt's socket timeouts.

use crate::frame::{read_frame, write_frame, FrameError, Request, Response};
use altx_des::splitmix64;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// When and how aggressively to retry a failed call.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total tries per call, including the first (min 1).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff · 2^(n-1)` plus jitter.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Retries available over the client's whole lifetime. Once spent,
    /// failures return immediately — a sick server can't hold every
    /// caller in backoff.
    pub budget: u32,
    /// Seed for the deterministic jitter stream (reproducible runs).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            budget: 64,
            jitter_seed: 0x5EED,
        }
    }
}

/// Connection and resilience knobs for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-address connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (`None` = block forever; the default is
    /// bounded so a silent daemon can't hang the caller).
    pub read_timeout: Option<Duration>,
    /// Socket write timeout.
    pub write_timeout: Option<Duration>,
    /// Retry policy; `None` disables retries (one attempt per call).
    pub retry: Option<RetryPolicy>,
    /// If set, a call whose reply hasn't arrived after this long sends
    /// the same request once more on a fresh connection and takes
    /// whichever reply lands first.
    pub hedge_delay: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            retry: None,
            hedge_delay: None,
        }
    }
}

/// Counters for how often the resilience machinery fired.
#[derive(Debug, Default)]
pub struct ClientStats {
    retries: AtomicU64,
    hedges: AtomicU64,
    reconnects: AtomicU64,
    abandoned: AtomicU64,
}

impl ClientStats {
    /// Calls re-issued after a retryable failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Hedged second attempts launched.
    pub fn hedges(&self) -> u64 {
        self.hedges.load(Ordering::Relaxed)
    }

    /// Fresh connections opened after the first (reconnects + hedges).
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Hedge attempts whose reply nobody waited for — the race was
    /// decided by the other attempt, so the loser's thread was left to
    /// drain on its own (joined, at the latest, when the client drops).
    pub fn abandoned(&self) -> u64 {
        self.abandoned.load(Ordering::Relaxed)
    }
}

/// One connection to an `altxd` daemon. Requests are synchronous: one
/// outstanding request per connection, replies in order. (Hedging may
/// briefly hold a second connection; the loser's connection is
/// discarded, never reused, and its thread is tracked in `outstanding`
/// so [`Drop`] can join it — attempts are bounded by socket timeouts,
/// so no abandoned thread outlives the client by more than a timeout.)
pub struct Client {
    stream: Option<TcpStream>,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    stats: Arc<ClientStats>,
    budget_left: u32,
    jitter: u64,
    outstanding: Vec<JoinHandle<()>>,
}

impl Client {
    /// Connects with default timeouts and no retries.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit configuration.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let stream = open_stream(&addrs, &config)?;
        let (budget_left, jitter) = config
            .retry
            .as_ref()
            .map_or((0, 0), |r| (r.budget, splitmix64(r.jitter_seed)));
        Ok(Client {
            stream: Some(stream),
            addrs,
            config,
            stats: Arc::new(ClientStats::default()),
            budget_left,
            jitter,
            outstanding: Vec::new(),
        })
    }

    /// The client's resilience counters (shared; stays readable while
    /// calls are in flight).
    pub fn stats(&self) -> Arc<ClientStats> {
        Arc::clone(&self.stats)
    }

    /// Sends a request and waits for its reply, retrying and hedging
    /// per the client's [`ClientConfig`].
    pub fn call(&mut self, request: &Request) -> Result<Response, FrameError> {
        let max_attempts = self
            .config
            .retry
            .as_ref()
            .map_or(1, |r| r.max_attempts.max(1));
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = self.attempt(request);
            let retryable = match &result {
                Ok(Response::Overloaded) => true,
                Ok(_) => return result,
                // A dead/slow transport is worth a fresh connection; a
                // protocol violation (Malformed/Oversized) is not.
                Err(FrameError::Io(_) | FrameError::Truncated) => true,
                Err(_) => return result,
            };
            debug_assert!(retryable);
            if attempt >= max_attempts || self.budget_left == 0 {
                return result;
            }
            self.budget_left -= 1;
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            self.backoff(attempt);
        }
    }

    /// One try: plain exchange, or a hedged one if configured.
    fn attempt(&mut self, request: &Request) -> Result<Response, FrameError> {
        let payload = request.encode();
        match self.config.hedge_delay {
            Some(delay) => self.attempt_hedged(&payload, delay),
            None => {
                let mut stream = self.take_stream()?;
                let result = exchange(&mut stream, &payload);
                if result.is_ok() {
                    self.stream = Some(stream);
                }
                // On error the stream is dropped: the reply owed to this
                // request may still arrive, so the connection is tainted.
                result
            }
        }
    }

    /// Scheme-A hedging: the primary exchange runs on its own thread;
    /// if no reply lands within `delay`, a second copy of the request
    /// goes out on a fresh connection and the first reply wins. The
    /// losing connection is dropped, never reused — its reply is owed
    /// to a request nobody is waiting on. The loser's *thread* is not
    /// leaked: it lands in `outstanding` and is joined by [`Drop`]
    /// (bounded — every attempt runs under the config's socket
    /// timeouts), and its unconsumed result counts as `abandoned`.
    fn attempt_hedged(&mut self, payload: &[u8], delay: Duration) -> Result<Response, FrameError> {
        let mut stream = self.take_stream()?;
        let (tx, rx) = mpsc::channel::<(Option<TcpStream>, Result<Response, FrameError>)>();
        let primary = {
            let tx = tx.clone();
            let payload = payload.to_vec();
            std::thread::spawn(move || {
                let result = exchange(&mut stream, &payload);
                let stream = result.is_ok().then_some(stream);
                let _ = tx.send((stream, result));
            })
        };
        let mut attempts = vec![primary];
        let mut consumed = 0usize;
        let mut hedged = false;
        let first = match rx.recv_timeout(delay) {
            Ok(reply) => reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                hedged = true;
                self.stats.hedges.fetch_add(1, Ordering::Relaxed);
                self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                let addrs = self.addrs.clone();
                let config = self.config.clone();
                let payload = payload.to_vec();
                let tx = tx.clone();
                attempts.push(std::thread::spawn(move || {
                    let _ = match open_stream(&addrs, &config)
                        .map_err(FrameError::from)
                        .and_then(|mut s| exchange(&mut s, &payload).map(|r| (s, r)))
                    {
                        Ok((s, r)) => tx.send((Some(s), Ok(r))),
                        Err(e) => tx.send((None, Err(e))),
                    };
                }));
                // Both attempts are bounded by socket timeouts, so each
                // thread sends exactly once and this recv terminates.
                rx.recv().expect("at least one attempt reports")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                unreachable!("primary thread always sends before exiting")
            }
        };
        consumed += 1;
        drop(tx); // rx must see Disconnected once the attempts report
        let result = match first {
            (stream, Ok(reply)) => {
                // The winner's connection is clean (its reply was fully
                // read) and becomes the client's stream; the loser is
                // dropped when its thread finishes.
                self.stream = stream;
                Ok(reply)
            }
            (_, Err(first_err)) if hedged => {
                // First reporter failed; the other attempt may still
                // deliver.
                let second = rx.recv();
                consumed += 1;
                match second {
                    Ok((stream, Ok(reply))) => {
                        self.stream = stream;
                        Ok(reply)
                    }
                    Ok((_, Err(_))) | Err(_) => Err(first_err),
                }
            }
            (_, Err(first_err)) => Err(first_err),
        };
        self.stats
            .abandoned
            .fetch_add((attempts.len() - consumed) as u64, Ordering::Relaxed);
        self.reap(attempts);
        result
    }

    /// Tracks attempt threads: already-finished ones are joined on the
    /// spot (free), the rest wait in `outstanding` for the next reap or
    /// for [`Drop`].
    fn reap(&mut self, fresh: Vec<JoinHandle<()>>) {
        self.outstanding.extend(fresh);
        let mut i = 0;
        while i < self.outstanding.len() {
            if self.outstanding[i].is_finished() {
                let _ = self.outstanding.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
    }

    /// Hands out the live stream, reconnecting if the last attempt
    /// tainted it.
    fn take_stream(&mut self) -> Result<TcpStream, FrameError> {
        match self.stream.take() {
            Some(s) => Ok(s),
            None => {
                self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                open_stream(&self.addrs, &self.config).map_err(FrameError::from)
            }
        }
    }

    /// Exponential backoff with deterministic jitter before retry
    /// `attempt` (1-based: the first retry backs off `base_backoff`±).
    fn backoff(&mut self, attempt: u32) {
        let Some(policy) = &self.config.retry else {
            return;
        };
        let exp = policy
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(policy.max_backoff);
        // Jitter in [0, capped/2): de-synchronizes clients retrying
        // after a shared overload event.
        self.jitter = splitmix64(self.jitter);
        let jitter_us = if capped.is_zero() {
            0
        } else {
            self.jitter % (capped.as_micros() as u64 / 2).max(1)
        };
        std::thread::sleep(capped + Duration::from_micros(jitter_us));
    }

    /// Pipelining: writes one request frame without waiting for its
    /// reply. Pair with [`Client::recv`]; the daemon's reactor
    /// guarantees replies come back in request order. Raw mode — no
    /// retries, no hedging, no reconnect on error (a tainted stream
    /// would desynchronize the pipeline).
    pub fn send(&mut self, request: &Request) -> Result<(), FrameError> {
        let mut stream = self.take_stream()?;
        match write_frame(&mut stream, &request.encode()) {
            Ok(()) => {
                self.stream = Some(stream);
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Pipelining: reads the next reply frame. Replies arrive in the
    /// order their requests were [`Client::send`]-ed.
    pub fn recv(&mut self) -> Result<Response, FrameError> {
        let mut stream = self.take_stream()?;
        match read_frame(&mut stream) {
            Ok(Some(body)) => {
                self.stream = Some(stream);
                Response::decode(&body)
            }
            Ok(None) => Err(FrameError::Truncated),
            Err(e) => Err(e),
        }
    }

    /// Races `workload` with `arg` under `deadline_ms` (0 = unbounded).
    pub fn run(
        &mut self,
        workload: &str,
        arg: u64,
        deadline_ms: u32,
    ) -> Result<Response, FrameError> {
        self.call(&Request::Run {
            workload: workload.to_owned(),
            deadline_ms,
            arg,
        })
    }

    /// Fetches the human-readable stats page.
    pub fn stats_page(&mut self) -> Result<String, FrameError> {
        match self.call(&Request::Stats)? {
            Response::Text { body } => Ok(body),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches Prometheus text-format metrics.
    pub fn prometheus(&mut self) -> Result<String, FrameError> {
        match self.call(&Request::Prometheus)? {
            Response::Text { body } => Ok(body),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the per-peer link table: up/down, rtt EWMA, dispatch
    /// and reconnect counters for every configured peer.
    pub fn peer_stats(&mut self) -> Result<String, FrameError> {
        match self.call(&Request::PeerStats)? {
            Response::Text { body } => Ok(body),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches the workload catalog: every registered workload, its
    /// alternatives, and which one the scheduler currently favours.
    pub fn catalog_page(&mut self) -> Result<String, FrameError> {
        match self.call(&Request::Catalog)? {
            Response::Text { body } => Ok(body),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), FrameError> {
        match self.call(&Request::Shutdown)? {
            Response::Text { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

impl Drop for Client {
    /// Joins every abandoned hedge attempt. Bounded: each attempt runs
    /// under the config's connect/read/write timeouts, so the slowest
    /// possible join is one socket timeout away — no thread outlives
    /// the client unseen, and no reply socket lingers half-read.
    fn drop(&mut self) {
        for handle in self.outstanding.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One framed request/reply exchange on an open stream.
fn exchange(stream: &mut TcpStream, payload: &[u8]) -> Result<Response, FrameError> {
    write_frame(stream, payload)?;
    match read_frame(stream)? {
        Some(body) => Response::decode(&body),
        None => Err(FrameError::Truncated),
    }
}

/// Connects to the first reachable address with the config's timeouts.
fn open_stream(addrs: &[SocketAddr], config: &ClientConfig) -> io::Result<TcpStream> {
    let mut last_err = None;
    for addr in addrs {
        match TcpStream::connect_timeout(addr, config.connect_timeout) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(config.read_timeout)?;
                stream.set_write_timeout(config.write_timeout)?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err
        .unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses to try")))
}

fn unexpected(resp: Response) -> FrameError {
    let _ = resp;
    FrameError::Malformed("unexpected response kind")
}
