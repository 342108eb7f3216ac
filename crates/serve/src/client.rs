//! Blocking client for the daemon's framed protocol, with timeouts and
//! retries.
//!
//! The bare [`Client::connect`] is already defensive: every socket gets
//! connect/read/write timeouts so a dead or wedged daemon surfaces as a
//! timed-out [`FrameError::Io`] instead of a hang. Resilience beyond
//! that is opt-in via [`ClientConfig`]:
//!
//! * a [`RetryPolicy`] re-issues calls that failed *retryably* — an
//!   `Overloaded` shed or a transport error — with exponential backoff,
//!   deterministic jitter, and a per-client retry **budget** so a
//!   persistently sick server cannot trap the client in backoff forever.
//!
//! Every retry and reconnect is counted in [`ClientStats`] so load
//! generators can report how much resilience machinery actually fired.

use crate::frame::{
    append_frame, FrameDecoder, FrameError, Request, RequestOf, RequestRef, Response,
};
use altx_des::splitmix64;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Some(Duration::from_secs(10)),
            write_timeout: Some(Duration::from_secs(10)),
            retry: None,
        }
    }
}

/// Counters for how often the resilience machinery fired.
#[derive(Debug, Default)]
pub struct ClientStats {
    retries: AtomicU64,
    reconnects: AtomicU64,
}

impl ClientStats {
    /// Calls re-issued after a retryable failure.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Fresh connections opened after the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}

/// One connection to an `altxd` daemon. Requests are synchronous: one
/// outstanding request per connection, replies in order.
///
/// A request goes out as one write of its whole frame, and replies are
/// read through a buffered [`FrameDecoder`]: one `recv` normally takes a
/// reply's header and body together, and bytes beyond the reply — the
/// next pipelined one — wait in it for the next call. [`Client::call`],
/// [`Client::send`] and [`Client::recv`] share both buffers.
pub struct Client {
    stream: Option<TcpStream>,
    /// Bytes read from `stream` and not yet returned as a reply.
    decoder: FrameDecoder,
    /// The request frame being written, reused from request to request.
    out: Vec<u8>,
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    stats: Arc<ClientStats>,
    budget_left: u32,
    jitter: u64,
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
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            addrs,
            config,
            stats: Arc::new(ClientStats::default()),
            budget_left,
            jitter,
        })
    }

    /// The client's resilience counters (shared; stays readable while
    /// calls are in flight).
    pub fn stats(&self) -> Arc<ClientStats> {
        Arc::clone(&self.stats)
    }

    /// Sends a request and waits for its reply, retrying per the
    /// client's [`ClientConfig`].
    pub fn call(&mut self, request: &Request) -> Result<Response, FrameError> {
        self.call_with(request)
    }

    /// [`Client::call`] over a request of either string type.
    fn call_with(&mut self, request: &RequestOf<impl AsRef<str>>) -> Result<Response, FrameError> {
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

    /// One try on the live stream.
    fn attempt(&mut self, request: &RequestOf<impl AsRef<str>>) -> Result<Response, FrameError> {
        let mut stream = self.take_stream()?;
        let result = self
            .write_request(&mut stream, request)
            .and_then(|()| self.read_reply(&mut stream));
        if result.is_ok() {
            self.stream = Some(stream);
        }
        // On error the stream is dropped: the reply owed to this request
        // may still arrive, so the connection is tainted.
        result
    }

    /// Hands out the live stream, reconnecting if the last attempt
    /// tainted it — and dropping whatever the tainted one left buffered.
    fn take_stream(&mut self) -> Result<TcpStream, FrameError> {
        match self.stream.take() {
            Some(s) => Ok(s),
            None => {
                self.decoder = FrameDecoder::new();
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
    /// retries, no reconnect on error (a tainted stream
    /// would desynchronize the pipeline).
    pub fn send(&mut self, request: &Request) -> Result<(), FrameError> {
        let mut stream = self.take_stream()?;
        self.write_request(&mut stream, request)?;
        self.stream = Some(stream);
        Ok(())
    }

    /// Pipelining: reads the next reply frame. Replies arrive in the
    /// order their requests were [`Client::send`]-ed.
    pub fn recv(&mut self) -> Result<Response, FrameError> {
        let mut stream = self.take_stream()?;
        let result = self.read_reply(&mut stream);
        // A reply that does not decode was framed all the same: the
        // stream is still in step with its requests.
        if let Ok(_) | Err(FrameError::Malformed(_) | FrameError::UnknownOpcode(_)) = result {
            self.stream = Some(stream);
        }
        result
    }

    /// Writes `request` as one frame, in one write where the socket
    /// takes it whole.
    fn write_request(
        &mut self,
        stream: &mut TcpStream,
        request: &RequestOf<impl AsRef<str>>,
    ) -> Result<(), FrameError> {
        self.out.clear();
        append_frame(&mut self.out, |b| request.encode_into(b))?;
        stream.write_all(&self.out)?;
        Ok(())
    }

    /// The next reply: from the bytes already buffered if they hold
    /// one, else read for — each read takes whatever the socket has,
    /// the reply's header and body together when they came together.
    fn read_reply(&mut self, stream: &mut TcpStream) -> Result<Response, FrameError> {
        loop {
            if let Some(body) = self.decoder.next_frame_ref()? {
                return Response::decode(body);
            }
            match self.decoder.read_from(stream) {
                Ok((0, _)) => return Err(FrameError::Truncated),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Races `workload` with `arg` under `deadline_ms` (0 = unbounded).
    pub fn run(
        &mut self,
        workload: &str,
        arg: u64,
        deadline_ms: u32,
    ) -> Result<Response, FrameError> {
        self.call_with(&RequestRef::Run {
            workload,
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
