//! `layers` — per-layer numbers taken *inside* this process, by calling
//! the program's public entry points directly (the "measured surface"
//! in `benchmark/README.md`). Two kinds:
//!
//! * **batched loops**: K calls per clock pair, median of batches, for
//!   calls too short to time one by one;
//! * a **traced replay**: the seeded request streams pushed through the
//!   public functions in the order `server.rs` crosses them, a span
//!   around each, `serial` (one request at a time: stage self times) and
//!   `sched` (the `burst` arrival schedule: queue wait and busy share).
//!
//! Layer objects are built from `ServerConfig::default()`, so the replay
//! runs the configuration the daemon ships with. The process confines
//! itself to one CPU, as `e2e` confines the daemon it measures (see
//! `report::measure`), so that these numbers explain those; only the
//! 2-producer run-queue loop, which is about contention, gets every CPU.
//!
//! Prints `metric\t<name>\t<value>` lines; anything else is commentary.

use altx::engine::ThreadedEngine;
use altx::{AddressSpace, CancelToken, PageSize};
use altx_benchmark::gen::{self, Arrival};
use altx_benchmark::span::{chrome_trace_json, self_times, Span, Stage};
use altx_benchmark::stats::{median, percentile};
use altx_benchmark::sys::CpuSet;
use altx_benchmark::workloads;
use altx_consensus::{CandidateSpec, ConsensusConfig, ConsensusSim, SyncPoint};
use altx_des::SimTime;
use altx_serve::bufpool::BufPool;
use altx_serve::frame::{write_frame, FrameDecoder, Request, Response};
use altx_serve::pool::{JobMeta, PoolConfig, WorkerPool};
use altx_serve::ring::{EncodedReply, ReplyRing};
use altx_serve::sched::CatalogStats;
use altx_serve::server::ServerConfig;
use altx_serve::telemetry::ShardStats;
use altx_serve::workload::{self as catalog};
use altx_serve::{Admission, CommitLedger, HedgeConfig, HedgePolicy, Lanes, Telemetry, VoteTally};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The daemon sizing the end-to-end runs use.
const WORKERS: usize = 2;

fn emit(name: &str, value: f64) {
    println!("metric\t{name}\t{value}");
}

// ---------------------------------------------------------- batched loops

const BATCHES: usize = 15;

/// Median nanoseconds per call of `op`, over `BATCHES` batches of `k`
/// calls with one clock pair each. `setup` builds each batch's state
/// untimed (a fresh ledger, a vector of forks) and the state is dropped
/// untimed; the first batch only warms caches. `altx_bench::Micro` has
/// no untimed set-up, which the fault and vote paths need.
fn batched<S>(k: usize, mut setup: impl FnMut() -> S, mut op: impl FnMut(&mut S, usize)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for batch in 0..=BATCHES {
        let mut state = setup();
        let start = Instant::now();
        for i in 0..k {
            op(&mut state, i);
        }
        let ns = start.elapsed().as_nanos() as f64 / k as f64;
        if batch > 0 {
            per_call.push(ns);
        }
    }
    median(&per_call)
}

fn ok_reply() -> Response {
    Response::Ok {
        winner: 0,
        winner_name: "instant-a".to_owned(),
        latency_us: 97,
        value: 42,
    }
}

fn run_request(name: &str, deadline_ms: u32, arg: u64) -> Request {
    Request::Run {
        workload: name.to_owned(),
        deadline_ms,
        arg,
    }
}

fn bench_frame() {
    let req = run_request("trivial", 10, 42);
    let body = req.encode();
    emit(
        "frame.req_encode_ns",
        batched(
            4096,
            || (),
            |_, _| drop(black_box(black_box(&req).encode())),
        ),
    );
    emit(
        "frame.req_decode_ns",
        batched(
            4096,
            || (),
            |_, _| drop(black_box(Request::decode(black_box(&body)))),
        ),
    );
    // 64 pipelined frames arriving in one read.
    let mut wire = Vec::new();
    for _ in 0..64 {
        write_frame(&mut wire, &body).expect("write to Vec");
    }
    let per_burst = batched(
        64,
        || (FrameDecoder::new(), Vec::with_capacity(64)),
        |(decoder, frame), _| {
            decoder.extend(black_box(&wire));
            loop {
                frame.clear();
                if !decoder.next_frame_into(frame).expect("well-formed frames") {
                    break;
                }
                drop(black_box(Request::decode(frame)));
            }
        },
    );
    emit("frame.req_decode_burst_ns", per_burst / 64.0);
    let resp = ok_reply();
    let resp_body = resp.encode();
    emit(
        "frame.resp_encode_ns",
        batched(
            4096,
            || Vec::with_capacity(64),
            |buf, _| {
                buf.clear();
                black_box(&resp).encode_into(buf);
                black_box(&buf);
            },
        ),
    );
    emit(
        "frame.resp_decode_ns",
        batched(
            4096,
            || (),
            |_, _| drop(black_box(Response::decode(black_box(&resp_body)))),
        ),
    );
}

fn bench_ring(cfg: &ServerConfig) {
    let resp = ok_reply();
    let ring = ReplyRing::new(cfg.ring_slots, cfg.ring_slot_bytes);
    emit(
        "ring.encode_hit_ns",
        batched(
            4096,
            || (),
            |_, _| drop(black_box(EncodedReply::encode(&resp, &ring))),
        ),
    );
    // Every slot held: the reply spills to the buffer pool and comes back.
    let full = ReplyRing::new(4, cfg.ring_slot_bytes);
    let held: Vec<EncodedReply> = (0..4).map(|_| EncodedReply::encode(&resp, &full)).collect();
    emit(
        "ring.encode_spill_ns",
        batched(
            4096,
            || {
                let mut pool = BufPool::default();
                pool.warm();
                pool
            },
            |pool, _| EncodedReply::encode_with(&resp, &full, pool).recycle(pool),
        ),
    );
    drop(held);
    emit(
        "bufpool.get_put_ns",
        batched(
            4096,
            || {
                let mut pool = BufPool::default();
                pool.warm();
                pool
            },
            |pool, _| {
                let buf = black_box(pool.get());
                pool.put(buf);
            },
        ),
    );
}

fn bench_sched(cfg: &ServerConfig) {
    let stats = Arc::new(CatalogStats::new());
    for i in 0..64 {
        stats.record_service(0, 90 + i);
    }
    let gate = Admission::new(true, Arc::clone(&stats));
    emit(
        "sched.admit_ns",
        batched(
            4096,
            || (),
            |_, i| {
                black_box(gate.admit(0, 10, black_box(i % 8), WORKERS));
            },
        ),
    );
    let shipped = HedgePolicy::new(cfg.hedge);
    emit(
        "sched.plan_ns",
        batched(
            4096,
            || (),
            |_, _| drop(black_box(shipped.plan_pruned(0, 2))),
        ),
    );
    let hedged = HedgePolicy::new(HedgeConfig {
        enabled: true,
        ..HedgeConfig::default()
    });
    for i in 0..256u64 {
        hedged.record_win(0, usize::from(i % 4 == 0), 90 + i % 32);
    }
    emit(
        "sched.plan_hedged_ns",
        batched(
            4096,
            || (),
            |_, _| drop(black_box(hedged.plan_pruned(0, 2))),
        ),
    );
    emit(
        "sched.record_ns",
        batched(
            4096,
            || (),
            |_, i| {
                shipped.record_service(0, 100);
                shipped.record_win(0, i & 1, 100);
            },
        ),
    );
}

fn shipped_pool(cfg: &ServerConfig) -> WorkerPool {
    // What `server::start` builds for `--workers 2 --shards 1`.
    WorkerPool::with_config(PoolConfig {
        workers: WORKERS,
        queue_depth: cfg.queue_depth,
        groups: 1,
        lanes: cfg.lanes.count(),
        steal: cfg.steal,
        lane_aging: cfg.lane_aging,
        spin: cfg.spin,
        pin_cores: None,
    })
}

/// Nanoseconds per no-op job through the run queue with `producers`
/// threads submitting as fast as the bounded queue admits, so the queue
/// stays deep and every pop contends with pushes.
fn pool_job_ns(cfg: &ServerConfig, producers: usize, mixed_deadlines: bool) -> f64 {
    const JOBS: usize = 20_000;
    let mut runs = Vec::new();
    for _ in 0..5 {
        let pool = shipped_pool(cfg);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..producers {
                scope.spawn(|| {
                    for i in 0..JOBS / producers {
                        let meta = if mixed_deadlines && i % 2 == 0 {
                            JobMeta::for_request(1 + (i % 7) as u32, 0, 0)
                        } else {
                            JobMeta::default()
                        };
                        while pool.try_submit_at(Box::new(|| ()), meta).is_err() {
                            std::hint::spin_loop();
                        }
                    }
                });
            }
        });
        // Shutdown returns once every admitted job has run.
        pool.shutdown();
        runs.push(start.elapsed().as_nanos() as f64 / JOBS as f64);
    }
    median(&runs)
}

fn bench_pool(cfg: &ServerConfig, all_cpus: &CpuSet, one_cpu: &CpuSet) {
    // Idle pool: submit to the job's first instruction.
    let pool = shipped_pool(cfg);
    let (tx, rx) = mpsc::channel();
    let mut wakes = Vec::new();
    for _ in 0..400 {
        // Long enough for the worker to finish spinning and park.
        std::thread::sleep(Duration::from_micros(300));
        let tx = tx.clone();
        let submitted = Instant::now();
        pool.try_submit_notify_at(
            Box::new(move || {
                let _ = tx.send(submitted.elapsed());
            }),
            Box::new(|| ()),
            JobMeta::default(),
        )
        .expect("idle pool admits");
        wakes.push(rx.recv().expect("job ran").as_nanos() as f64 / 1_000.0);
    }
    pool.shutdown();
    emit("pool.wake_us", median(&wakes));
    emit("pool.job_ns", pool_job_ns(cfg, 1, false));
    emit("pool.edf_job_ns", pool_job_ns(cfg, 1, true));
    // Contention needs the producers and workers truly in parallel; the
    // threads of this run are spawned under the widened mask.
    all_cpus.apply().expect("widen CPU affinity");
    emit("pool.job_2p_ns", pool_job_ns(cfg, 2, false));
    one_cpu.apply().expect("narrow CPU affinity");
}

fn bench_pager() {
    let zeroed = || AddressSpace::zeroed(4096, PageSize::K4);
    emit(
        "pager.zeroed_ns",
        batched(4096, || (), |_, _| drop(black_box(zeroed()))),
    );
    let base = zeroed();
    emit(
        "pager.cow_fork_ns",
        batched(4096, || (), |_, _| drop(black_box(base.cow_fork()))),
    );
    let forks = |k: usize| (0..k).map(|_| base.cow_fork()).collect::<Vec<_>>();
    emit(
        "pager.write_fault_ns",
        batched(
            1024,
            || forks(1024),
            |forks, i| {
                black_box(forks[i].write(0, &[1]));
            },
        ),
    );
    emit(
        "pager.absorb_ns",
        batched(
            1024,
            || {
                let mut written = forks(1024);
                for f in &mut written {
                    f.write(0, &[1]);
                }
                (zeroed(), written)
            },
            |(parent, written), _| parent.absorb(written.pop().expect("one fork per call")),
        ),
    );
}

fn bench_telemetry(cfg: &ServerConfig) {
    let telemetry = Telemetry::new();
    let pool = shipped_pool(cfg);
    telemetry.attach_pool(pool.stats());
    telemetry.attach_catalog(Arc::new(CatalogStats::new()));
    telemetry.attach_lane_names(cfg.lanes.names().to_vec());
    let ring = ReplyRing::new(cfg.ring_slots, cfg.ring_slot_bytes);
    telemetry.attach_shards(vec![Arc::new(ShardStats::new(
        BufPool::default().stats(),
        ring.stats(),
    ))]);
    emit(
        "telemetry.on_completed_ns",
        batched(
            4096,
            || (),
            |_, i| telemetry.on_completed(90 + (i % 64) as u64),
        ),
    );
    emit(
        "telemetry.render_stats_us",
        batched(64, || (), |_, _| drop(black_box(telemetry.render_stats()))) / 1_000.0,
    );
    emit(
        "telemetry.render_prom_us",
        batched(
            64,
            || (),
            |_, _| drop(black_box(telemetry.render_prometheus())),
        ) / 1_000.0,
    );
    pool.shutdown();
}

fn bench_commit() {
    const ORIGIN: &str = "127.0.0.1:7171";
    emit(
        "commit.vote_ns",
        batched(1024, CommitLedger::new, |ledger, i| {
            black_box(ledger.vote(ORIGIN, i as u64, "127.0.0.1:7171/alt0"));
        }),
    );
    emit(
        "commit.revote_ns",
        batched(
            1024,
            || {
                let ledger = CommitLedger::new();
                for i in 0..1024 {
                    ledger.vote(ORIGIN, i, "127.0.0.1:7171/alt0");
                }
                ledger
            },
            |ledger, i| {
                black_box(ledger.vote(ORIGIN, i as u64, "127.0.0.1:7272/alt1"));
            },
        ),
    );
    emit(
        "commit.tally3_ns",
        batched(
            4096,
            || (),
            |_, _| {
                let mut tally = VoteTally::new(black_box(3), true);
                tally.grant();
                black_box(tally.state());
            },
        ),
    );
    emit(
        "consensus.claim_ns",
        batched(
            4096,
            || (0..4096).map(|_| SyncPoint::new()).collect::<Vec<_>>(),
            |points, i| {
                black_box(points[i].try_claim(i as u64));
            },
        ),
    );
    let config = ConsensusConfig::simple(
        3,
        vec![
            CandidateSpec::new(1, SimTime::ZERO),
            CandidateSpec::new(2, SimTime::ZERO),
        ],
    );
    emit(
        "consensus.sim3_us",
        batched(
            32,
            || (),
            |_, _| drop(black_box(ConsensusSim::new(config.clone()).run())),
        ) / 1_000.0,
    );
}

/// The kernel floor under every end-to-end latency: frames the size of
/// a `trivial` request and reply, echoed over an in-process loopback
/// `TcpStream` pair.
fn bench_loopback() -> std::io::Result<()> {
    let mut request = Vec::new();
    write_frame(&mut request, &run_request("trivial", 0, 42).encode())?;
    let mut reply = Vec::new();
    write_frame(&mut reply, &ok_reply().encode())?;
    let (req_len, reply_len) = (request.len(), reply.len());

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    client.set_nodelay(true)?;
    let (mut server, _) = listener.accept()?;
    server.set_nodelay(true)?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let mut buf = vec![0u8; req_len];
        // Ends when the client hangs up.
        while server.read_exact(&mut buf).is_ok() {
            server.write_all(&reply)?;
        }
        Ok(())
    });
    let mut buf = vec![0u8; reply_len];
    let mut rtts = Vec::with_capacity(3_000);
    for i in 0..3_500 {
        let start = Instant::now();
        client.write_all(&request)?;
        client.read_exact(&mut buf)?;
        if i >= 500 {
            rtts.push(start.elapsed().as_nanos() as f64 / 1_000.0);
        }
    }
    drop(client);
    echo.join().expect("echo thread")?;
    emit("loopback.rtt_us", median(&rtts));
    Ok(())
}

// ---------------------------------------------------------- traced replay

const REQUEST: u8 = 0;
const REQ_ENCODE: u8 = 1;
const REQ_DECODE: u8 = 2;
const ADMIT: u8 = 3;
const QUEUE: u8 = 4;
const JOB: u8 = 5;
const PLAN: u8 = 6;
const BUILD: u8 = 7;
const ZEROED: u8 = 8;
const EXECUTE: u8 = 9;
const RECORD: u8 = 10;
const RING_ENCODE: u8 = 11;
const NOTIFY: u8 = 12;
const RESP_DECODE: u8 = 13;

/// The pipeline in the order `server.rs` and `reactor.rs` cross it.
/// `pool.queue` is submit → the job's first instruction; `pool.job` is
/// the worker's whole turn (race plus the completion notifier, which is
/// where the reactor's `post` encodes into the ring); `pool.notify` is
/// notifier end → the submitting thread sees the completion (the
/// stand-in for the self-pipe wake).
const STAGES: &[Stage] = &[
    Stage {
        name: "request",
        parent: None,
    },
    Stage {
        name: "frame.req_encode",
        parent: Some(REQUEST),
    },
    Stage {
        name: "frame.req_decode",
        parent: Some(REQUEST),
    },
    Stage {
        name: "sched.admit",
        parent: Some(REQUEST),
    },
    Stage {
        name: "pool.queue",
        parent: Some(REQUEST),
    },
    Stage {
        name: "pool.job",
        parent: Some(REQUEST),
    },
    Stage {
        name: "sched.plan",
        parent: Some(JOB),
    },
    Stage {
        name: "workload.build",
        parent: Some(JOB),
    },
    Stage {
        name: "pager.zeroed",
        parent: Some(JOB),
    },
    Stage {
        name: "engine.execute",
        parent: Some(JOB),
    },
    Stage {
        name: "sched.record",
        parent: Some(JOB),
    },
    Stage {
        name: "ring.encode",
        parent: Some(JOB),
    },
    Stage {
        name: "pool.notify",
        parent: Some(REQUEST),
    },
    Stage {
        name: "frame.resp_decode",
        parent: Some(REQUEST),
    },
];

/// Span recorder. With `on == false` only the root span is kept, which
/// is what `trace.overhead_share` compares against.
#[derive(Clone, Copy)]
struct Tracer {
    on: bool,
    epoch: Instant,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn span<T>(&self, out: &mut Vec<Span>, req: u32, stage: u8, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let value = f();
        out.push(Span {
            req,
            stage,
            tid: tid(),
            start_ns,
            end_ns: self.now(),
        });
        value
    }
}

/// A small dense id per recording thread (main is 0).
fn tid() -> u8 {
    static NEXT: AtomicU8 = AtomicU8::new(0);
    thread_local! {
        static TID: u8 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// One shard of the daemon, rebuilt from its public parts as
/// `server::start` builds them: the layer objects, plus the state the
/// reactor thread keeps (frame decoder, completion queue) and the spans
/// recorded so far.
struct Shard {
    pool: WorkerPool,
    sched: Arc<HedgePolicy>,
    admission: Admission,
    lanes: Lanes,
    telemetry: Arc<Telemetry>,
    ring: ReplyRing,
    decoder: FrameDecoder,
    done: mpsc::Sender<Completion>,
    completions: mpsc::Receiver<Completion>,
    tracer: Tracer,
    spans: Vec<Span>,
}

/// What a worker hands back: the encoded reply and the spans it took.
struct Completion {
    req: u32,
    reply: EncodedReply,
    spans: Vec<Span>,
    notified_ns: u64,
}

/// One admitted request, as the worker sees it.
#[derive(Clone, Copy)]
struct Race {
    req: u32,
    widx: usize,
    deadline_ms: u32,
    arg: u64,
}

/// The race as `server::run_race` runs it (that function is private to
/// the crate, so its public steps are called in its order).
fn run_race(
    sched: &HedgePolicy,
    telemetry: &Telemetry,
    tracer: Tracer,
    spans: &mut Vec<Span>,
    race: Race,
) -> Response {
    let Race {
        req,
        widx,
        deadline_ms,
        arg,
    } = race;
    let spec = &catalog::CATALOG[widx];
    let (plan, prune) = tracer.span(spans, req, PLAN, || {
        sched.plan_pruned(widx, spec.alternatives())
    });
    let block = tracer.span(spans, req, BUILD, || {
        catalog::build_pruned(spec.name, arg, prune.as_deref()).expect("catalog entry builds")
    });
    let token = if deadline_ms > 0 {
        CancelToken::with_deadline(Duration::from_millis(u64::from(deadline_ms)))
    } else {
        CancelToken::new()
    };
    let mut workspace = tracer.span(spans, req, ZEROED, || {
        AddressSpace::zeroed(4096, PageSize::K4)
    });
    let started = Instant::now();
    let result = tracer.span(spans, req, EXECUTE, || {
        ThreadedEngine::new().execute_planned(&block, &mut workspace, &token, &plan)
    });
    let latency_us = started.elapsed().as_micros() as u64;
    tracer.span(spans, req, RECORD, || {
        sched.record_service(widx, latency_us);
        telemetry.on_launches_suppressed(result.suppressed as u64);
        match (result.winner, result.value) {
            (Some(w), Some(value)) => {
                telemetry.on_completed(latency_us);
                sched.record_win(widx, w, latency_us);
                Response::Ok {
                    winner: w as u32,
                    winner_name: result.winner_name.clone().unwrap_or_default(),
                    latency_us,
                    value,
                }
            }
            _ if token.deadline_expired() => {
                telemetry.on_deadline_exceeded();
                Response::DeadlineExceeded { latency_us }
            }
            _ => {
                telemetry.on_error();
                Response::Error {
                    message: "no alternative succeeded".to_owned(),
                }
            }
        }
    })
}

impl Shard {
    fn new(cfg: &ServerConfig, tracer: Tracer, expected_requests: usize) -> Shard {
        let sched = Arc::new(HedgePolicy::new(cfg.hedge));
        let telemetry = Arc::new(Telemetry::new());
        telemetry.attach_catalog(Arc::clone(sched.catalog()));
        let (done, completions) = mpsc::channel();
        Shard {
            pool: shipped_pool(cfg),
            admission: Admission::new(cfg.admission, Arc::clone(sched.catalog())),
            sched,
            lanes: cfg.lanes.clone(),
            telemetry,
            ring: ReplyRing::new(cfg.ring_slots, cfg.ring_slot_bytes),
            decoder: FrameDecoder::new(),
            done,
            completions,
            tracer,
            spans: Vec::with_capacity(expected_requests * STAGES.len()),
        }
    }

    /// The reactor's side of one request up to the hand-off to the
    /// pool. Returns `false` when the request was shed.
    fn submit(&mut self, req: u32, class: &workloads::Class, arg: u64) -> bool {
        let tracer = self.tracer;
        let wire = tracer.span(&mut self.spans, req, REQ_ENCODE, || {
            let mut wire = Vec::new();
            let body = run_request(class.catalog, class.deadline_ms, arg).encode();
            write_frame(&mut wire, &body).expect("write to Vec");
            wire
        });
        let decoder = &mut self.decoder;
        let decoded = tracer.span(&mut self.spans, req, REQ_DECODE, || {
            decoder.extend(&wire);
            let body = decoder
                .next_frame()
                .expect("well-formed frame")
                .expect("whole frame");
            Request::decode(&body).expect("well-formed request")
        });
        let Request::Run {
            workload,
            deadline_ms,
            arg,
        } = decoded
        else {
            unreachable!("a RUN frame was encoded");
        };
        let widx = catalog::index_of(&workload).expect("catalog workload");
        let (admission, pool) = (&self.admission, &self.pool);
        let admitted = tracer.span(&mut self.spans, req, ADMIT, || {
            admission.admit(widx, deadline_ms, pool.queued(), pool.workers())
        });
        if !admitted {
            return false;
        }
        // As in the reactor: the job leaves its reply in a slot and the
        // pool's exactly-once notifier posts it.
        type Slot = Arc<Mutex<Option<(Response, Vec<Span>, u64)>>>;
        let slot: Slot = Arc::new(Mutex::new(None));
        let submitted_ns = tracer.now();
        let job = {
            let slot = Arc::clone(&slot);
            let sched = Arc::clone(&self.sched);
            let telemetry = Arc::clone(&self.telemetry);
            Box::new(move || {
                let started_ns = tracer.now();
                let mut spans = Vec::with_capacity(8);
                if tracer.on {
                    spans.push(Span {
                        req,
                        stage: QUEUE,
                        tid: tid(),
                        start_ns: submitted_ns,
                        end_ns: started_ns,
                    });
                }
                let race = Race {
                    req,
                    widx,
                    deadline_ms,
                    arg,
                };
                let reply = run_race(&sched, &telemetry, tracer, &mut spans, race);
                *slot.lock().expect("slot") = Some((reply, spans, started_ns));
            })
        };
        let notify = {
            let ring = self.ring.clone();
            let done = self.done.clone();
            Box::new(move || {
                let (reply, mut spans, started_ns) =
                    slot.lock().expect("slot").take().expect("the job ran");
                let reply = tracer.span(&mut spans, req, RING_ENCODE, || {
                    EncodedReply::encode(&reply, &ring)
                });
                let notified_ns = tracer.now();
                if tracer.on {
                    spans.push(Span {
                        req,
                        stage: JOB,
                        tid: tid(),
                        start_ns: started_ns,
                        end_ns: notified_ns,
                    });
                }
                let _ = done.send(Completion {
                    req,
                    reply,
                    spans,
                    notified_ns,
                });
            })
        };
        let meta = JobMeta::for_request(deadline_ms, self.lanes.lane_of(widx), 0);
        self.pool.try_submit_notify_at(job, notify, meta).is_ok()
    }

    /// The reactor's side of one completion; closes the request's root
    /// span, which began at `root_start_ns`.
    fn complete(&mut self, c: Completion, root_start_ns: u64) {
        let tracer = self.tracer;
        if tracer.on {
            self.spans.push(Span {
                req: c.req,
                stage: NOTIFY,
                tid: tid(),
                start_ns: c.notified_ns,
                end_ns: tracer.now(),
            });
        }
        self.spans.extend(c.spans);
        tracer.span(&mut self.spans, c.req, RESP_DECODE, || {
            drop(black_box(Response::decode(&c.reply.bytes()[4..])));
        });
        drop(c.reply); // returns the ring slot, as the socket write's end does
        self.spans.push(Span {
            req: c.req,
            stage: REQUEST,
            tid: tid(),
            start_ns: root_start_ns,
            end_ns: tracer.now(),
        });
    }

    /// Joins the pool and gives up the spans.
    fn finish(self) -> Vec<Span> {
        self.pool.shutdown();
        self.spans
    }
}

/// One request at a time through a fresh shard: the requests of `args`
/// in order, or as many as fit in `slice`. Request ids start at
/// `first_req`.
fn replay_serial(
    cfg: &ServerConfig,
    tracer: Tracer,
    class: &workloads::Class,
    args: &[u64],
    slice: Duration,
    first_req: u32,
) -> Vec<Span> {
    let mut shard = Shard::new(cfg, tracer, args.len());
    let begun = Instant::now();
    for (i, &arg) in args.iter().enumerate() {
        if begun.elapsed() > slice {
            break;
        }
        let root_start_ns = tracer.now();
        if shard.submit(first_req + i as u32, class, arg) {
            let c = shard.completions.recv().expect("admitted jobs complete");
            shard.complete(c, root_start_ns);
        }
    }
    shard.finish()
}

/// The `burst` schedule in real time through a fresh shard; returns the
/// spans, the wall time and how many requests the pool refused.
fn replay_sched(
    cfg: &ServerConfig,
    tracer: Tracer,
    classes: &[workloads::Class],
    schedule: &[Arrival],
    first_req: u32,
) -> (Vec<Span>, Duration, usize) {
    let mut shard = Shard::new(cfg, tracer, schedule.len());
    let mut root_starts = vec![0u64; schedule.len()];
    let (mut owed, mut shed) = (0usize, 0usize);
    let begun = Instant::now();
    for (i, a) in schedule.iter().enumerate() {
        // Serve completions until this arrival is due.
        loop {
            let wait = Duration::from_nanos(a.at_ns).saturating_sub(begun.elapsed());
            if wait.is_zero() {
                break;
            }
            if let Ok(c) = shard.completions.recv_timeout(wait) {
                let start = root_starts[(c.req - first_req) as usize];
                shard.complete(c, start);
                owed -= 1;
            }
        }
        root_starts[i] = tracer.now();
        if shard.submit(first_req + i as u32, &classes[a.class], a.arg) {
            owed += 1;
        } else {
            shed += 1;
        }
    }
    while owed > 0 {
        let c = shard.completions.recv().expect("admitted jobs complete");
        let start = root_starts[(c.req - first_req) as usize];
        shard.complete(c, start);
        owed -= 1;
    }
    let wall = begun.elapsed();
    (shard.finish(), wall, shed)
}

fn durations_us(spans: &[Span], stage: u8) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.dur_ns() as f64 / 1_000.0)
        .collect()
}

/// Σ over stages of the median self time, over the median root span.
fn stage_sum_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans, STAGES);
    let sum: f64 = (0..STAGES.len() as u8)
        .map(|stage| {
            let of_stage: Vec<f64> = selfs
                .iter()
                .filter(|(s, _)| *s == stage)
                .map(|(_, ns)| *ns as f64)
                .collect();
            median(&of_stage)
        })
        .sum();
    sum / (median(&durations_us(spans, REQUEST)) * 1_000.0)
}

/// Every alternative of `catalog_name` run alone on each of `args`, as
/// many as fit in `slice`: per argument, each alternative's solo time (µs).
fn solo_times(catalog_name: &str, args: &[u64], slice: Duration) -> Vec<Vec<f64>> {
    let begun = Instant::now();
    let mut all = Vec::new();
    for &arg in args {
        if begun.elapsed() > slice {
            break;
        }
        let block = catalog::build(catalog_name, arg).expect("catalog entry builds");
        let times = block
            .alternatives()
            .iter()
            .map(|alt| {
                let mut ws = AddressSpace::zeroed(4096, PageSize::K4);
                let start = Instant::now();
                black_box(alt.run(&mut ws, &CancelToken::new()));
                start.elapsed().as_nanos() as f64 / 1_000.0
            })
            .collect();
        all.push(times);
    }
    all
}

// ------------------------------------------------------------------ main

/// Requests of each catalog stream the serial replay pushes through.
const REPLAY_REQUESTS: usize = 2_000;
/// Requests per stream kept in `trace.json` (all of them feed the metrics).
const TRACE_REQUESTS: u32 = 300;

fn main() {
    let mut seed = 1u64;
    let mut seconds = 27.0f64;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = value.parse().expect("--seed N"),
            "--seconds" => seconds = value.parse().expect("--seconds S"),
            "--trace-out" => trace_out = Some(std::path::PathBuf::from(value)),
            other => panic!("unknown argument {other}"),
        }
    }
    let cfg = ServerConfig::default();
    let all_cpus = CpuSet::current().expect("read CPU affinity");
    let (cpu, one_cpu) = all_cpus.first_only().expect("a CPU to run on");
    println!(
        "layers: seed {seed}, budget {seconds:.1} s, {} hardware threads, confined to CPU {cpu}, \
         loopback only",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    one_cpu.apply().expect("narrow CPU affinity");

    bench_frame();
    bench_ring(&cfg);
    bench_sched(&cfg);
    bench_pool(&cfg, &all_cpus, &one_cpu);
    bench_pager();
    bench_telemetry(&cfg);
    bench_commit();
    bench_loopback().expect("loopback echo");

    // The replay splits what the budget leaves after the batched loops
    // (about 3 s) by these shares: (stream, raced share, solo share).
    let replay_s = (seconds - 3.0).max(4.0);
    let slice = |share: f64| Duration::from_secs_f64(replay_s * share);
    let class_of =
        |workload: &str, class: usize| workloads::by_name(workload).expect("named").classes[class];
    let streams = [
        (class_of("overhead", 0), 0.05, 0.03),
        (class_of("race", 0), 0.17, 0.17),
        (class_of("burst", 1), 0.12, 0.12),
        (class_of("cpu", 0), 0.08, 0.04),
    ];
    let on = Tracer {
        on: true,
        epoch: Instant::now(),
    };
    let mut trace = Vec::new();
    let mut worst_sum_share = 1.0f64;
    for (i, (class, raced_share, solo_share)) in streams.iter().enumerate() {
        let name = class.catalog;
        let args: Vec<u64> = gen::arg_stream(seed, i as u64)
            .take(REPLAY_REQUESTS)
            .collect();
        let first_req = (i * REPLAY_REQUESTS) as u32;
        let spans = replay_serial(&cfg, on, class, &args, slice(*raced_share), first_req);
        let raced = durations_us(&spans, EXECUTE);
        emit(
            &format!("trace.pipeline_p50_us.{name}"),
            median(&durations_us(&spans, REQUEST)),
        );
        emit(&format!("engine.race_us.{name}"), median(&raced));
        if name != "bimodal" {
            emit(
                &format!("workload.build_ns.{name}"),
                median(&durations_us(&spans, BUILD)) * 1_000.0,
            );
        }
        let sum_share = stage_sum_share(&spans);
        println!(
            "layers: {name}: {} requests replayed, stage sum share {sum_share:.4}",
            raced.len()
        );
        if (sum_share - 1.0).abs() > (worst_sum_share - 1.0).abs() {
            worst_sum_share = sum_share;
        }

        // The paper's terms, on the arguments both runs saw: τ(overhead) =
        // raced wall − the fastest alternative alone; PI = mean solo time
        // over all alternatives / mean raced wall.
        let solo = solo_times(name, &args[..raced.len()], slice(*solo_share));
        let best: Vec<f64> = solo
            .iter()
            .map(|t| t.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let mean: Vec<f64> = solo
            .iter()
            .map(|t| t.iter().sum::<f64>() / t.len() as f64)
            .collect();
        let overhead: Vec<f64> = best.iter().zip(&raced).map(|(b, r)| r - b).collect();
        let n = solo.len().max(1) as f64;
        let mean_solo = mean.iter().sum::<f64>() / n;
        let mean_raced = raced[..solo.len()].iter().sum::<f64>() / n;
        emit(&format!("engine.overhead_us.{name}"), median(&overhead));
        emit(&format!("engine.pi.{name}"), mean_solo / mean_raced);
        println!(
            "layers: {name}: PI {:.3} = mean solo {mean_solo:.1} us / mean raced {mean_raced:.1} us \
             over {} arguments",
            mean_solo / mean_raced,
            solo.len()
        );
        if name != "bimodal" {
            emit(&format!("workload.solo_best_us.{name}"), median(&best));
            emit(&format!("workload.solo_mean_us.{name}"), median(&mean));
        }

        if name == "trivial" {
            // Tracing cost: the same stream with only the root span kept.
            let off = Tracer { on: false, ..on };
            let bare = replay_serial(&cfg, off, class, &args, slice(*raced_share), first_req);
            let with = median(&durations_us(&spans, REQUEST));
            let without = median(&durations_us(&bare, REQUEST));
            emit("trace.overhead_share", (with - without) / without);
            println!("layers: root span p50 {with:.2} us traced, {without:.2} us untraced");
        }
        trace.extend(
            spans
                .into_iter()
                .filter(|s| s.req < first_req + TRACE_REQUESTS),
        );
    }
    emit("trace.stage_sum_share", worst_sum_share);

    // `sched`: the head of `burst`'s schedule in real time.
    let burst = workloads::by_name("burst").expect("named");
    let schedule = gen::poisson_schedule(seed, 0, burst.classes, slice(0.2).as_nanos() as u64);
    let first_req = (streams.len() * REPLAY_REQUESTS) as u32;
    let (spans, wall, shed) = replay_sched(&cfg, on, burst.classes, &schedule, first_req);
    let mut waits: Vec<u64> = spans
        .iter()
        .filter(|s| s.stage == QUEUE)
        .map(|s| s.dur_ns() / 1_000)
        .collect();
    waits.sort_unstable();
    let busy_ns: u64 = spans
        .iter()
        .filter(|s| s.stage == JOB)
        .map(Span::dur_ns)
        .sum();
    emit("pool.queue_wait_p50_us", percentile(&waits, 0.50) as f64);
    emit("pool.queue_wait_p99_us", percentile(&waits, 0.99) as f64);
    emit(
        "pool.busy_share",
        busy_ns as f64 / (wall.as_nanos() as f64 * WORKERS as f64),
    );
    println!(
        "layers: sched replay: {} arrivals in {:.2} s, {shed} shed",
        schedule.len(),
        wall.as_secs_f64()
    );
    trace.extend(
        spans
            .into_iter()
            .filter(|s| s.req < first_req + TRACE_REQUESTS),
    );

    if let Some(path) = trace_out {
        let json = chrome_trace_json(&trace, STAGES, "replay");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("layers: wrote {} spans to {}", trace.len(), path.display());
    }
}
