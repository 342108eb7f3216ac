//! Local-vs-remote placement for race alternatives.
//!
//! The paper ships an alternative to another machine only when the
//! remote fork pays for itself (§4.4): predicted transfer + remote
//! execution must beat waiting for a local slot. `altx-cluster` carries
//! that cost model ([`RemoteForkModel`] over a [`NetworkModel`]); here
//! it is fed with **live** observations instead of 1989 calibration —
//! the measured per-peer round-trip EWMA stands in for the network
//! latency, the request frame stands in for the checkpoint image (the
//! daemon re-executes a registered workload by name, so the "image" is
//! a few dozen bytes, not a 70 KB process), and the local queueing
//! estimate comes from the worker pool's depth and the scheduler's
//! per-alternative latency EWMAs ([`AltStatsTable`] via
//! [`CatalogStats`]).
//!
//! The favourite alternative always runs locally — shipping the likely
//! winner would put the common case behind the network. Everything else
//! is shipped when the model says remote dispatch wins, plus one forced
//! exploration dispatch every `explore_every` races so the rtt EWMAs
//! and remote win statistics stay live even when the model says local
//! (the same reasoning as the hedge scheduler's exploration floor).
//!
//! [`AltStatsTable`]: altx::stats::AltStatsTable

use crate::peer::PeerLoad;
use crate::sched::CatalogStats;
use crate::workload;
use altx_cluster::{NetworkModel, RemoteForkModel};
use altx_des::SimDuration;
use std::sync::atomic::{AtomicU64, Ordering};

/// Assumed wire bandwidth for the live model, bytes/second. Loopback
/// and modern LANs move the daemon's tiny frames in well under the
/// latency term, so this only has to be "not 1989".
const LIVE_BANDWIDTH: u64 = 125_000_000; // ~1 Gb/s

/// Fallback execution estimate (µs) for alternatives with no history.
const COLD_EXEC_US: f64 = 1_000.0;

/// Placement policy state: the exploration tick counter plus the knobs.
#[derive(Debug)]
pub(crate) struct Placement {
    /// Force one remote dispatch every N races (0 disables exploration).
    explore_every: u64,
    ticks: AtomicU64,
}

impl Placement {
    pub(crate) fn new(explore_every: u64) -> Self {
        Placement {
            explore_every,
            ticks: AtomicU64::new(0),
        }
    }

    /// The live rfork model for a peer whose measured round trip is
    /// `rtt_us`: one control round trip of the dispatch protocol, no
    /// checkpoint/restore streaming cost beyond moving the frame.
    fn live_model(rtt_us: u64) -> RemoteForkModel {
        RemoteForkModel {
            // The "image" is the EXEC_ALT frame; rates high enough that
            // the latency term dominates, as it does on a real LAN.
            checkpoint_rate: LIVE_BANDWIDTH,
            restore_rate: LIVE_BANDWIDTH,
            fixed: SimDuration::ZERO,
            control_rtts: 1,
            network: NetworkModel {
                latency: SimDuration::from_micros(rtt_us.div_ceil(2).max(1)),
                bandwidth_bytes_per_sec: LIVE_BANDWIDTH,
                delay_factor: 1.0,
            },
        }
    }

    /// Predicted overhead (µs) of shipping `frame_bytes` to a peer with
    /// the given measured round trip: the observed rfork time of the
    /// live model (transfer both ways + protocol round trip).
    pub(crate) fn remote_overhead_us(rtt_us: u64, frame_bytes: u64) -> f64 {
        Self::live_model(rtt_us)
            .observed_time(frame_bytes)
            .as_micros_f64()
    }

    /// Chooses, per alternative, local launch (`None`) or the peer to
    /// ship it to (`Some(addr)`). Returns `None` when nothing ships —
    /// the caller takes the unchanged single-node path.
    ///
    /// `up_peers` carries every in-service peer's measured rtt and
    /// advertised load; `queued`/`workers` describe the local pool
    /// right now.
    pub(crate) fn assign(
        &self,
        widx: usize,
        frame_bytes: u64,
        up_peers: &[PeerLoad],
        queued: usize,
        workers: usize,
        catalog: &CatalogStats,
    ) -> Option<Vec<Option<String>>> {
        let n_alts = workload::CATALOG.get(widx)?.alternatives();
        if up_peers.is_empty() || n_alts < 2 {
            return None;
        }
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let explore = self.explore_every > 0 && tick.is_multiple_of(self.explore_every);

        let table = catalog.table(widx);
        let favourite = table.as_ref().and_then(|t| t.favourite()).unwrap_or(0);
        let exec_est = |alt: usize| {
            table
                .as_ref()
                .and_then(|t| t.ewma_us(alt))
                .unwrap_or(COLD_EXEC_US)
        };
        // Local queueing estimate: how long a newly submitted race sits
        // behind the queue, with the favourite's EWMA as the unit of
        // service time. An idle pool estimates zero — then only the
        // exploration floor ships.
        let local_wait_us = queued as f64 * exec_est(favourite) / workers.max(1) as f64;
        // Same queueing estimate on the peer's side, from the load it
        // advertised in its last heartbeat: a busy peer is no escape
        // from a busy pool.
        let remote_wait_us = |p: &PeerLoad| {
            let queue = p.queued as f64 * exec_est(favourite) / p.workers.max(1) as f64;
            // Fully busy workers mean even the first slot isn't free:
            // charge one service time for the leg to reach a worker.
            if p.workers > 0 && p.busy >= p.workers {
                queue + exec_est(favourite)
            } else {
                queue
            }
        };

        let mut out: Vec<Option<String>> = vec![None; n_alts];
        let mut shipped = 0usize;
        let mut peer_rr = tick as usize;
        for (alt, placed) in out.iter_mut().enumerate() {
            if alt == favourite {
                continue; // the likely winner stays local
            }
            // Rotate through up peers, cheapest rtt first on tie races
            // being irrelevant here — fairness matters more than the
            // µs-level rtt spread inside one cluster.
            let peer = &up_peers[peer_rr % up_peers.len()];
            let overhead = Self::remote_overhead_us(peer.rtt_us, frame_bytes);
            // Ship when transfer + remote queue + exec beats local
            // queue + exec; the exec estimate is the same alternative
            // either way, so it cancels out of the comparison.
            let model_says_ship = overhead + remote_wait_us(peer) < local_wait_us;
            let force = explore && shipped == 0;
            if model_says_ship || force {
                *placed = Some(peer.addr.clone());
                shipped += 1;
                peer_rr += 1;
            }
        }
        (shipped > 0).then_some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Catalog indices: three alternatives, and one.
    const LOGNORMAL: usize = 1;
    const SLEEP: usize = 3;

    fn peers(n: usize) -> Vec<PeerLoad> {
        (0..n)
            .map(|i| PeerLoad {
                addr: format!("127.0.0.1:{}", 9000 + i),
                rtt_us: 200,
                queued: 0,
                busy: 0,
                workers: 4,
            })
            .collect()
    }

    #[test]
    fn no_peers_or_single_alt_stays_local() {
        let p = Placement::new(1);
        let catalog = CatalogStats::new();
        assert!(p.assign(LOGNORMAL, 64, &[], 0, 4, &catalog).is_none());
        assert!(p.assign(SLEEP, 64, &peers(2), 0, 4, &catalog).is_none());
    }

    #[test]
    fn exploration_ships_exactly_one_non_favourite() {
        let p = Placement::new(1); // every race explores
        let catalog = CatalogStats::new();
        let assign = p
            .assign(LOGNORMAL, 64, &peers(2), 0, 4, &catalog)
            .expect("exploration must ship");
        assert_eq!(assign.len(), 3);
        assert_eq!(assign.iter().flatten().count(), 1, "{assign:?}");
        assert!(assign[0].is_none(), "cold favourite defaults to alt 0");
    }

    #[test]
    fn idle_pool_without_exploration_stays_local() {
        let p = Placement::new(0); // exploration off
        let catalog = CatalogStats::new();
        assert!(p.assign(LOGNORMAL, 64, &peers(2), 0, 4, &catalog).is_none());
    }

    #[test]
    fn deep_queue_ships_the_siblings() {
        let p = Placement::new(0);
        let catalog = CatalogStats::new();
        // 64 queued races behind 2 workers at ~1ms each: local wait
        // ~32ms dwarfs a 200µs rtt, so the model ships both siblings.
        let assign = p
            .assign(LOGNORMAL, 64, &peers(2), 64, 2, &catalog)
            .expect("saturated pool must ship");
        assert_eq!(assign.iter().flatten().count(), 2, "{assign:?}");
    }

    #[test]
    fn busy_peers_are_penalized_back_to_local() {
        let p = Placement::new(0);
        let catalog = CatalogStats::new();
        // The local queue that ships both siblings in the test above…
        let mut swamped = peers(2);
        for peer in &mut swamped {
            // …stops paying once the peers advertise an even deeper
            // queue behind fewer workers.
            peer.queued = 512;
            peer.workers = 1;
            peer.busy = 1;
        }
        assert!(
            p.assign(LOGNORMAL, 64, &swamped, 64, 2, &catalog).is_none(),
            "peers busier than the local pool must not be shipped to"
        );
        // Idle peers with the same rtt still win that trade.
        assert!(p
            .assign(LOGNORMAL, 64, &peers(2), 64, 2, &catalog)
            .is_some());
    }

    #[test]
    fn live_model_overhead_tracks_rtt() {
        let near = Placement::remote_overhead_us(100, 64);
        let far = Placement::remote_overhead_us(10_000, 64);
        assert!(near < far, "{near} vs {far}");
        // A 100µs-rtt peer costs on the order of the rtt, not 1989's
        // seconds-scale rfork.
        assert!(near < 1_000.0, "{near}");
    }
}
