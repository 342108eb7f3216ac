//! # altx-des — deterministic discrete-event simulation core
//!
//! This crate is the foundation of the altx reproduction of Smith &
//! Maguire's *Transparent Concurrent Execution of Mutually Exclusive
//! Alternatives* (ICDCS 1989). The paper's evaluation is driven entirely by
//! *time*: fork latencies, page-copy service rates, network delays, and the
//! execution times of alternative computations. Reproducing those numbers
//! on modern hardware is meaningless, so every substrate in this workspace
//! runs against a **virtual clock** managed here, calibrated to the
//! constants the paper reports for the AT&T 3B2/310 and HP 9000/350.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — a deterministic priority queue of timestamped events
//!   with stable FIFO ordering among simultaneous events.
//! * [`rng`] — a hand-rolled, version-stable pseudorandom generator
//!   ([`rng::SimRng`]) so that simulations are bit-for-bit reproducible
//!   regardless of external crate versions.
//! * [`stats`] — online summary statistics (Welford mean/variance,
//!   percentiles) used by every experiment harness.
//!
//! # Example
//!
//! ```
//! use altx_des::{EventQueue, SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "second");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "first");
//! let (t, ev) = q.pop().expect("event");
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_nanos(1_000_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::{splitmix64, SimRng};
pub use stats::Summary;
pub use time::{SimDuration, SimTime};
