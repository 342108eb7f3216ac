//! Shared pieces of the altx benchmark. Nothing here touches the
//! program under test: seeded input generation, the workload table,
//! order statistics, the STATS-page scraper, span arithmetic, a JSON
//! writer and two system calls. The `e2e` and `layers` binaries build
//! on it.

pub mod gen;
pub mod json;
pub mod scrape;
pub mod span;
pub mod stats;
pub mod sys;
pub mod workloads;
