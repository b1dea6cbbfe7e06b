//! The live metrics registry, re-exported from `icb-core`.
//!
//! The registry type itself lives in `icb_core::metrics` so the search
//! drivers, the [`Frontier`](icb_core::search::Frontier) and the cache
//! table can feed it without a dependency on this crate. The telemetry
//! crate is where the registry becomes *visible*:
//! [`render_prometheus`](crate::render_prometheus) turns it into a
//! text-exposition page and [`MetricsServer`](crate::MetricsServer)
//! serves that page over HTTP.
//!
//! A typical wiring, mirroring what `explore run --serve-metrics` does:
//!
//! ```no_run
//! use std::sync::Arc;
//! use icb_core::MetricsRegistry;
//! use icb_telemetry::MetricsServer;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry)).unwrap();
//! println!("metrics at http://{}/metrics", server.addr());
//! // ... Search::over(&program).metrics(Arc::clone(&registry)).run() ...
//! server.shutdown();
//! ```

pub use icb_core::metrics::{CACHE_SHARDS, MAX_WORKERS, STEP_BUCKETS};
pub use icb_core::{MetricsBridge, MetricsRegistry, MetricsSnapshot, WorkerStats};
