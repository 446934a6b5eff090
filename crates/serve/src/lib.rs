//! Multi-tenant serving layer for fitted K-means models.
//!
//! The estimator lifecycle (`Session` → `KMeans` → `FittedModel`) produces
//! models whose device state is Arc-aliased and whose predict path is
//! re-entrant; this crate puts a service on top of them:
//!
//! * [`ModelRegistry`] — a named, concurrently readable catalog of
//!   [`kmeans::FittedModel`]s. Registration, lookup, and hot-swap are
//!   device-pointer-copy cheap; each model keeps its own
//!   [`kmeans::PredictPolicy`].
//! * [`Server`] — a request front-end that runs each `predict` on its
//!   caller's thread by default and, with an opt-in
//!   [`ServerConfig::max_delay_us`] window, **micro-batches concurrent
//!   `predict` calls into single kernel launches**: requests for the same
//!   model queued within the window (up to
//!   [`ServerConfig::max_batch_rows`] rows) are coalesced into one query
//!   upload + one assignment launch, and the label vector is scattered
//!   back to the callers. Because every predict
//!   path is label-exact per sample, the coalesced response is bit-identical
//!   to the unbatched one ([`ServerConfig::validate_batched`] asserts it).
//! * Admission of concurrent **fits** over the same shared executor:
//!   [`Server::fit`], [`Server::refit`] (warm-started via `fit_from`) and
//!   [`Server::partial_fit`] (streaming continuation of a registered
//!   model). Each fit charges its own scoped counters — no cross-talk
//!   between concurrent requests — and the finished totals are folded into
//!   the server-wide aggregate ([`Server::counters`]).
//!
//! See `examples/serving_mixed_traffic.rs` for a two-tenant mixed-traffic
//! walk-through and `bench_harness::servebench` for the gated
//! latency/throughput bench.

mod error;
mod metrics;
mod registry;
mod server;

pub use error::ServeError;
pub use registry::ModelRegistry;
pub use server::{PredictResponse, Server, ServerConfig, ServerStats};
