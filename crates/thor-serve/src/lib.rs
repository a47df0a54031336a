//! The online front end of the THOR reproduction: a std-only HTTP/1.1
//! server over the frozen [`thor_core::PreparedEngine`].
//!
//! The paper's conceptualization pipeline only mitigates sparsity in
//! *integrated* data if it can be queried continuously as new text
//! arrives; this crate turns the build/serve split into an actual
//! serving process. `POST /enrich` and `POST /extract` accept document
//! batches and answer with exactly the bytes the batch CLI writes
//! (enriched-table CSV, entity TSV) — served output is diff-able
//! against `thor enrich`. `GET /healthz` and `GET /metrics` expose
//! liveness and the thor-obs metrics document, including per-request
//! latency histograms.
//!
//! Design constraints, in order:
//!
//! * **No new dependencies.** The protocol layer ([`http`]) is a small
//!   hand-written HTTP/1.1 parser/writer over `std::net`, hardened by a
//!   proptest battery (truncation, oversized headers, bad
//!   `Content-Length`, pipelining, slowloris) — every malformed input
//!   is a *named* 4xx/408, never a panic or a hang.
//! * **One bad request costs one request.** Handlers run under
//!   `catch_unwind`; malformed documents go through the same admission
//!   checks and quarantine ledger as the batch resilient runner.
//! * **Overload is refused, not queued.** A bounded admission gate
//!   yields `429 Retry-After` the moment the configured concurrency is
//!   exceeded — the server never accumulates an unbounded backlog.
//! * **Drain, don't drop.** SIGTERM/ctrl-c stops accepting, finishes
//!   in-flight requests, and leaves metrics flushable by the caller.
//! * **Reload without a restart.** SIGHUP (or `--watch-engine` polling)
//!   drives the [`reload`] state machine: candidates are validated
//!   end-to-end — including a re-verified section-directory checksum —
//!   before the epoch-versioned hot swap; a corrupt candidate is
//!   rejected by name while the old generation keeps serving. Panicked
//!   accept workers are restarted with backoff, and a crash loop trips
//!   a breaker that turns `/healthz` into a 503 `degraded` report.

#![warn(missing_docs)]

pub mod http;
pub mod reload;
pub mod server;
pub mod signal;

pub use http::{HttpError, HttpLimits, RequestHead, RequestReader, Response};
pub use reload::{try_reload, ReloadConfig};
pub use server::{ServeOptions, Server, ShutdownHandle};
