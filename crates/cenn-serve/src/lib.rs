//! Multi-tenant solver service for the CeNN accelerator model.
//!
//! The paper's accelerator is a shared resource: many experiments want
//! time on one physical array. This crate is the software analogue — a
//! long-lived service that multiplexes independent solver sessions onto
//! a fixed worker pool, with the determinism contract intact end to end:
//!
//! - **[`frame`]** — length-prefixed binary framing with typed errors
//!   (never panics, never hangs on garbage).
//! - **[`proto`]** — the versioned request/response message set
//!   (`SubmitSystem`, `Step`, `StreamState`, `Suspend`, `Resume`,
//!   `Close`, `Digest`, `Ping`, `Shutdown`).
//! - **[`manager`]** — [`SessionManager`]: deterministic fair
//!   round-robin scheduling of sessions over worker threads, per-session
//!   `cenn-obs` event streams, and `CENNCKPT` suspend-to-disk/resume via
//!   the `cenn-guard` checkpoint format.
//! - **[`server`]** / **[`client`]** — the blocking service loop
//!   (transport-agnostic core + TCP accept loop) and its typed client.
//! - **[`fleet`]** — a seeded synthetic client fleet whose per-session
//!   end-state digests must be bit-identical across worker counts and
//!   reruns; the service's load-level determinism proof.
//! - **[`loopback`]** — in-memory duplex streams so every layer above
//!   the transport is testable without sockets.
//! - **[`spool`]** — the durable session spool: atomic checkpoint
//!   writes, a versioned `MANIFEST` journal, and quarantine of damaged
//!   files, driving [`SessionManager::recover`] restart recovery.
//! - **[`chaos`]** — a deterministic service-layer fault harness
//!   (connection drops, frame corruption, worker stalls, crash+restart)
//!   that proves fleet digests survive every fault the retry layer
//!   claims to absorb.
//! - **[`stats_http`]** — a minimal std-only HTTP/1.1 responder that
//!   serves the live metrics registry in Prometheus text exposition
//!   format (`cenn serve --stats-listen ADDR`).
//!
//! # Example
//!
//! ```
//! use cenn_serve::{loopback, Client, ManagerConfig, Server, ServerConfig};
//!
//! let spool = std::env::temp_dir().join(format!("cenn-serve-doc-{}", std::process::id()));
//! let server = Server::start(ServerConfig::new(2, &spool)).unwrap();
//! let (ours, theirs) = loopback::pair();
//! let srv = server.clone();
//! let conn = std::thread::spawn(move || srv.handle_conn(theirs));
//!
//! let mut client = Client::new(ours);
//! let session = client.submit("heat", 8, 8).unwrap();
//! let (steps, _fired) = client.step(session, 10).unwrap();
//! assert_eq!(steps, 10);
//! let (_steps, digest) = client.digest(session).unwrap();
//! assert_ne!(digest, 0);
//! client.close(session).unwrap();
//! drop(client); // EOF ends the connection thread
//! conn.join().unwrap();
//! server.shutdown();
//! # let _ = std::fs::remove_dir_all(&spool);
//! # let _ = ManagerConfig::new(std::env::temp_dir()); // re-export smoke
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod digest;
pub mod fleet;
pub mod frame;
pub mod loopback;
pub mod manager;
pub mod proto;
pub mod server;
pub mod spool;
pub mod stats_http;

pub use chaos::{
    run_chaos_fleet, run_resilient_fleet, ChaosDirector, ChaosFault, ChaosPlan, ChaosStats,
    ChaosTransport, DropWhen,
};
pub use client::{Client, ClientError, Deadlines, RetryClient, RetryPolicy};
pub use digest::{snapshot_digest, state_digest};
pub use fleet::{run_fleet, FleetConfig, FleetEntry, FleetError, FleetReport};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN};
pub use manager::{grid_fits_frame, ManagerConfig, RecoveryReport, ServeError, SessionManager};
pub use proto::{ErrorCode, Request, Response, SessionStat, StatsSnapshot, PROTO_VERSION};
pub use server::{Server, ServerConfig, ServerHandle};
pub use spool::{Manifest, ManifestEntry, QuarantineReason, SpoolError};
pub use stats_http::StatsHttpServer;
