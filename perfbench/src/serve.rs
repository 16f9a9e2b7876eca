//! The service layer, measured by a probe in each workload's traced run.
//!
//! A server with two workers serves one session of the workload's system
//! at its size over one loopback connection: correlated `Step(session, 4)`
//! requests in a closed loop, with a suspend and resume halfway. The
//! session must end on the digest of a direct single-threaded replay.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cenn_equations::{system_by_name, FixedRunner};
use cenn_obs::TraceHandle;
use cenn_serve::loopback::{self, Loopback};
use cenn_serve::{state_digest, Client, Request, Response, Server, ServerConfig};

use crate::probes;
use crate::report::{median, secs, Outcome};

/// Server worker threads.
const WORKERS: usize = 2;
/// Steps per `Step` request.
const CHUNK: u64 = 4;
/// `Step` requests of the probe.
const PROBE_OPS: u64 = 6;

/// What serving the session measured.
struct Served {
    /// Steps the session ran, by the client's count.
    steps: u64,
    /// The digest the server reports at the end.
    digest: u64,
    /// Wall time of the `Step` requests and the detour between them.
    wall: f64,
    submit: f64,
    suspend: f64,
    resume: f64,
}

/// The service layer under one session of `system` at `side`². Sets every
/// `serve.*` metric.
pub fn session_probe(
    system: &'static str,
    side: u32,
    tmp: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let spool = tmp.join("serve-probe");
    let _ = std::fs::remove_dir_all(&spool);
    let marks = TraceHandle::full();
    let mut cfg = ServerConfig::new(WORKERS, &spool);
    cfg.manager.tracer = Some(marks.clone());
    let server = Server::start(cfg).map_err(|e| format!("server start: {e}"))?;
    let (client_end, server_end) = loopback::pair();
    let srv = server.clone();
    let handler = std::thread::spawn(move || srv.handle_conn(server_end));
    let mut client = Client::new(client_end);

    let counters = |server: &Arc<Server>| {
        let snap = server.manager().metrics().snapshot();
        (
            snap.counter("serve.quanta_total").unwrap_or(0),
            snap.hist("serve.quantum_nanos").map_or(0, |h| h.sum_nanos),
        )
    };
    let marks_before = marks.with(|c| c.marks().len());
    let before = counters(&server);
    let served = serve(&mut client, system, side);
    let after = counters(&server);

    drop(client);
    let handler_ok = handler.join().is_ok();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&spool);
    let served = served?;
    if !handler_ok {
        return Err("connection handler panicked".into());
    }

    let replayed = replay(system, side, served.steps)?;
    if replayed != served.digest {
        out.fail(format!(
            "{system} {side}², {} steps: served digest {:016x}, replay {replayed:016x}",
            served.steps, served.digest
        ));
    }
    // Exact counts: one quantum per `Step` request (a chunk is below the
    // quantum), and one mark per quantum.
    let quanta = after.0 - before.0;
    let marks: Vec<f64> = marks.with(|c| {
        c.marks()[marks_before..]
            .iter()
            .map(|m| m.dur_nanos as f64)
            .collect()
    });
    if quanta != PROBE_OPS || marks.len() as u64 != quanta {
        out.fail(format!(
            "{quanta} quanta and {} quantum marks for {PROBE_OPS} step requests",
            marks.len()
        ));
    }

    out.set("serve.frame_roundtrip_ns", probes::frame_roundtrip());
    out.set("serve.quantum_ms_p50", median(&marks) / 1e6);
    out.set("serve.quanta", quanta as f64);
    out.set(
        "serve.compute_frac",
        (after.1 - before.1) as f64 / 1e9 / (served.wall * WORKERS as f64),
    );
    out.set("serve.submit_ms_p50", served.submit * 1e3);
    out.set("serve.suspend_ms_p50", served.suspend * 1e3);
    out.set("serve.resume_ms_p50", served.resume * 1e3);
    Ok(())
}

/// Submits the session, steps it [`PROBE_OPS`] times with a suspend and
/// resume halfway, reads its digest and closes it.
fn serve(client: &mut Client<Loopback>, system: &str, side: u32) -> Result<Served, String> {
    let t = Instant::now();
    let id = client
        .submit(system, side, side)
        .map_err(|e| format!("submit {system}: {e}"))?;
    let submit = secs(t.elapsed());
    let mut steps = 0;
    let (mut suspend, mut resume) = (0.0, 0.0);
    let start = Instant::now();
    for op in 0..PROBE_OPS {
        if op == PROBE_OPS / 2 {
            let t = Instant::now();
            client
                .suspend(id)
                .map_err(|e| format!("suspend session {id}: {e}"))?;
            suspend = secs(t.elapsed());
            let t = Instant::now();
            let back = client
                .resume(id)
                .map_err(|e| format!("resume session {id}: {e}"))?;
            resume = secs(t.elapsed());
            if back != steps {
                return Err(format!(
                    "session {id} resumed at step {back}, expected {steps}"
                ));
            }
        }
        step(client, id, &mut steps, op + 1)?;
    }
    let wall = secs(start.elapsed());
    let (at, digest) = client
        .digest(id)
        .map_err(|e| format!("digest of session {id}: {e}"))?;
    if at != steps {
        return Err(format!(
            "session {id} reports {at} steps, the client sent {steps}"
        ));
    }
    client
        .close(id)
        .map_err(|e| format!("close session {id}: {e}"))?;
    Ok(Served {
        steps,
        digest,
        wall,
        submit,
        suspend,
        resume,
    })
}

/// One `Step(session, CHUNK)` round trip with request id `corr`; the
/// reply's step count must match the client's, `steps`.
fn step(
    client: &mut Client<Loopback>,
    session: u64,
    steps: &mut u64,
    corr: u64,
) -> Result<(), String> {
    let fail = |e: String| format!("step session {session}: {e}");
    let served = match client.call_with_id(corr, &Request::Step { session, n: CHUNK }) {
        Ok(Response::Stepped { steps, .. }) => steps,
        Ok(Response::Error { code, message }) => {
            return Err(fail(format!("server error ({code}): {message}")))
        }
        Ok(other) => return Err(fail(format!("unexpected response {other:?}"))),
        Err(e) => return Err(fail(e.to_string())),
    };
    *steps += CHUNK;
    if served != *steps {
        return Err(fail(format!(
            "counted {served} steps, the client sent {steps}"
        )));
    }
    Ok(())
}

/// The digest of `steps` steps of `system` at `side`² from the menu's
/// initial state, run directly on one thread.
fn replay(system: &str, side: u32, steps: u64) -> Result<u64, String> {
    let sys = system_by_name(system).ok_or_else(|| format!("no system {system}"))?;
    let setup = sys
        .build(side as usize, side as usize)
        .map_err(|e| format!("building {system}: {e}"))?;
    let mut runner = FixedRunner::new(setup).map_err(|e| format!("runner: {e}"))?;
    runner.set_threads(1);
    runner.run(steps);
    Ok(state_digest(runner.sim()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()))
    }

    #[test]
    fn the_session_probe_serves_one_session() {
        for system in ["fisher", "gray-scott"] {
            let dir = tmp(system);
            let mut out = Outcome::default();
            session_probe(system, 24, &dir, &mut out).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(out.correct(), "{system}: {:?}", out.errors);
            assert_eq!(out.get("serve.quanta"), Some(PROBE_OPS as f64));
            for metric in crate::report::PER_LAYER
                .iter()
                .filter(|m| m.name.starts_with("serve."))
            {
                assert!(out.get(metric.name).unwrap() > 0.0, "{}", metric.name);
            }
        }
    }

    #[test]
    fn a_refused_request_fails_every_op() {
        let spool = tmp("refused");
        let server = Server::start(ServerConfig::new(WORKERS, &spool)).unwrap();
        let (client_end, server_end) = loopback::pair();
        let srv = server.clone();
        let handler = std::thread::spawn(move || srv.handle_conn(server_end));
        let mut client = Client::new(client_end);
        // A session id the server never issued: `Step` gets a typed error.
        let refused = step(&mut client, 999_999, &mut 0, 1).unwrap_err();
        drop(client);
        handler.join().unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
        assert!(refused.contains("server error"), "{refused}");
        let mut out = Outcome::default();
        out.attempted = 40;
        out.fail(refused);
        assert_eq!(out.failed(), 40);
        assert_eq!(out.ops_failed_frac(), 1.0);
    }
}
