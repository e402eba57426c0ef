//! The data user's side: open-loop and closed-loop load against a bound
//! service, with every answer verified before it counts.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use vaq_authquery::{verify_at_epoch, Query, QueryResponse, VerifiedResult, VerifyError};
use vaq_crypto::signer::PublicKey;
use vaq_funcdb::FunctionTemplate;
use vaq_service::frame::{read_frame, FrameRead};
use vaq_service::ServiceClient;
use vaq_wire::{ErrorCode, Request, Response, WireDecode, WireEncode};

use crate::inputs::QueryStream;
use crate::trace::Trace;

/// Largest response frame the user accepts.
const MAX_FRAME_BYTES: usize = 64 << 20;
/// How long a user waits for the owner to announce the epoch the service
/// already serves, and for an outstanding answer, before counting a failure.
const PATIENCE: Duration = Duration::from_secs(30);

/// What the owner has published to users: the key, the template and the
/// current epoch. Users pin every query to the epoch they last saw.
pub struct Publication {
    pub key: PublicKey,
    pub template: FunctionTemplate,
    epoch: Mutex<u64>,
    advanced: Condvar,
}

impl Publication {
    pub fn new(key: PublicKey, template: FunctionTemplate, epoch: u64) -> Publication {
        Publication {
            key,
            template,
            epoch: Mutex::new(epoch),
            advanced: Condvar::new(),
        }
    }

    pub fn epoch(&self) -> u64 {
        *self.epoch.lock().expect("publication lock poisoned")
    }

    /// The owner announces a new epoch.
    pub fn announce(&self, epoch: u64) {
        *self.epoch.lock().expect("publication lock poisoned") = epoch;
        self.advanced.notify_all();
    }

    /// After a `StaleEpoch` reply to a query pinned at `pinned`: waits until
    /// the owner announces a later epoch and returns it.
    fn wait_past(&self, pinned: u64) -> Option<u64> {
        let guard = self.epoch.lock().expect("publication lock poisoned");
        let (guard, _) = self
            .advanced
            .wait_timeout_while(guard, PATIENCE, |e| *e <= pinned)
            .expect("publication lock poisoned");
        (*guard > pinned).then_some(*guard)
    }

    pub fn verify(
        &self,
        query: &Query,
        response: &QueryResponse,
        epoch: u64,
    ) -> Result<VerifiedResult, VerifyError> {
        verify_at_epoch(
            query,
            &response.records,
            &response.vo,
            &self.template,
            &self.key,
            epoch,
        )
    }
}

/// Request outcomes: every attempted request ends verified or failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub verified: u64,
    pub failed: u64,
    /// Queries re-sent after a typed `StaleEpoch` reply.
    pub stale_retries: u64,
    /// The first few failure reasons.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.verified += other.verified;
        self.failed += other.failed;
        self.stale_retries += other.stale_retries;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// A verified answer kept for the tamper checks and the replay pass.
#[derive(Clone, Debug)]
pub struct Answer {
    pub id: u64,
    pub query: Query,
    pub epoch: u64,
    pub response: QueryResponse,
}

#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Scheduled send → verified answer, per verified request.
    pub latencies_ms: Vec<f64>,
    /// When each of those requests was due, in seconds from the start.
    pub due_s: Vec<f64>,
    /// Actual send − scheduled send, per sent request.
    pub lags_ms: Vec<f64>,
    /// Response frame bytes over all answers.
    pub response_bytes: u64,
    pub answers: u64,
    pub tally: Tally,
    pub kept: Vec<Answer>,
}

/// Sends `queries[i]` at `start + due[i]` as a tagged, epoch-pinned request,
/// pipelined on one connection, while this thread reads, verifies and times
/// the answers. Requests whose id `% keep_every == 0` are kept.
pub fn open_loop(
    addr: SocketAddr,
    publication: &Publication,
    queries: &[Query],
    due: &[Duration],
    id_base: u64,
    keep_every: u64,
    mut trace: Option<&mut Trace>,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let n = queries.len();
    out.tally.attempted = n as u64;
    let stream = match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|_| s)) {
        Ok(s) => s,
        Err(e) => {
            for _ in 0..n {
                out.tally.fail(format!("connect: {e}"));
            }
            return out;
        }
    };
    let mut reader = stream
        .try_clone()
        .expect("clone the connection for reading");
    reader
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    let writer = Mutex::new(stream);
    let pinned: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let sent_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let start = Instant::now() + Duration::from_millis(5);
    let send = |i: usize, epoch: u64| -> std::io::Result<()> {
        pinned[i].store(epoch, Ordering::SeqCst);
        let frame = Request::Tagged {
            tag: id_base + i as u64,
            request: Box::new(Request::QueryAt {
                epoch,
                query: queries[i].clone(),
            }),
        }
        .to_framed_bytes();
        let mut w = writer.lock().expect("writer lock poisoned");
        sent_ns[i].store(start.elapsed().as_nanos() as u64 + 1, Ordering::SeqCst);
        w.write_all(&frame)
    };

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lags = Vec::with_capacity(n);
            for (i, d) in due.iter().enumerate() {
                let at = start + *d;
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lags.push(at.elapsed().as_secs_f64() * 1e3);
                if send(i, publication.epoch()).is_err() {
                    break;
                }
            }
            lags
        });

        let mut done = vec![false; n];
        let mut remaining = n;
        let last_due = due.last().copied().unwrap_or_default();
        let deadline = start + last_due + PATIENCE;
        while remaining > 0 && Instant::now() < deadline {
            let payload = match read_frame(&mut reader, MAX_FRAME_BYTES) {
                Ok(FrameRead::Payload(p)) => p,
                Ok(FrameRead::Idle) => continue,
                Ok(FrameRead::Closed) => break,
                Err(e) => {
                    out.tally.fail(format!("read: {e}"));
                    break;
                }
            };
            let t_read = Instant::now();
            let frame_bytes = payload.len() as u64 + 10;
            let (tag, inner) = match Response::from_wire_bytes(&payload) {
                Ok(Response::Tagged { tag, response }) => (tag, *response),
                Ok(other) => {
                    out.tally.fail(format!("untagged reply: {other:?}"));
                    break;
                }
                Err(e) => {
                    out.tally.fail(format!("undecodable reply: {e}"));
                    break;
                }
            };
            let t_decoded = Instant::now();
            let Some(i) = tag
                .checked_sub(id_base)
                .map(|i| i as usize)
                .filter(|&i| i < n && !done[i])
            else {
                out.tally.fail(format!("reply for unknown tag {tag}"));
                break;
            };
            let epoch = pinned[i].load(Ordering::SeqCst);
            let response = match inner {
                Response::Query {
                    epoch: served,
                    response,
                } if served == epoch => response,
                Response::Error(reply) if reply.code == ErrorCode::StaleEpoch => {
                    out.tally.stale_retries += 1;
                    match publication.wait_past(epoch) {
                        Some(next) if send(i, next).is_ok() => continue,
                        _ => {
                            done[i] = true;
                            remaining -= 1;
                            out.tally
                                .fail(format!("request {tag}: stale and not republished"));
                            continue;
                        }
                    }
                }
                other => {
                    done[i] = true;
                    remaining -= 1;
                    out.tally
                        .fail(format!("request {tag}: unexpected reply {other:?}"));
                    continue;
                }
            };
            done[i] = true;
            remaining -= 1;
            out.response_bytes += frame_bytes;
            out.answers += 1;
            match publication.verify(&queries[i], &response, epoch) {
                Ok(_) => {
                    let t_verified = Instant::now();
                    let scheduled = start + due[i];
                    out.tally.verified += 1;
                    out.latencies_ms
                        .push(t_verified.duration_since(scheduled).as_secs_f64() * 1e3);
                    out.due_s.push(due[i].as_secs_f64());
                    if let Some(trace) = trace.as_deref_mut() {
                        let sent =
                            start + Duration::from_nanos(sent_ns[i].load(Ordering::SeqCst) - 1);
                        let root = trace.span("request", scheduled, t_verified, None, tag);
                        trace.span("gen.lag", scheduled, sent, Some(root), tag);
                        trace.span("service.wait", sent, t_read, Some(root), tag);
                        trace.span("client.decode", t_read, t_decoded, Some(root), tag);
                        trace.span("client.verify", t_decoded, t_verified, Some(root), tag);
                    }
                    if tag % keep_every == 0 {
                        out.kept.push(Answer {
                            id: tag,
                            query: queries[i].clone(),
                            epoch,
                            response,
                        });
                    }
                }
                Err(e) => out
                    .tally
                    .fail(format!("request {tag}: verification failed: {e}")),
            }
        }
        for _ in 0..remaining {
            out.tally.fail("no answer".into());
        }
        // A sender still on its schedule stops at its next send; join it.
        if let Ok(w) = writer.lock() {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        out.lags_ms = sender.join().expect("sender thread panicked");
    });
    out
}

#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub tally: Tally,
    /// Per-request round trip (send → answer, before verification), µs.
    pub round_trips_us: Vec<f64>,
    /// When each verified answer arrived, in seconds from the start.
    pub verified_at_s: Vec<f64>,
}

/// One thread and one connection per stream, each with one request in
/// flight, until `window` has passed or `limit` requests per thread were
/// answered. Answers are verified unless `verify` is false.
pub fn closed_loop(
    addr: SocketAddr,
    publication: &Publication,
    streams: Vec<QueryStream>,
    window: Duration,
    limit: usize,
    verify: bool,
) -> ClosedLoop {
    let start = Instant::now();
    let deadline = start + window;
    let results: Vec<ClosedLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|mut stream| {
                scope.spawn(move || {
                    let mut out = ClosedLoop::default();
                    let mut client = match ServiceClient::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            out.tally.attempted += 1;
                            out.tally.fail(format!("connect: {e}"));
                            return out;
                        }
                    };
                    while Instant::now() < deadline && out.round_trips_us.len() < limit {
                        let query = stream.next_query();
                        out.tally.attempted += 1;
                        let sent = Instant::now();
                        let (epoch, response) =
                            match query_pinned(&mut client, publication, &query, &mut out.tally) {
                                Ok(answer) => answer,
                                Err(e) => {
                                    out.tally.fail(e);
                                    break;
                                }
                            };
                        out.round_trips_us.push(sent.elapsed().as_secs_f64() * 1e6);
                        let checked = if verify {
                            publication.verify(&query, &response, epoch).map(|_| ())
                        } else {
                            Ok(())
                        };
                        match checked {
                            Ok(()) => {
                                out.tally.verified += 1;
                                out.verified_at_s.push(start.elapsed().as_secs_f64());
                            }
                            Err(e) => out.tally.fail(format!("verification failed: {e}")),
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let mut total = ClosedLoop::default();
    for r in results {
        total.tally.add(r.tally);
        total.round_trips_us.extend(r.round_trips_us);
        total.verified_at_s.extend(r.verified_at_s);
    }
    total
}

/// One query pinned at the published epoch, re-pinned after each typed
/// `StaleEpoch` reply once the owner has announced the next epoch.
pub fn query_pinned(
    client: &mut ServiceClient,
    publication: &Publication,
    query: &Query,
    tally: &mut Tally,
) -> Result<(u64, QueryResponse), String> {
    let mut epoch = publication.epoch();
    loop {
        match client.query_at(epoch, query) {
            Ok(response) => return Ok((epoch, response)),
            Err(e) if e.is_stale_epoch() => {
                tally.stale_retries += 1;
                epoch = publication
                    .wait_past(epoch)
                    .ok_or_else(|| format!("stale at epoch {epoch} and not republished"))?;
            }
            Err(e) => return Err(format!("query: {e}")),
        }
    }
}
