//! Inner-layer timings for the traced run. The client's own calls are spans
//! of the live requests (see `load`); the layers behind the service are
//! timed here, in a replay of the same queries and responses, each span
//! keyed to the id of the request it replays.

use std::hint::black_box;
use std::time::Instant;

use vaq_authquery::Server;
use vaq_crypto::sha256::sha256_pair;
use vaq_crypto::{SignatureScheme, Signer, Verifier};
use vaq_mht::verify_range;
use vaq_wire::{Response, WireDecode, WireEncode};

use crate::load::{Answer, Publication};
use crate::report::median;
use crate::trace::Trace;

/// Per-request counts gathered by the replay.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub replayed: u64,
    pub hash_ops: Vec<f64>,
    pub nodes: Vec<f64>,
    pub vo_bytes: Vec<f64>,
    pub frame_bytes: Vec<f64>,
    /// Replays whose verification failed: each fails the run.
    pub failures: Vec<String>,
}

/// Replays every answer through the server, the wire codec and the
/// verifier, recording one span per layer call.
pub fn replay(
    answers: &[Answer],
    server: &Server,
    publication: &Publication,
    trace: &mut Trace,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    for a in answers {
        let id = a.id;
        let t0 = Instant::now();
        black_box(server.tree().itree().locate(a.query.weights()));
        let t1 = Instant::now();
        let (processed, timing) = server.process_timed(&a.query);
        let t2 = Instant::now();
        let frame = Response::Query {
            epoch: a.epoch,
            response: a.response.clone(),
        }
        .to_framed_bytes();
        let t3 = Instant::now();
        let decoded = Response::from_framed_bytes(&frame);
        let t4 = Instant::now();
        let vo = &a.response.vo;
        let mut leaves = Vec::with_capacity(a.response.records.len() + 2);
        leaves.push(vo.left_boundary.leaf_digest());
        leaves.extend(a.response.records.iter().map(|r| r.digest()));
        leaves.push(vo.right_boundary.leaf_digest());
        let t5 = Instant::now();
        let range = verify_range(vo.first_leaf as usize, &leaves, &vo.range_proof);
        let t6 = Instant::now();
        let verified = publication.verify(&a.query, &a.response, a.epoch);
        let t7 = Instant::now();

        let root = trace.span("replay", t0, t7, None, id);
        trace.span("itree.locate", t0, t1, Some(root), id);
        let process = trace.span("authquery.process", t1, t2, Some(root), id);
        trace.span(
            "authquery.execute",
            t1,
            t1 + timing.execute,
            Some(process),
            id,
        );
        trace.span(
            "authquery.vo_build",
            t1 + timing.execute,
            t1 + timing.execute + timing.vo_build,
            Some(process),
            id,
        );
        trace.span("wire.encode", t2, t3, Some(root), id);
        trace.span("wire.decode", t3, t4, Some(root), id);
        trace.span("mht.verify_range", t5, t6, Some(root), id);
        trace.span("authquery.verify", t6, t7, Some(root), id);

        counts.replayed += 1;
        counts.nodes.push(processed.cost.total_nodes() as f64);
        counts.vo_bytes.push(vo.to_wire_bytes().len() as f64);
        counts.frame_bytes.push(frame.len() as f64);
        if decoded.is_err() || range.is_err() {
            counts.failures.push(format!(
                "request {id}: replayed frame or range proof rejected"
            ));
        }
        match verified {
            Ok(v) => counts.hash_ops.push(v.cost.hash_ops as f64),
            Err(e) => counts
                .failures
                .push(format!("request {id}: replayed verification failed: {e}")),
        }
    }
    counts
}

/// Median single-call timings of the crypto layer at the workload's key.
#[derive(Debug)]
pub struct CryptoTimings {
    pub sign_us: f64,
    pub verify_us: f64,
    pub sha256_pair_ns: f64,
}

pub fn crypto(scheme: &SignatureScheme) -> CryptoTimings {
    let key = scheme.public_key();
    let mut sign_us = Vec::new();
    let mut verify_us = Vec::new();
    for i in 0..8u8 {
        let digest = [i; 32];
        let t = Instant::now();
        let sig = scheme.sign_digest(black_box(&digest));
        sign_us.push(t.elapsed().as_secs_f64() * 1e6);
        for _ in 0..8 {
            let t = Instant::now();
            let ok = key.verify_digest(black_box(&digest), black_box(&sig));
            verify_us.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(ok, "a fresh signature must verify");
        }
    }
    // SHA-256 of a digest pair: one Merkle node. Batches of 1000 keep the
    // clock's own cost out of the number.
    let mut pair_ns = Vec::new();
    let mut d = [7u8; 32];
    for _ in 0..20 {
        let t = Instant::now();
        for _ in 0..1000 {
            d = sha256_pair(black_box(&d), black_box(&d));
        }
        pair_ns.push(t.elapsed().as_secs_f64() * 1e9 / 1000.0);
    }
    black_box(d);
    CryptoTimings {
        sign_us: median(&sign_us),
        verify_us: median(&verify_us),
        sha256_pair_ns: median(&pair_ns),
    }
}
