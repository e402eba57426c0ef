//! Verified-answer benchmark: drives the owner → server → user path end to
//! end in one process, at the paper's RSA-1024 key size, and times it from
//! outside through the crates' public functions, `StatsDeep` and `/proc`.
//!
//! ```text
//! vaq-perfbench --workload <mixed_d2|range_d1|churn_d2> --seed <n>
//!               --seconds <s> --trace <0|1> [--tiny] [--out <dir>]
//! ```
//!
//! Prints every metric by name and unit, checks every answer, and ends with
//! one JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the same workload with spans and reports the per-layer
//! metrics. `--tiny` shrinks the data for the benchmark's own tests. See
//! `perfbench/README.md` for the workloads and what each metric should move.

mod inputs;
mod layers;
mod load;
mod procfs;
mod report;
mod tamper;
mod trace;

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use vaq_authquery::{DataOwner, Server, SigningMode};
use vaq_crypto::SignatureScheme;
use vaq_funcdb::{Dataset, LpSplitOracle};
use vaq_itree::ITreeBuilder;
use vaq_service::{QueryService, ServiceClient, ServiceConfig};
use vaq_wire::StatsDeep;

use inputs::{Mix, Rng, Streams};
use load::{Answer, Publication, Tally};
use report::{median, quantile, Metric};
use trace::Trace;

/// `Scale::Paper`'s RSA modulus.
const KEY_BITS: usize = 1024;
/// Seed of every workload's records, the same in every run; `--seed` draws
/// the queries, arrivals, keys, updates and tamper positions. Over seeds,
/// uniform records gave `mixed_d2` arrangements whose build took up to 30 %
/// more oracle calls, and `setup_s` would have measured that instead of the
/// program.
const DATASET_SEED: u64 = 1;
/// Service worker threads: one per core of the 2-core reference machine.
const WORKERS: usize = 2;
/// Most owner updates in one `churn_d2` run. The owner republishes back to
/// back from the start of the warmup until the load ends, so that every
/// measured phase competes with signing; an update takes about 5 s on the
/// reference machine. The cap bounds the process's memory peak, which grows
/// with the number of updates, in long runs.
const MAX_CHURN_UPDATES: usize = 16;
/// Records redrawn per owner update.
const CHANGES_PER_UPDATE: usize = 3;
/// Answers put through the tamper gate per run.
const TAMPER_SAMPLE: usize = 16;
/// Answers replayed layer by layer in a traced run.
const REPLAY_SAMPLE: usize = 100;
/// Round trips behind `service.ping_us` and `service.rtt_us`.
const PROBES: usize = 200;
/// Sub-windows the open and the closed loop are split into, by due time and
/// by answer time. `verified_p50_ms` is the median of their latency medians
/// and `capacity_qps` the median of their answer rates: the host of the
/// reference machine steals CPU in bursts of about a second, and a burst
/// then moves the sub-windows it hits rather than the reported value.
const SUB_WINDOWS: usize = 10;
/// Republications after the load in a run without churn.
const REPUBLISH_REPEATS: usize = 3;
/// Shares of `--seconds`: warmup, open loop, closed loop.
const WARMUP_SHARE: f64 = 0.1;
const OPEN_LOOP_SHARE: f64 = 0.7;
const CAPACITY_SHARE: f64 = 0.2;

struct Workload {
    name: &'static str,
    n: usize,
    dims: usize,
    mode: SigningMode,
    mix: Mix,
    /// Open-loop arrival rate, frozen at about a quarter of the workload's
    /// `capacity_qps` on the reference machine.
    offered_qps: f64,
    /// The owner republishes back to back while users read.
    churn: bool,
    /// Set-ups per untraced run; `setup_s` is their median. A build that
    /// takes a few seconds follows the host's CPU-speed drift, so short
    /// builds are repeated more often.
    setups: usize,
}

fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let w = match (name, tiny) {
        ("mixed_d2", false) => Workload {
            name: "mixed_d2",
            n: 128,
            dims: 2,
            mode: SigningMode::OneSignature,
            mix: Mix::ZipfPool {
                pool: 4096,
                lo: 9,
                hi: 13,
            },
            offered_qps: 250.0,
            churn: false,
            setups: 7,
        },
        ("range_d1", false) => Workload {
            name: "range_d1",
            n: 5_000,
            dims: 1,
            mode: SigningMode::OneSignature,
            mix: Mix::Fresh { lo: 100, hi: 3000 },
            offered_qps: 70.0,
            churn: false,
            setups: 3,
        },
        ("churn_d2", false) => Workload {
            name: "churn_d2",
            n: 64,
            dims: 2,
            mode: SigningMode::MultiSignature,
            mix: Mix::ZipfPool {
                pool: 4096,
                lo: 9,
                hi: 13,
            },
            offered_qps: 110.0,
            churn: true,
            setups: 3,
        },
        ("mixed_d2", true) => Workload {
            n: 16,
            mix: Mix::ZipfPool {
                pool: 256,
                lo: 2,
                hi: 5,
            },
            offered_qps: 100.0,
            ..workload("mixed_d2", false)?
        },
        ("range_d1", true) => Workload {
            n: 300,
            mix: Mix::Fresh { lo: 10, hi: 60 },
            offered_qps: 100.0,
            ..workload("range_d1", false)?
        },
        ("churn_d2", true) => Workload {
            n: 10,
            mix: Mix::ZipfPool {
                pool: 256,
                lo: 2,
                hi: 5,
            },
            offered_qps: 100.0,
            ..workload("churn_d2", false)?
        },
        _ => return None,
    };
    Some(w)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out: "perfbench/results".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = value()?,
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A published deployment: the owner, the bound service and what users see.
struct Deployment {
    owner: DataOwner,
    service: QueryService,
    publication: Publication,
    /// A copy of the served structure for the traced run's replay pass.
    replay_server: Option<Server>,
    /// Structure size in MB and signature count of the served tree.
    tree_stats: (f64, usize),
}

/// Key generation, build, bind and the first verified answer: one set-up.
fn set_up(
    w: &Workload,
    data: &Dataset,
    key_seed: u64,
    streams: &Streams,
    trace: Option<&mut Trace>,
) -> Result<(Deployment, Duration), String> {
    let data = data.clone();
    let t0 = Instant::now();
    let scheme = SignatureScheme::new_rsa(KEY_BITS, key_seed);
    let t1 = Instant::now();
    let owner = DataOwner::new(data, scheme, w.mode);
    let tree = owner.outsource();
    let t2 = Instant::now();
    let tree_stats = (
        tree.stats().structure_bytes as f64 / (1 << 20) as f64,
        tree.signature_count(),
    );
    let replay_server = trace
        .is_some()
        .then(|| Server::new(owner.dataset().clone(), tree.clone()));
    let t3 = Instant::now();
    let service = QueryService::bind(
        ServiceConfig::ephemeral().workers(WORKERS),
        Server::new(owner.dataset().clone(), tree),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let meta = owner.publish();
    let publication = Publication::new(meta.public_key, meta.template, meta.epoch);
    let t4 = Instant::now();
    let mut client = ServiceClient::connect(service.local_addr()).map_err(|e| e.to_string())?;
    let query = streams.stream("first-answer").next_query();
    let mut tally = Tally::default();
    let (epoch, response) = load::query_pinned(&mut client, &publication, &query, &mut tally)?;
    publication
        .verify(&query, &response, epoch)
        .map_err(|e| format!("first answer failed verification: {e}"))?;
    let t5 = Instant::now();
    if let Some(trace) = trace {
        let root = trace.span("setup", t0, t5, None, 0);
        trace.span("crypto.keygen", t0, t1, Some(root), 0);
        trace.span("authquery.build", t1, t2, Some(root), 0);
        trace.span("service.bind", t3, t4, Some(root), 0);
        trace.span("first.answer", t4, t5, Some(root), 0);
    }
    let setup = (t5 - t0) - (t3 - t2);
    Ok((
        Deployment {
            owner,
            service,
            publication,
            replay_server,
            tree_stats,
        },
        setup,
    ))
}

/// One owner update: redraw a few records, rebuild, swap the service over
/// and announce the epoch. Returns (build + swap, swap).
fn republish(
    owner: &mut DataOwner,
    service: &QueryService,
    publication: &Publication,
    rng: &mut Rng,
) -> Result<(Duration, Duration), String> {
    let next = inputs::updated(owner.dataset(), CHANGES_PER_UPDATE, rng);
    owner.republish(next);
    let t0 = Instant::now();
    let server = Server::new(owner.dataset().clone(), owner.outsource());
    let t1 = Instant::now();
    service
        .republish(server)
        .map_err(|e| format!("republish: {e}"))?;
    let t2 = Instant::now();
    publication.announce(owner.epoch());
    Ok((t2 - t0, t2 - t1))
}

/// `StatsDeep` counters over a measured window.
struct Window {
    stats: StatsDeep,
    cpu: std::collections::BTreeMap<String, u64>,
    at: Instant,
}

impl Window {
    fn open(service: &QueryService) -> Window {
        Window {
            stats: service.stats_deep(),
            cpu: procfs::thread_cpu_ns(),
            at: Instant::now(),
        }
    }
}

struct Outcome {
    correct: bool,
    tally: Tally,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Reported in the untraced run too, but not a gated metric.
    extra: Vec<Metric>,
    /// Median self time per span name (traced run).
    span_self: Vec<Metric>,
    /// Median verified latency of each open-loop sub-window, in ms.
    window_p50_ms: Vec<f64>,
    /// Each set-up's time, in s.
    setups_s: Vec<f64>,
    tamper_checks: u64,
    errors: Vec<String>,
    trace: Option<Trace>,
}

fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let seed = args.seed;
    let secs = args.seconds;
    let data = inputs::dataset(w.n, w.dims, DATASET_SEED);
    let streams = Streams::new(&data, w.mix, seed);
    let mut trace = args.trace.then(|| Trace::new(Instant::now()));
    let mut errors = Vec::new();
    let mut tally = Tally::default();

    // --- Set-up, repeated; the last deployment serves the load. ----------
    let repeats = if args.trace { 1 } else { w.setups };
    let mut setups = Vec::new();
    let mut deployment = None;
    for r in 0..repeats {
        if let Some(old) = deployment.take() {
            let Deployment { service, .. } = old;
            service.shutdown();
        }
        let key_seed = Rng::stream(seed, &format!("key-{r}")).next_u64();
        let (d, took) = set_up(w, &data, key_seed, &streams, trace.as_mut())?;
        setups.push(took.as_secs_f64());
        tally.attempted += 1;
        tally.verified += 1;
        deployment = Some(d);
    }
    let Deployment {
        mut owner,
        service,
        publication,
        replay_server,
        tree_stats,
    } = deployment.expect("at least one set-up");
    let addr = service.local_addr();

    let warmup = Duration::from_secs_f64(secs * WARMUP_SHARE);
    let open_window = Duration::from_secs_f64(secs * OPEN_LOOP_SHARE);
    let capacity_window = Duration::from_secs_f64(secs * CAPACITY_SHARE);
    let mut update_rng = Rng::stream(seed, "updates");

    let mut untraced_lat = Vec::new();
    let mut untraced_windows = Vec::new();
    let mut traced_lat = Vec::new();
    let mut lags = Vec::new();
    let mut kept: Vec<Answer> = Vec::new();
    let (mut resp_bytes, mut answers) = (0u64, 0u64);
    let load_done = AtomicBool::new(false);
    let (republished, window_stats, capacity) = std::thread::scope(|scope| {
        // --- The owner republishing back to back (churn). ----------------
        let owner_thread = w.churn.then(|| {
            let (service, publication, owner, rng, load_done) = (
                &service,
                &publication,
                &mut owner,
                &mut update_rng,
                &load_done,
            );
            scope.spawn(move || {
                let mut updates = Vec::new();
                while updates.is_empty()
                    || (!load_done.load(Ordering::SeqCst) && updates.len() < MAX_CHURN_UPDATES)
                {
                    updates.push(republish(owner, service, publication, rng)?);
                }
                Ok::<_, String>(updates)
            })
        });

        // --- Warmup: its own query stream, excluded by the window deltas.
        let warm = load::closed_loop(
            addr,
            &publication,
            vec![streams.stream("warmup")],
            warmup,
            usize::MAX,
            true,
        );
        tally.add(warm.tally);

        // --- Open loop: the latency window. ----------------------------
        let before = Window::open(&service);
        let halves: &[(&str, bool)] = if args.trace {
            &[("measure", false), ("measure-traced", true)]
        } else {
            &[("measure", false)]
        };
        let half = open_window / halves.len() as u32;
        for (k, (name, traced)) in halves.iter().enumerate() {
            let due = inputs::arrivals(w.offered_qps, half, seed, &format!("arrivals-{name}"));
            let queries = streams.stream(name).take(due.len());
            let keep = if *traced {
                REPLAY_SAMPLE
            } else {
                TAMPER_SAMPLE
            };
            let keep_every = (due.len() / keep).max(1) as u64;
            let ol = load::open_loop(
                addr,
                &publication,
                &queries,
                &due,
                (k as u64) << 40,
                keep_every,
                if *traced { trace.as_mut() } else { None },
            );
            if *traced {
                traced_lat = ol.latencies_ms;
                kept = ol.kept;
            } else {
                untraced_windows = report::window_medians(
                    &ol.due_s,
                    &ol.latencies_ms,
                    half.as_secs_f64(),
                    SUB_WINDOWS,
                );
                untraced_lat = ol.latencies_ms;
                lags = ol.lags_ms;
                resp_bytes = ol.response_bytes;
                answers = ol.answers;
                if kept.is_empty() {
                    kept = ol.kept;
                }
            }
            tally.add(ol.tally);
        }
        let after = Window::open(&service);

        // --- Closed loop: capacity. -------------------------------------
        // One closed-loop connection per core; with churn the owner's thread
        // takes the second.
        let capacity_threads = if w.churn { 1 } else { 2 };
        let cap_streams = (0..capacity_threads)
            .map(|i| streams.stream(&format!("capacity-{i}")))
            .collect();
        let cap = load::closed_loop(
            addr,
            &publication,
            cap_streams,
            capacity_window,
            usize::MAX,
            true,
        );
        let capacity = (
            median(&report::window_rates(
                &cap.verified_at_s,
                capacity_window.as_secs_f64(),
                SUB_WINDOWS,
            )),
            cap.tally.verified,
        );
        tally.add(cap.tally);
        load_done.store(true, Ordering::SeqCst);

        let republished = match owner_thread {
            Some(h) => h.join().expect("owner thread panicked"),
            None => Ok(Vec::new()),
        };
        (republished, (before, after), capacity)
    });
    let republished = republished?;

    // --- Per-layer probes after the load (traced run only). ---------------
    let mut per_layer = Vec::new();
    if args.trace {
        let idle = Window::open(&service);
        std::thread::sleep(Duration::from_secs(1));
        let idle_cpu = procfs::cpu_delta_ns(&idle.cpu, &procfs::thread_cpu_ns(), "vaq-service");
        let idle_s = idle.at.elapsed().as_secs_f64();
        per_layer.push(Metric::new(
            "service.idle_cpu_ms_per_s",
            idle_cpu as f64 / 1e6 / idle_s,
            "ms/s",
            1,
        ));

        let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
        let pings: Vec<f64> = (0..PROBES)
            .map(|_| client.ping().map(|d| d.as_secs_f64() * 1e6))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("ping: {e}"))?;
        per_layer.push(Metric::new(
            "service.ping_us",
            median(&pings),
            "us",
            PROBES as u64,
        ));
        let rtt = load::closed_loop(
            addr,
            &publication,
            vec![streams.stream("rtt")],
            Duration::from_secs(60),
            PROBES,
            false,
        );
        per_layer.push(Metric::new(
            "service.rtt_us",
            median(&rtt.round_trips_us),
            "us",
            rtt.round_trips_us.len() as u64,
        ));
        if rtt.tally.failed > 0 {
            errors.extend(rtt.tally.errors);
        }
    }

    // --- Tamper gate. -----------------------------------------------------
    let tamper_sample: Vec<Answer> = kept
        .iter()
        .step_by((kept.len() / TAMPER_SAMPLE).max(1))
        .take(TAMPER_SAMPLE)
        .cloned()
        .collect();
    let tampered = tamper::check(&tamper_sample, seed, |q, r, e| publication.verify(q, r, e));
    errors.extend(tampered.escapes.iter().cloned());

    // --- Known defect: an honest answer to a range whose bound lies inside
    // the verifier's tolerance above an excluded record. 1 while it stands.
    let edge_rejects = {
        let query = inputs::QueryMaker::new(owner.dataset()).edge_range(
            &mut Rng::stream(seed, "edge"),
            0.5 * inputs::VERIFY_TOLERANCE,
        );
        let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
        let (epoch, response) = load::query_pinned(&mut client, &publication, &query, &mut tally)?;
        u64::from(publication.verify(&query, &response, epoch).is_err())
    };

    // --- Republication (the churn run republished during the load). -----
    let republished = if w.churn {
        republished
    } else {
        (0..REPUBLISH_REPEATS)
            .map(|_| republish(&mut owner, &service, &publication, &mut update_rng))
            .collect::<Result<Vec<_>, String>>()?
    };
    {
        let mut client = ServiceClient::connect(addr).map_err(|e| e.to_string())?;
        let query = streams.stream("after-republish").next_query();
        let (epoch, response) = load::query_pinned(&mut client, &publication, &query, &mut tally)?;
        tally.attempted += 1;
        match publication.verify(&query, &response, epoch) {
            Ok(_) if epoch == owner.epoch() => tally.verified += 1,
            Ok(_) => errors.push(format!("answer after republish at epoch {epoch}")),
            Err(e) => errors.push(format!("answer after republish failed: {e}")),
        }
    }
    let peak_rss = procfs::peak_rss_mb();

    // --- End-to-end metrics. -------------------------------------------------
    let (before, after) = window_stats;
    let open_s = after.at.duration_since(before.at).as_secs_f64();
    let p99 = quantile(&untraced_lat, 0.99);
    let beyond_p99 = untraced_lat.iter().filter(|&&l| l > p99).count() as u64;
    let n_lat = untraced_lat.len() as u64;
    let republish_s: Vec<f64> = republished.iter().map(|r| r.0.as_secs_f64()).collect();
    let swap_ms: Vec<f64> = republished
        .iter()
        .map(|r| r.1.as_secs_f64() * 1e3)
        .collect();
    // Gated in BENCHMARK.json: metrics whose spread over ten seeds on the
    // reference machine stays inside a bound of at most 25 %.
    let end_to_end = vec![
        Metric::new("setup_s", median(&setups), "s", setups.len() as u64),
        Metric::new("verified_p50_ms", median(&untraced_windows), "ms", n_lat),
        Metric::new("capacity_qps", capacity.0, "1/s", capacity.1),
        Metric::new(
            "resp_bytes",
            resp_bytes as f64 / answers.max(1) as f64,
            "B",
            answers,
        ),
        Metric::new("peak_rss_mb", peak_rss, "MB", 1),
    ];
    // Printed but not gated. Over ten seeds the tail and the republication
    // time spread by more than the largest allowed bound: they follow the
    // host's CPU steal and clock more than the program. A correct run fails
    // no request, and a metric that is 0 cannot carry a relative bound.
    let extra = vec![
        Metric::new("verified_p50_all_ms", median(&untraced_lat), "ms", n_lat),
        Metric::new("verified_p99_ms", p99, "ms", n_lat),
        Metric::new("verified_p99_beyond", beyond_p99 as f64, "count", n_lat),
        Metric::new(
            "republish_s",
            median(&republish_s),
            "s",
            republish_s.len() as u64,
        ),
        Metric::new(
            "failed_frac",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
            tally.attempted,
        ),
        Metric::new(
            "gen.lag_p99_ms",
            quantile(&lags, 0.99),
            "ms",
            lags.len() as u64,
        ),
        Metric::new("defect.range_edge_rejects", edge_rejects as f64, "count", 1),
        Metric::new(
            "tamper.noncanonical_flips",
            tampered.noncanonical as f64,
            "count",
            tampered.checks,
        ),
    ];
    let mut span_self = Vec::new();

    // --- Per-layer metrics (traced run). --------------------------------------
    if let Some(trace) = trace.as_mut() {
        let d = |f: fn(&StatsDeep) -> u64| f(&after.stats).saturating_sub(f(&before.stats)) as f64;
        let hits = d(|s| s.snapshot.cache_hits);
        let misses = d(|s| s.snapshot.cache_misses);
        let served = d(|s| s.snapshot.requests_served).max(1.0);
        let cpu =
            |prefix| procfs::cpu_delta_ns(&before.cpu, &after.cpu, prefix) as f64 / 1e6 / open_s;
        let replay_server = replay_server
            .as_ref()
            .expect("traced set-up keeps a replay copy");
        let replayed = layers::replay(&kept, replay_server, &publication, trace);
        errors.extend(replayed.failures.iter().cloned());
        let key_seed = Rng::stream(seed, "key-0").next_u64();
        let crypto = layers::crypto(&SignatureScheme::new_rsa(KEY_BITS, key_seed));
        let t = Instant::now();
        let (_, itree_stats) = ITreeBuilder::new(LpSplitOracle::new())
            .build_with_stats(&data.functions, data.domain.clone());
        let itree_s = t.elapsed().as_secs_f64();

        let selfs = trace.self_times_us();
        for (name, values) in &selfs {
            span_self.push(Metric::new(name, median(values), "us", values.len() as u64));
        }
        let span = |name: &str| selfs.get(name).map_or(0.0, |v| median(v));
        let spans = |name: &str| selfs.get(name).map_or(0, |v| v.len() as u64);
        let durations = trace.durations_us();
        let dur = |name: &str| durations.get(name).map_or(0.0, |v| median(v));
        let r = replayed.replayed;
        let traced_p50 = median(&traced_lat);
        let untraced_p50 = median(&untraced_lat);
        let mut m = vec![
            Metric::new(
                "service.cache_hit_rate",
                hits / (hits + misses).max(1.0),
                "ratio",
                (hits + misses) as u64,
            ),
            Metric::new(
                "service.cache_evictions",
                d(|s| s.snapshot.cache_evictions),
                "count",
                1,
            ),
            Metric::new(
                "service.sweeps_per_request",
                d(|s| s.reactor.sweeps.count) / served,
                "ratio",
                served as u64,
            ),
            Metric::new(
                "service.reactor_cpu_ms_per_s",
                cpu("vaq-service-rea"),
                "ms/s",
                1,
            ),
            Metric::new(
                "service.accept_cpu_ms_per_s",
                cpu("vaq-service-acc"),
                "ms/s",
                1,
            ),
            Metric::new(
                "service.worker_cpu_ms_per_s",
                cpu("vaq-service-wor"),
                "ms/s",
                1,
            ),
            Metric::new(
                "service.stale_retries",
                tally.stale_retries as f64,
                "count",
                tally.attempted,
            ),
            Metric::new(
                "service.swap_ms",
                median(&swap_ms),
                "ms",
                swap_ms.len() as u64,
            ),
            Metric::new(
                "service.bytes_out_per_response",
                d(|s| s.snapshot.bytes_out) / served,
                "B",
                served as u64,
            ),
            Metric::new(
                "service.wait_us",
                dur("service.wait"),
                "us",
                spans("service.wait"),
            ),
            Metric::new("authquery.verify_us", dur("authquery.verify"), "us", r),
            Metric::new("authquery.hash_ops", median(&replayed.hash_ops), "count", r),
            Metric::new("authquery.execute_us", dur("authquery.execute"), "us", r),
            Metric::new("authquery.vo_build_us", dur("authquery.vo_build"), "us", r),
            Metric::new(
                "authquery.nodes_per_query",
                median(&replayed.nodes),
                "count",
                r,
            ),
            Metric::new("authquery.vo_bytes", median(&replayed.vo_bytes), "B", r),
            Metric::new("authquery.build_s", dur("authquery.build") / 1e6, "s", 1),
            Metric::new("authquery.structure_mb", tree_stats.0, "MB", 1),
            Metric::new("authquery.signatures", tree_stats.1 as f64, "count", 1),
            Metric::new("itree.build_s", itree_s, "s", 1),
            Metric::new(
                "itree.oracle_calls",
                itree_stats.oracle_calls as f64,
                "count",
                1,
            ),
            Metric::new("itree.locate_us", dur("itree.locate"), "us", r),
            Metric::new("mht.verify_range_us", dur("mht.verify_range"), "us", r),
            Metric::new("crypto.verify_us", crypto.verify_us, "us", 64),
            Metric::new("crypto.sign_us", crypto.sign_us, "us", 8),
            Metric::new("crypto.keygen_s", dur("crypto.keygen") / 1e6, "s", 1),
            Metric::new("crypto.sha256_pair_ns", crypto.sha256_pair_ns, "ns", 20_000),
            Metric::new("wire.encode_us", dur("wire.encode"), "us", r),
            Metric::new("wire.decode_us", dur("wire.decode"), "us", r),
            Metric::new("wire.frame_bytes", median(&replayed.frame_bytes), "B", r),
            Metric::new(
                "gen.lag_p99_ms",
                quantile(&lags, 0.99),
                "ms",
                lags.len() as u64,
            ),
            Metric::new(
                "trace.verified_p50_ms",
                traced_p50,
                "ms",
                traced_lat.len() as u64,
            ),
            Metric::new("trace.untraced_p50_ms", untraced_p50, "ms", n_lat),
            Metric::new(
                "trace.overhead_ms",
                traced_p50 - untraced_p50,
                "ms",
                traced_lat.len() as u64,
            ),
            Metric::new(
                "client.decode_us",
                dur("client.decode"),
                "us",
                spans("client.decode"),
            ),
            Metric::new(
                "client.verify_us",
                dur("client.verify"),
                "us",
                spans("client.verify"),
            ),
            Metric::new(
                "self.authquery_process_us",
                span("authquery.process"),
                "us",
                r,
            ),
        ];
        per_layer.append(&mut m);
    }
    let correct = tally.failed == 0
        && errors.is_empty()
        && tampered.checks > 0
        && n_lat > 0
        && capacity.1 > 0;
    service.shutdown();
    Ok(Outcome {
        correct,
        tally,
        end_to_end,
        per_layer,
        extra,
        span_self,
        window_p50_ms: untraced_windows,
        setups_s: setups,
        tamper_checks: tampered.checks,
        errors,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vaq-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload, args.tiny) else {
        eprintln!("vaq-perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let steal_before = procfs::steal_ticks();
    let outcome = match run(&w, &args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vaq-perfbench: {} failed: {e}", w.name);
            std::process::exit(1);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let steal = procfs::steal_ticks().saturating_sub(steal_before);
    let mut provenance = String::new();
    let _ = write!(
        provenance,
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}, \
         \"offered_qps\": {}, \"key_bits\": {KEY_BITS}, \"nproc\": {nproc}, \"cpu\": {}, \
         \"kernel\": {}, \"commit\": {}, \"host_steal_ticks\": {steal}, \"attempted\": {}, \
         \"verified\": {}, \"failed\": {}, \"stale_retries\": {}, \"tamper_checks\": {}}}",
        report::json_str(w.name),
        args.seed,
        args.seconds,
        args.trace,
        args.tiny,
        w.offered_qps,
        report::json_str(&procfs::cpu_model()),
        report::json_str(&procfs::kernel()),
        report::json_str(&procfs::git_commit()),
        outcome.tally.attempted,
        outcome.tally.verified,
        outcome.tally.failed,
        outcome.tally.stale_retries,
        outcome.tamper_checks,
    );
    println!("provenance {provenance}");
    let shown = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let extra = outcome
        .extra
        .iter()
        .filter(|e| shown.iter().all(|m| m.name != e.name));
    for m in shown.iter().chain(extra) {
        println!(
            "metric {} = {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let windows = report::json_list(&outcome.window_p50_ms);
    println!("windows verified_p50_ms = {windows} ms");
    let setups = report::json_list(&outcome.setups_s);
    println!("setups setup_s = {setups} s");
    for m in &outcome.span_self {
        println!(
            "span {} self {} {} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let mut errors = outcome.errors.clone();
    errors.extend(outcome.tally.errors.iter().cloned());
    for e in &errors {
        println!("error {e}");
    }

    let stem = format!(
        "{}/{}-seed{}-trace{}",
        args.out,
        w.name,
        args.seed,
        u8::from(args.trace)
    );
    let errors_json: Vec<String> = errors.iter().map(|e| report::json_str(e)).collect();
    let results = format!(
        "{{\"provenance\": {provenance}, \"correct\": {}, \"end_to_end\": {}, \"extra\": {}, \
         \"window_p50_ms\": {windows}, \"setups_s\": {setups}, \"per_layer\": {}, \"span_self_us\": {}, \"errors\": [{}]}}\n",
        outcome.correct,
        report::metrics_object(&outcome.end_to_end, true),
        report::metrics_object(&outcome.extra, true),
        report::metrics_object(&outcome.per_layer, true),
        report::metrics_object(&outcome.span_self, true),
        errors_json.join(", ")
    );
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|_| std::fs::write(format!("{stem}.json"), results))
        .and_then(|_| match &outcome.trace {
            Some(t) => std::fs::write(format!("{stem}.spans.jsonl"), t.to_jsonl()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("vaq-perfbench: writing {stem}.*: {e}");
    }

    println!(
        "{}",
        report::result_line(
            outcome.correct,
            outcome.tally.attempted,
            outcome.tally.failed,
            shown
        )
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
