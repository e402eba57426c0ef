//! Persisted benchmark-artifact pipeline for the networked service tier.
//!
//! Runs the service benchmark scenarios end to end — a single service, the
//! sharded tier at S = 1..8, a batched workload and a republish-churn run —
//! collects throughput, latency quantiles, per-stage breakdowns and cache
//! hit rates from the services' deep stats, and writes one schema-versioned
//! JSON artifact so successive PRs can be compared number for number.
//!
//! ```text
//! cargo run --release -p vaq-bench --bin bench_report
//! cargo run --release -p vaq-bench --bin bench_report -- --smoke --out target/bench_smoke.json
//! ```
//!
//! The binary validates its own output against the required schema fields
//! and exits nonzero when any is missing, which is what CI runs (with
//! `--smoke`) to keep the artifact schema from drifting silently.

use std::time::Duration;

use serde::Serialize;
use vaq_authquery::{IfmhTree, Query, Server, SigningMode};
use vaq_crypto::SignatureScheme;
use vaq_funcdb::Dataset;
use vaq_service::{
    LoadGenerator, LoadReport, QueryService, ServiceClient, ServiceConfig, ServiceError,
    ShardedDeployment,
};
use vaq_wire::{ErrorCode, Request, StatsDeep};
use vaq_workload::{uniform_dataset, QueryMix};

/// Version stamp of the artifact layout; bump when fields change shape.
/// v2 adds the reactor-health columns (sweep stats, stalls, shed counters)
/// and the `slow_reader` scenario. v3 adds the `crypto_microbench` section:
/// old-vs-new timings for the hot-path crypto rework (Montgomery `mod_pow`,
/// pooled DSA signing, fixed-base verify, block-batched SHA-256).
const SCHEMA_VERSION: u32 = 3;

/// Substrings every valid artifact must contain: the schema self-check CI
/// runs. Field names only — values vary run to run.
const REQUIRED_FIELDS: &[&str] = &[
    "\"schema_version\"",
    "\"benchmark\"",
    "\"mode\"",
    "\"seed\"",
    "\"scenarios\"",
    "\"name\"",
    "\"shards\"",
    "\"clients\"",
    "\"requests\"",
    "\"queries\"",
    "\"qps\"",
    "\"p50_micros\"",
    "\"p99_micros\"",
    "\"max_micros\"",
    "\"verified\"",
    "\"failures\"",
    "\"epoch_refreshes\"",
    "\"failovers\"",
    "\"stale_rejections\"",
    "\"scatter_leg_mean_micros\"",
    "\"cache_hits\"",
    "\"cache_misses\"",
    "\"cache_hit_rate\"",
    "\"cache_evictions\"",
    "\"requests_served\"",
    "\"errors\"",
    "\"stages\"",
    "\"stage\"",
    "\"count\"",
    "\"sum_micros\"",
    "\"mean_micros\"",
    "\"connections\"",
    "\"sweep_count\"",
    "\"sweep_mean_micros\"",
    "\"sweep_max_micros\"",
    "\"reactor_stalls\"",
    "\"slow_readers_shed\"",
    "\"connections_shed\"",
    "\"single\"",
    "\"sharded_s1\"",
    "\"sharded_s4\"",
    "\"sharded_s8\"",
    "\"batched\"",
    "\"multiplexed\"",
    "\"republish_churn\"",
    "\"slow_reader\"",
    "\"crypto_microbench\"",
    "\"ops\"",
    "\"old_ns_per_op\"",
    "\"new_ns_per_op\"",
    "\"speedup\"",
    "\"mod_pow\"",
    "\"dsa_sign\"",
    "\"dsa_verify\"",
    "\"sha256_pair\"",
    "\"div_rem\"",
    "\"rsa_sign\"",
];

/// One hot-path stage's aggregate across every service in a scenario.
#[derive(Serialize)]
struct StageRow {
    stage: String,
    count: u64,
    sum_micros: u64,
    max_micros: u64,
    mean_micros: f64,
}

/// One scenario's results: load-side throughput/latency plus the service
/// side's deep-stat breakdowns.
#[derive(Serialize)]
struct ScenarioRow {
    name: String,
    shards: usize,
    clients: usize,
    /// Concurrent TCP connections the scenario held against the tier (load
    /// threads times their connection fan-out, or threads times shards).
    connections: usize,
    requests: usize,
    queries: usize,
    qps: f64,
    p50_micros: u64,
    p99_micros: u64,
    max_micros: u64,
    batches: usize,
    batch_p50_micros: u64,
    batch_p99_micros: u64,
    verified: usize,
    failures: usize,
    epoch_refreshes: usize,
    failovers: u64,
    stale_rejections: u64,
    scatter_leg_mean_micros: u64,
    scatter_leg_max_micros: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    cache_evictions: u64,
    requests_served: u64,
    errors: u64,
    /// Reactor-thread health, summed across the scenario's services: total
    /// readiness sweeps with their mean/max duration, sweeps past the stall
    /// threshold, and both shed counters (write-queue budget, connection
    /// limit).
    sweep_count: u64,
    sweep_mean_micros: f64,
    sweep_max_micros: u64,
    reactor_stalls: u64,
    slow_readers_shed: u64,
    connections_shed: u64,
    stages: Vec<StageRow>,
}

/// The whole artifact.
#[derive(Serialize)]
struct BenchReport {
    schema_version: u32,
    benchmark: String,
    mode: String,
    seed: u64,
    /// Old-vs-new timings for the hot-path crypto rework (schema v3).
    crypto_microbench: Vec<vaq_bench::crypto_microbench::MicrobenchRow>,
    scenarios: Vec<ScenarioRow>,
}

struct Args {
    smoke: bool,
    out: String,
    seed: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_PR10.json".to_string(),
        seed: 0xbe7c,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                i += 1;
                args.out = argv.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                i += 1;
                args.seed = argv.get(i).and_then(|v| v.parse().ok()).unwrap_or(0xbe7c);
            }
            "--help" | "-h" => {
                println!("usage: bench_report [--smoke] [--out PATH] [--seed N]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

/// Run sizing: kept deliberately small — the artifact's value is the stage
/// breakdowns and relative numbers, not absolute load.
struct Sizing {
    records: usize,
    clients: usize,
    requests_per_client: usize,
    republishes: usize,
    /// Connections per load thread in the `multiplexed` scenario: the
    /// evented core's headline number. Full mode holds
    /// `clients * mux_fan_out` (≥ 5k) sockets from one process.
    mux_fan_out: usize,
    /// Flooding connections in the `slow_reader` scenario.
    slow_readers: usize,
    /// Record count for the `slow_reader` scenario's own dataset — sized so
    /// each response is tens of kilobytes and the floods overrun the
    /// write-queue budget within a few hundred requests.
    slow_records: usize,
}

impl Sizing {
    fn new(smoke: bool) -> Self {
        if smoke {
            Sizing {
                records: 12,
                clients: 2,
                requests_per_client: 3,
                republishes: 1,
                mux_fan_out: 8,
                slow_readers: 1,
                slow_records: 160,
            }
        } else {
            Sizing {
                records: 20,
                clients: 4,
                requests_per_client: 12,
                republishes: 3,
                mux_fan_out: 1280,
                slow_readers: 2,
                slow_records: 300,
            }
        }
    }
}

/// Sums per-service deep stats into one per-scenario stage table plus the
/// cache and error aggregates.
fn fold_deep(
    name: &str,
    shards: usize,
    connections: usize,
    report: &LoadReport,
    deep: &[StatsDeep],
) -> ScenarioRow {
    let mut stages: Vec<StageRow> = Vec::new();
    for service in deep {
        for (i, stage) in service.per_stage.iter().enumerate() {
            if stages.len() <= i {
                stages.push(StageRow {
                    stage: stage.stage.clone(),
                    count: 0,
                    sum_micros: 0,
                    max_micros: 0,
                    mean_micros: 0.0,
                });
            }
            let row = &mut stages[i];
            row.count += stage.histogram.count;
            row.sum_micros += stage.histogram.sum_micros;
            row.max_micros = row.max_micros.max(stage.histogram.max_micros);
        }
    }
    for row in &mut stages {
        row.mean_micros = if row.count == 0 {
            0.0
        } else {
            row.sum_micros as f64 / row.count as f64
        };
    }
    let sweep_count: u64 = deep.iter().map(|d| d.reactor.sweeps.count).sum();
    let sweep_sum_micros: u64 = deep.iter().map(|d| d.reactor.sweeps.sum_micros).sum();
    let cache_hits: u64 = deep.iter().map(|d| d.snapshot.cache_hits).sum();
    let cache_misses: u64 = deep.iter().map(|d| d.snapshot.cache_misses).sum();
    let probes = cache_hits + cache_misses;
    ScenarioRow {
        name: name.to_string(),
        shards,
        clients: report.clients,
        connections,
        requests: report.total_requests,
        queries: report.total_queries(),
        qps: report.throughput_qps(),
        p50_micros: report.latency_quantile_micros(0.50),
        p99_micros: report.latency_quantile_micros(0.99),
        max_micros: report.latency_quantile_micros(1.0),
        batches: report.batches,
        batch_p50_micros: report.batch_latency_quantile_micros(0.50),
        batch_p99_micros: report.batch_latency_quantile_micros(0.99),
        verified: report.verified,
        failures: report.failures,
        epoch_refreshes: report.epoch_refreshes,
        failovers: report.failovers,
        stale_rejections: report.stale_rejections,
        scatter_leg_mean_micros: report.scatter_leg_mean_micros(),
        scatter_leg_max_micros: report.scatter_leg_max_micros,
        cache_hits,
        cache_misses,
        cache_hit_rate: if probes == 0 {
            0.0
        } else {
            cache_hits as f64 / probes as f64
        },
        cache_evictions: deep.iter().map(|d| d.snapshot.cache_evictions).sum(),
        requests_served: deep.iter().map(|d| d.snapshot.requests_served).sum(),
        errors: deep.iter().map(|d| d.snapshot.errors).sum(),
        sweep_count,
        sweep_mean_micros: if sweep_count == 0 {
            0.0
        } else {
            sweep_sum_micros as f64 / sweep_count as f64
        },
        sweep_max_micros: deep
            .iter()
            .map(|d| d.reactor.sweeps.max_micros)
            .max()
            .unwrap_or(0),
        reactor_stalls: deep.iter().map(|d| d.reactor.reactor_stalls).sum(),
        slow_readers_shed: deep.iter().map(|d| d.reactor.slow_readers_shed).sum(),
        connections_shed: deep.iter().map(|d| d.reactor.connections_shed).sum(),
        stages,
    }
}

/// One single-service run under `mix`, returning the load report and the
/// service's deep stats scraped after the load drained.
fn run_single(
    name: &str,
    dataset: &Dataset,
    sizing: &Sizing,
    seed: u64,
    mix: QueryMix,
) -> ScenarioRow {
    run_single_fanned(
        name,
        dataset,
        sizing,
        seed,
        mix,
        1,
        sizing.requests_per_client,
    )
}

/// A single-service run with a per-thread connection fan-out: the
/// `multiplexed` scenario drives thousands of concurrent sockets through
/// the evented core from a handful of load threads.
fn run_single_fanned(
    name: &str,
    dataset: &Dataset,
    sizing: &Sizing,
    seed: u64,
    mix: QueryMix,
    fan_out: usize,
    requests_per_client: usize,
) -> ScenarioRow {
    let connections = sizing.clients * fan_out;
    let mut config = ServiceConfig::ephemeral()
        .workers(sizing.clients)
        // The warmup pass's sockets may still be draining while the
        // measured pass connects its own full fleet; leave headroom so
        // the limit never sheds a bench connection.
        .max_connections((3 * connections).max(10_000));
    if fan_out > 1 {
        // A fanned-out fleet is mostly idle by construction: each socket
        // waits out the rest of its wave between requests. Give those
        // simulated users a longer idle budget than the 30s default so the
        // service never reaps a socket the load generator still holds, and
        // size the cache so the warm pass actually replays into hits.
        config = config
            .read_timeout(Some(Duration::from_secs(300)))
            .cache_capacity(2 * connections);
    }
    let scheme = SignatureScheme::test_rsa(seed);
    let tree = IfmhTree::build(dataset, SigningMode::MultiSignature, &scheme);
    let service =
        QueryService::bind(config, Server::new(dataset.clone(), tree)).expect("bind service");
    let mut generator = LoadGenerator::new(
        service.local_addr(),
        sizing.clients,
        requests_per_client,
        dataset.template.clone(),
        scheme.public_key(),
    );
    generator.connections_per_client = fan_out;
    generator.mix = mix;
    generator.seed = seed;
    // Warmup pass, then an identical measured pass: the seeded streams
    // repeat exactly, so the measured pass runs against a warm cache and
    // the artifact's hit rate reflects steady-state serving.
    generator.run(dataset).expect("warmup run");
    let report = generator.run(dataset).expect("load run");
    let deep = ServiceClient::connect(service.local_addr())
        .and_then(|mut c| c.stats_deep())
        .expect("deep stats scrape");
    service.shutdown();
    fold_deep(name, 1, connections, &report, &[deep])
}

/// One sharded run at `shards` shards, deep stats folded across the fleet.
fn run_sharded(
    name: &str,
    dataset: &Dataset,
    sizing: &Sizing,
    seed: u64,
    shards: usize,
) -> ScenarioRow {
    let deployment = ShardedDeployment::launch(
        dataset,
        shards,
        SigningMode::MultiSignature,
        seed,
        // Each load client holds one connection per shard, and epoch
        // refreshes open extra short-lived ones; size the pool so the
        // bounded accept queue never sheds a client mid-run.
        ServiceConfig::ephemeral().workers(sizing.clients + 2),
    )
    .expect("launch sharded deployment");
    let mut generator = LoadGenerator::sharded(
        deployment.addrs().to_vec(),
        deployment.publication().clone(),
        sizing.clients,
        sizing.requests_per_client,
    );
    generator.seed = seed;
    // Same warm-cache protocol as the single-service scenarios.
    generator.run(dataset).expect("warmup run");
    let report = generator.run(dataset).expect("sharded load run");
    let deep = deployment.stats_deep();
    deployment.shutdown();
    fold_deep(name, shards, sizing.clients * shards, &report, &deep)
}

/// A sharded run with the owner republishing mid-load: clients ride the
/// rollout through typed stale-epoch rejections and signed-map refreshes,
/// all of which land in the artifact.
fn run_republish_churn(dataset: &Dataset, sizing: &Sizing, seed: u64) -> ScenarioRow {
    let mut deployment = ShardedDeployment::launch(
        dataset,
        2,
        SigningMode::MultiSignature,
        seed,
        // Republish-driven refreshes reconnect every client to every
        // shard while the old connections are still draining; an
        // undersized pool sheds those reconnects and aborts the run.
        ServiceConfig::ephemeral().workers(sizing.clients + 2),
    )
    .expect("launch sharded deployment");
    // Run a longer load than the steady-state scenarios so the mid-run
    // republishes land while clients are still in flight — otherwise the
    // artifact's stale-rejection and refresh counters are trivially zero.
    let mut generator = LoadGenerator::sharded(
        deployment.addrs().to_vec(),
        deployment.publication().clone(),
        sizing.clients,
        sizing.requests_per_client * 4,
    );
    generator.seed = seed;
    let load_dataset = dataset.clone();
    let load = std::thread::spawn(move || generator.run(&load_dataset).expect("churn load run"));
    for _ in 0..sizing.republishes {
        std::thread::sleep(Duration::from_millis(10));
        deployment.republish(dataset).expect("live republish");
    }
    let report = load.join().expect("load thread");
    let deep = deployment.stats_deep();
    deployment.shutdown();
    fold_deep("republish_churn", 2, sizing.clients * 2, &report, &deep)
}

/// Slow-reader shedding under the per-connection write-queue byte budget.
///
/// A handful of connections pipeline the same large query and never read
/// their responses, so queued-but-unflushed bytes climb until the service
/// sheds each flooder with a typed `Overloaded` goodbye. A normal load run
/// against the same service afterwards must verify every answer — the shed
/// is surgical, not collateral. The kernel's socket buffers absorb an
/// unknown amount before the userspace queue grows, so the flood loop
/// observes the shed counter rather than computing a request count.
fn run_slow_reader(sizing: &Sizing, seed: u64) -> ScenarioRow {
    /// Deliberately small budget so the floods trip it quickly; the
    /// shipping default is three orders of magnitude larger.
    const BUDGET_BYTES: usize = 64 << 10;
    /// Hard cap on requests per flooder — the loop normally exits on the
    /// shed counter long before this.
    const FLOOD_CAP: usize = 4000;

    let dataset = uniform_dataset(sizing.slow_records, 1, seed);
    let scheme = SignatureScheme::test_rsa(seed);
    let tree = IfmhTree::build(&dataset, SigningMode::MultiSignature, &scheme);
    let config = ServiceConfig::ephemeral()
        .workers(sizing.clients)
        .write_queue_budget_bytes(BUDGET_BYTES);
    let service =
        QueryService::bind(config, Server::new(dataset.clone(), tree)).expect("bind service");
    let addr = service.local_addr();

    let shed_target = sizing.slow_readers as u64;
    let request = Request::Query(Query::top_k(vec![0.5], sizing.slow_records));
    let mut typed_goodbyes = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sizing.slow_readers)
            .map(|_| {
                let (service, request) = (&service, &request);
                scope.spawn(move || {
                    let mut client = ServiceClient::connect(addr).expect("slow reader connects");
                    let mut sent = 0;
                    while sent < FLOOD_CAP && service.slow_readers_shed() < shed_target {
                        if client.send_tagged(request).is_err() {
                            break;
                        }
                        sent += 1;
                    }
                    client
                })
            })
            .collect();
        // Read each flooded socket back: responses flushed before the shed
        // arrive whole, then the typed goodbye.
        for handle in handles {
            let mut client = handle.join().expect("slow reader thread");
            client
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            loop {
                match client.receive() {
                    Ok(_) => continue,
                    Err(ServiceError::Remote(reply)) => {
                        if reply.code == ErrorCode::Overloaded {
                            typed_goodbyes += 1;
                        }
                        break;
                    }
                    Err(_) => break,
                }
            }
        }
    });

    // Healthy pass: same warm-cache protocol as the other scenarios, on the
    // service that just shed the floods.
    let mut generator = LoadGenerator::new(
        addr,
        sizing.clients,
        sizing.requests_per_client,
        dataset.template.clone(),
        scheme.public_key(),
    );
    generator.seed = seed;
    generator.run(&dataset).expect("warmup run");
    let report = generator.run(&dataset).expect("healthy load run");
    let deep = ServiceClient::connect(addr)
        .and_then(|mut c| c.stats_deep())
        .expect("deep stats scrape");
    service.shutdown();

    if report.failures != 0 {
        eprintln!(
            "bench_report: slow_reader healthy pass had {} failures",
            report.failures
        );
        std::process::exit(1);
    }
    if deep.reactor.slow_readers_shed == 0 || typed_goodbyes == 0 {
        eprintln!(
            "bench_report: slow_reader scenario never shed (counter {}, typed goodbyes {})",
            deep.reactor.slow_readers_shed, typed_goodbyes
        );
        std::process::exit(1);
    }
    fold_deep(
        "slow_reader",
        1,
        sizing.clients + sizing.slow_readers,
        &report,
        &[deep],
    )
}

fn main() {
    let args = parse_args();
    let sizing = Sizing::new(args.smoke);
    let dataset = uniform_dataset(sizing.records, 1, args.seed);

    eprintln!("bench_report: crypto microbenchmarks");
    let crypto_microbench = vaq_bench::crypto_microbench::run(args.smoke, args.seed);
    for row in &crypto_microbench {
        eprintln!(
            "  {:>12}: old {:>10.0} ns/op, new {:>10.0} ns/op ({:.2}x)",
            row.name, row.old_ns_per_op, row.new_ns_per_op, row.speedup
        );
    }

    eprintln!("bench_report: single service");
    let mut scenarios = vec![run_single(
        "single",
        &dataset,
        &sizing,
        args.seed,
        QueryMix::default(),
    )];
    for shards in 1..=8 {
        eprintln!("bench_report: sharded S={shards}");
        scenarios.push(run_sharded(
            &format!("sharded_s{shards}"),
            &dataset,
            &sizing,
            args.seed + shards as u64,
            shards,
        ));
    }
    eprintln!("bench_report: batched workload");
    scenarios.push(run_single(
        "batched",
        &dataset,
        &sizing,
        args.seed + 10,
        QueryMix::default().with_batches(1, 2, 4),
    ));
    eprintln!(
        "bench_report: multiplexed ({} connections)",
        sizing.clients * sizing.mux_fan_out
    );
    scenarios.push(run_single_fanned(
        "multiplexed",
        &dataset,
        &sizing,
        args.seed + 15,
        QueryMix::default(),
        sizing.mux_fan_out,
        // One request per simulated user per pass: every socket in the
        // fan-out carries traffic in both the warmup and the measured run.
        sizing.mux_fan_out,
    ));
    eprintln!("bench_report: republish churn");
    scenarios.push(run_republish_churn(&dataset, &sizing, args.seed + 20));
    eprintln!(
        "bench_report: slow reader shedding ({} flooders)",
        sizing.slow_readers
    );
    scenarios.push(run_slow_reader(&sizing, args.seed + 25));

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        benchmark: "vaq_service_bench_report".to_string(),
        mode: if args.smoke { "smoke" } else { "full" }.to_string(),
        seed: args.seed,
        crypto_microbench,
        scenarios,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize artifact");

    // Self-check: the artifact must speak the full schema (the compat JSON
    // layer is serialize-only, so the check is by field-name substring).
    let missing: Vec<&&str> = REQUIRED_FIELDS
        .iter()
        .filter(|field| !json.contains(**field))
        .collect();
    if !missing.is_empty() {
        eprintln!("bench_report: artifact is missing required schema fields: {missing:?}");
        std::process::exit(1);
    }

    std::fs::write(&args.out, format!("{json}\n")).unwrap_or_else(|e| {
        eprintln!("bench_report: cannot write {}: {e}", args.out);
        std::process::exit(1);
    });
    for scenario in &report.scenarios {
        eprintln!(
            "  {:>16}: {:>8.0} qps, p50 {:>6}us, p99 {:>6}us, hit rate {:.2}",
            scenario.name,
            scenario.qps,
            scenario.p50_micros,
            scenario.p99_micros,
            scenario.cache_hit_rate
        );
    }
    eprintln!(
        "bench_report: wrote {} ({} scenarios)",
        args.out,
        report.scenarios.len()
    );
}
