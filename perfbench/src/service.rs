//! The `service-sql` workload: a fixed, Zipf-skewed sequence of SQL
//! requests replayed against a fresh `OptimizerService` with a durable
//! store, from one client thread. The sequence is split into
//! statistics-epoch windows; each window holds a fixed multiset of
//! requests (Zipf counts over the distinct SQL strings) in an order
//! shuffled by the run's seed, and the epoch is bumped between windows.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sdp_catalog::Catalog;
use sdp_core::{recost, EnumeratorKind, Governor, Optimizer};
use sdp_cost::{CostModel, CostParams};
use sdp_metrics::alloc;
use sdp_metrics::CountersSnapshot;
use sdp_query::{infer_transitive_edges, QueryGenerator, Topology};
use sdp_service::{
    fingerprint_query, select, OptimizerService, PlanSource, ServiceConfig, ServiceRequest,
};
use sdp_sql::{parse_query, render_sql};

use crate::stats::{geometric_mean, median, percentile, tail_percentile, BestOf};
use crate::{Report, Rng, Run, Stop, SETUPS};

/// Generator seed of the distinct queries (part of the workload's
/// definition; the run's `--seed` shuffles the request order).
const INSTANCE_SEED: u64 = 7;
/// Instances generated per query family.
const PER_FAMILY: u64 = 34;
/// Requests per statistics-epoch window, and windows per replay.
const WINDOW: usize = 1000;
const WINDOWS: usize = 3;
/// Zipf exponent of the per-window request counts.
const ZIPF_S: f64 = 1.0;
/// Plan-cache capacity, below the number of distinct strings.
const CACHE_CAPACITY: usize = 160;
/// Replays every request index gets even when `--seconds` is shorter.
const MIN_REPLAYS: u64 = 3;
/// Scratch space for the durable store, under the working directory.
const SCRATCH: &str = ".perfbench";

fn families() -> [Topology; 7] {
    [
        Topology::Star(6),
        Topology::Chain(5),
        Topology::Chain(8),
        Topology::Chain(16),
        Topology::Cycle(10),
        Topology::star_chain(12),
        Topology::Star(14),
    ]
}

/// The plan every response for one SQL string must carry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    cost_bits: u64,
    digest: u64,
    plans_costed: u64,
    peak_model_bytes: u64,
}

struct Setup {
    catalog: Catalog,
    /// Distinct SQL strings, by Zipf rank (0 = most popular).
    sql: Vec<String>,
    /// The request sequence, as indices into `sql`.
    sequence: Vec<usize>,
}

/// What the untimed warm-up establishes and every replay must repeat.
struct Reference {
    /// The plan for each distinct string.
    expected: Vec<Expected>,
    /// The warm-up replay's observations.
    replay: Observed,
}

/// Per-request outcome of one replay, and its service counters.
#[derive(Debug, Clone, Default, PartialEq)]
struct Observed {
    fresh: Vec<bool>,
    counters: CountersSnapshot,
    store_writes: u64,
    store_bytes: u64,
}

/// Distinct SQL strings, ranked so that consecutive ranks rotate
/// through the query families.
fn distinct_sql(catalog: &Catalog) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut sql = Vec::new();
    for k in 0..PER_FAMILY {
        for topology in families() {
            let query = QueryGenerator::new(catalog, topology, INSTANCE_SEED).instance(k);
            let text = render_sql(catalog, &query);
            if seen.insert(text.clone()) {
                sql.push(text);
            }
        }
    }
    sql
}

/// Zipf counts for `distinct` ranks summing to `total` (largest
/// remainder rounding, ties to the more popular rank).
fn zipf_counts(distinct: usize, total: usize, s: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=distinct).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..distinct).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &r in order.iter().take(short) {
        counts[r] += 1;
    }
    counts
}

/// `WINDOWS` windows, each the same multiset of ranks in a seeded order.
fn sequence(distinct: usize, seed: u64) -> Vec<usize> {
    let counts = zipf_counts(distinct, WINDOW, ZIPF_S);
    let window: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
        .collect();
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(WINDOW * WINDOWS);
    for _ in 0..WINDOWS {
        let mut w = window.clone();
        rng.shuffle(&mut w);
        out.extend(w);
    }
    out
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        cache_capacity: CACHE_CAPACITY,
        parallelism: Some(1),
        enumerator: Some(EnumeratorKind::LevelScan),
        ..ServiceConfig::default()
    }
}

/// Optimize every distinct string as the service would (selector's
/// strategy, default governor) and check each cost against a recost.
fn expected_plans(catalog: &Catalog, sql: &[String]) -> Result<Vec<Expected>, Stop> {
    let optimizer = Optimizer::new(catalog)
        .with_parallelism(1)
        .with_enumerator(EnumeratorKind::LevelScan);
    let model = CostModel::new(catalog, CostParams::default());
    let governor = Governor::new();
    sql.iter()
        .map(|text| {
            let query = parse_query(catalog, text).map_err(|e| Stop::Failed(e.to_string()))?;
            let governed = optimizer
                .optimize_governed_full(&query, select::choose(&query), &governor)
                .map_err(|f| Stop::Failed(f.error.to_string()))?;
            let plan = &governed.plan;
            let mut rewritten = query.clone();
            infer_transitive_edges(&mut rewritten.graph);
            let re = recost(
                &plan.root,
                &model,
                &rewritten.graph,
                &rewritten.equiv_classes(),
            );
            if (re - plan.cost).abs() > 1e-9 * plan.cost {
                return Err(Stop::Incorrect(format!(
                    "plan cost {} but recost {re}: {text}",
                    plan.cost
                )));
            }
            Ok(Expected {
                cost_bits: plan.cost.to_bits(),
                digest: plan.root.structural_digest(),
                plans_costed: plan.stats.plans_costed,
                peak_model_bytes: plan.stats.peak_model_bytes,
            })
        })
        .collect()
}

/// Per-request timings of one traced request: parse, fingerprint, and
/// the service call on the bound query.
#[derive(Debug, Clone, Copy)]
struct TracedRequest {
    parse: Duration,
    fingerprint: Duration,
    get_plan: Duration,
}

/// Timings and observations of one replay.
struct Replay {
    latency: Vec<Duration>,
    traced: Vec<TracedRequest>,
    observed: Observed,
    costs: Vec<f64>,
    plans_costed: u64,
    heap_peak: u64,
    flush: Duration,
    degradations: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn open_service(catalog: &Catalog, store_dir: &Path) -> Result<OptimizerService, Stop> {
    OptimizerService::new(catalog.clone(), service_config())
        .with_store(store_dir)
        .map_err(|e| Stop::Failed(format!("opening the store: {e}")))
}

/// Replay the sequence once against a fresh service and store. With
/// `traced`, each request is split into parse, fingerprint and a
/// `get_plan` on the bound query; otherwise `get_plan` takes the SQL.
fn replay(
    setup: &Setup,
    expected: &[Expected],
    store_dir: &Path,
    traced: bool,
) -> Result<Replay, Stop> {
    let _ = std::fs::remove_dir_all(store_dir);
    let service = open_service(&setup.catalog, store_dir)?;
    let requests: Vec<ServiceRequest> = setup.sql.iter().map(ServiceRequest::sql).collect();
    let n = setup.sequence.len();
    let mut out = Replay {
        latency: Vec::with_capacity(n),
        traced: Vec::with_capacity(if traced { n } else { 0 }),
        observed: Observed::default(),
        costs: Vec::with_capacity(n),
        plans_costed: 0,
        heap_peak: 0,
        flush: Duration::ZERO,
        degradations: 0,
    };
    let live = alloc::live_bytes();
    alloc::reset_peak();
    for (i, &s) in setup.sequence.iter().enumerate() {
        if i > 0 && i % WINDOW == 0 {
            service.bump_stats_epoch();
        }
        let started = Instant::now();
        let response = if traced {
            let catalog = service.catalog();
            let query =
                parse_query(&catalog, &setup.sql[s]).map_err(|e| Stop::Failed(e.to_string()))?;
            let parsed = started.elapsed();
            std::hint::black_box(fingerprint_query(&catalog, &query));
            let fingerprinted = started.elapsed();
            let response = service.get_plan(&ServiceRequest::query(query));
            let total = started.elapsed();
            out.traced.push(TracedRequest {
                parse: parsed,
                fingerprint: fingerprinted - parsed,
                get_plan: total - fingerprinted,
            });
            response
        } else {
            service.get_plan(&requests[s])
        };
        out.latency.push(started.elapsed());
        let response = response.map_err(|e| Stop::Failed(format!("request {i}: {e}")))?;
        let expected = &expected[s];
        let plan = &response.plan;
        if plan.cost.to_bits() != expected.cost_bits
            || plan.root.structural_digest() != expected.digest
        {
            return Err(Stop::Incorrect(format!(
                "request {i}: served a different plan than the reference for its SQL"
            )));
        }
        let fresh = match response.source {
            PlanSource::Fresh => true,
            PlanSource::Cache => false,
            other => {
                return Err(Stop::Incorrect(format!(
                    "request {i}: unexpected source {other:?} with one client"
                )))
            }
        };
        if fresh && response.plans_costed != expected.plans_costed {
            return Err(Stop::Incorrect(format!(
                "request {i}: costed {} plans, reference {}",
                response.plans_costed, expected.plans_costed
            )));
        }
        out.observed.fresh.push(fresh);
        out.costs.push(plan.cost);
        out.plans_costed += response.plans_costed;
    }
    out.heap_peak = alloc::peak_bytes().saturating_sub(live);
    let flush_started = Instant::now();
    service.flush_store();
    out.flush = flush_started.elapsed();
    out.observed.counters = service.counters_snapshot();
    let store = service.store_counters().snapshot();
    if store.write_errors > 0 {
        return Err(Stop::Failed(format!(
            "{} store writes failed",
            store.write_errors
        )));
    }
    out.observed.store_writes = store.writes;
    out.degradations = service.governor_snapshot().degradations;
    drop(service);
    out.observed.store_bytes = dir_bytes(store_dir);
    let _ = std::fs::remove_dir_all(store_dir);
    Ok(out)
}

/// The timed set-up: catalog, distinct strings, the seeded sequence,
/// and one open and close of a service with its durable store under
/// `store_dir` (which the caller removes).
fn setup(seed: u64, store_dir: &Path) -> Result<Setup, Stop> {
    let catalog = Catalog::paper();
    let sql = distinct_sql(&catalog);
    let sequence = sequence(sql.len(), seed);
    drop(open_service(&catalog, store_dir)?);
    Ok(Setup {
        catalog,
        sql,
        sequence,
    })
}

/// The untimed warm-up: the reference plan of every distinct string and
/// one replay.
fn warm_up(setup: &Setup, store_dir: &Path) -> Result<Reference, Stop> {
    let expected = expected_plans(&setup.catalog, &setup.sql)?;
    let warm = replay(setup, &expected, store_dir, false)?;
    check_replay(&warm)?;
    Ok(Reference {
        expected,
        replay: warm.observed,
    })
}

/// Checks every replay must pass on its own: one client never
/// coalesces, no request degrades, and every fresh plan reached the
/// store.
fn check_replay(r: &Replay) -> Result<(), Stop> {
    let c = &r.observed.counters;
    if c.coalesced != 0 || r.degradations != 0 {
        return Err(Stop::Incorrect(format!(
            "{} coalesced and {} degraded requests with one client",
            c.coalesced, r.degradations
        )));
    }
    if r.observed.store_writes != c.misses {
        return Err(Stop::Incorrect(format!(
            "{} store writes for {} fresh plans",
            r.observed.store_writes, c.misses
        )));
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Run the `service-sql` workload, filling `report`.
pub fn run(run: &Run, process_start: Instant, report: &mut Report) -> Result<(), Stop> {
    let scratch = PathBuf::from(SCRATCH).join(format!("service-{}", std::process::id()));
    let result = measure(run, process_start, report, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    if std::fs::read_dir(SCRATCH).is_ok_and(|mut d| d.next().is_none()) {
        let _ = std::fs::remove_dir(SCRATCH);
    }
    result
}

fn measure(
    run: &Run,
    process_start: Instant,
    report: &mut Report,
    scratch: &Path,
) -> Result<(), Stop> {
    std::fs::create_dir_all(scratch)
        .map_err(|e| Stop::Failed(format!("creating {}: {e}", scratch.display())))?;
    let setup_dir = scratch.join("set-up");
    let first = setup(run.seed, &setup_dir)?;
    let mut setup_times = vec![process_start.elapsed().as_secs_f64()];
    let _ = std::fs::remove_dir_all(&setup_dir);
    let reference = warm_up(&first, &scratch.join("warm-up"))?;
    let n = first.sequence.len();
    let store_dir = scratch.join("store");
    let mut untraced = BestOf::new(n);
    let mut traced_total = BestOf::new(n);
    let mut parse = BestOf::new(n);
    let mut fingerprint = BestOf::new(n);
    let mut get_plan = BestOf::new(n);
    let mut flushes = Vec::new();
    let mut heap_peaks = Vec::new();
    let mut last: Option<Replay> = None;

    let measure_start = Instant::now();
    let budget = Duration::from_secs(run.seconds);
    let mut replays = 0u64;
    while measure_start.elapsed() < budget || untraced.min_reps() < MIN_REPLAYS {
        // Traced runs alternate untraced and traced replays, so the
        // tracing overhead is measured under the same conditions (and
        // the minimum untraced replays imply at least two traced ones).
        let traced = run.trace && replays % 2 == 1;
        report.attempted += n as u64;
        let r = replay(&first, &reference.expected, &store_dir, traced)?;
        check_replay(&r)?;
        if r.observed != reference.replay {
            return Err(Stop::Incorrect(
                "a replay's outcomes or counters differ from the warm-up replay".into(),
            ));
        }
        for (i, d) in r.latency.iter().enumerate() {
            if traced {
                traced_total.record(i, ms(*d));
                let t = &r.traced[i];
                parse.record(i, us(t.parse));
                fingerprint.record(i, us(t.fingerprint));
                get_plan.record(i, ms(t.get_plan));
            } else {
                untraced.record(i, ms(*d));
            }
        }
        if !traced {
            heap_peaks.push(r.heap_peak as f64);
        }
        flushes.push(ms(r.flush));
        last = Some(r);
        replays += 1;
        let due = setup_times.len() as f64 / SETUPS as f64 * run.seconds as f64;
        if setup_times.len() < SETUPS && measure_start.elapsed().as_secs_f64() >= due {
            setup_times.push(repeat_setup(run.seed, &setup_dir, &first)?);
        }
    }
    while setup_times.len() < SETUPS {
        setup_times.push(repeat_setup(run.seed, &setup_dir, &first)?);
    }
    let last = last.expect("at least one replay ran");

    let best = untraced.values().expect("every request ran").to_vec();
    let samples = format!("{n} requests, best of {} replays", untraced.min_reps());
    let p50 = percentile(&best, 50.0).0;
    let p99 = tail_percentile(&best, 99.0).ok_or_else(|| {
        Stop::Incorrect("fewer than 10 requests beyond the 99th percentile".into())
    })?;
    let c = &reference.replay.counters;
    report.note(format!(
        "{} distinct SQL strings, {} requests in {} epoch windows, {} fresh / {} cached",
        first.sql.len(),
        n,
        WINDOWS,
        c.misses,
        c.hits
    ));
    report.metric("opt_ms_gm", geometric_mean(&best), &samples);
    report.metric(
        "throughput_qps",
        n as f64 / (best.iter().sum::<f64>() / 1e3),
        &samples,
    );
    report.metric("latency_p50_ms", p50, &samples);
    report.metric("latency_p99_ms", p99, &samples);
    let exact = format!("{n} requests, exact");
    report.metric("plans_costed", last.plans_costed as f64 / n as f64, &exact);
    report.metric(
        "memo_peak_mb",
        reference
            .expected
            .iter()
            .map(|e| e.peak_model_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
        &format!("{} distinct plans, exact", first.sql.len()),
    );
    report.metric(
        "heap_peak_mb",
        median(&heap_peaks) / 1e6,
        &format!("median of {} replays", heap_peaks.len()),
    );
    report.metric("plan_cost_gm", geometric_mean(&last.costs), &exact);
    report.setup_metric(&setup_times);

    if run.trace {
        let traced = traced_total
            .values()
            .expect("every request traced")
            .to_vec();
        let tsamples = format!(
            "{n} requests, best of {} traced replays",
            traced_total.min_reps()
        );
        let mean = |b: &BestOf| {
            let v = b.values().expect("every request traced");
            v.iter().sum::<f64>() / v.len() as f64
        };
        let fresh = &reference.replay.fresh;
        let get = get_plan.values().expect("every request traced");
        let fp = fingerprint.values().expect("every request traced");
        let hit_probe: Vec<f64> = (0..n)
            .filter(|&i| !fresh[i])
            .map(|i| get[i] * 1e3 - fp[i])
            .collect();
        let miss: Vec<f64> = (0..n).filter(|&i| fresh[i]).map(|i| get[i]).collect();
        report.metric("trace.opt_ms_gm", geometric_mean(&traced), &tsamples);
        report.metric(
            "trace.overhead_ms",
            percentile(&traced, 50.0).0 - p50,
            "traced minus untraced latency_p50_ms",
        );
        report.metric("sql.parse_us", mean(&parse), &tsamples);
        report.metric(
            "sql.bytes_per_req",
            first
                .sequence
                .iter()
                .map(|&s| first.sql[s].len())
                .sum::<usize>() as f64
                / n as f64,
            "exact",
        );
        report.metric("fingerprint.us", mean(&fingerprint), &tsamples);
        report.metric(
            "cache.probe_us",
            hit_probe.iter().sum::<f64>() / hit_probe.len() as f64,
            "cached requests: get_plan minus fingerprint",
        );
        report.metric("cache.hit_ratio", c.hits as f64 / n as f64, "exact");
        report.metric("cache.evicted", c.evicted as f64, "exact");
        report.metric("cache.stale_evicted", c.stale_evicted as f64, "exact");
        report.metric(
            "governor.miss_ms",
            miss.iter().sum::<f64>() / miss.len() as f64,
            &tsamples,
        );
        report.metric(
            "governor.plans_per_miss",
            c.plans_costed as f64 / c.misses as f64,
            "exact",
        );
        report.metric("governor.degradations", last.degradations as f64, "exact");
        report.metric(
            "store.writes",
            reference.replay.store_writes as f64,
            "exact",
        );
        report.metric("store.write_errors", 0.0, "exact");
        report.metric("store.bytes", reference.replay.store_bytes as f64, "exact");
        report.metric(
            "store.flush_ms",
            median(&flushes),
            &format!("median of {} replays", flushes.len()),
        );
        report.metric("singleflight.coalesced", c.coalesced as f64, "exact");
    }
    Ok(())
}

/// Time a repeated set-up and check it reproduces the first one.
fn repeat_setup(seed: u64, store_dir: &Path, first: &Setup) -> Result<f64, Stop> {
    let started = Instant::now();
    let again = setup(seed, store_dir)?;
    let seconds = started.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(store_dir);
    if again.sql != first.sql || again.sequence != first.sequence {
        return Err(Stop::Incorrect(
            "a repeated set-up produced different requests".into(),
        ));
    }
    Ok(seconds)
}
