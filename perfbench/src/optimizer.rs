//! The optimizer workloads, `dp-exhaustive` and `sdp-large`: a fixed
//! list of generated queries, optimized in round-robin rounds whose
//! visiting order is shuffled by the run's seed.

use std::time::{Duration, Instant};

use sdp_catalog::Catalog;
use sdp_core::dp::run_levels_with;
use sdp_core::sdp::SdpPruner;
use sdp_core::{
    recost, Algorithm, EnumContext, EnumeratorKind, LevelPruner, LevelScan, Optimizer, PlanNode,
    SdpConfig,
};
use sdp_cost::{CostModel, CostParams};
use sdp_metrics::alloc;
use sdp_query::{infer_transitive_edges, Query, QueryGenerator, RelSet, Topology};

use crate::host::alloc_calls;
use crate::layers::{TimedEnumerator, TimedPruner};
use crate::stats::{geometric_mean, percentile, BestOf};
use crate::{Report, Rng, Run, Stop, SETUPS};

/// Generator seed of the query instances. The query list is part of the
/// workload's definition; the run's `--seed` varies the schedule.
const INSTANCE_SEED: u64 = 7;

/// Rounds every query gets even when `--seconds` is shorter.
const MIN_ROUNDS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DpExhaustive,
    SdpLarge,
}

impl Kind {
    fn algorithm(self) -> Algorithm {
        match self {
            Kind::DpExhaustive => Algorithm::Dp,
            Kind::SdpLarge => Algorithm::Sdp(SdpConfig::paper()),
        }
    }

    /// The catalog and the `(label, query)` list.
    fn suite(self) -> (Catalog, Vec<(String, Query)>) {
        match self {
            Kind::DpExhaustive => {
                let catalog = Catalog::paper();
                let queries = [
                    Topology::Star(14),
                    Topology::Clique(9),
                    Topology::star_chain(14),
                    Topology::Cycle(16),
                    Topology::Chain(18),
                ]
                .into_iter()
                .map(|t| {
                    let q = QueryGenerator::new(&catalog, t, INSTANCE_SEED).instance(0);
                    (t.label(), q)
                })
                .collect();
                (catalog, queries)
            }
            Kind::SdpLarge => {
                let catalog = Catalog::extended(64);
                let queries = [
                    (Topology::Star(25), false),
                    (Topology::Star(35), true),
                    (Topology::Star(40), false),
                    (Topology::star_chain(25), true),
                    (Topology::star_chain(32), false),
                ]
                .into_iter()
                .map(|(t, ordered)| {
                    let generator = QueryGenerator::new(&catalog, t, INSTANCE_SEED);
                    if ordered {
                        (
                            format!("{} ordered", t.label()),
                            generator.ordered_instance(0),
                        )
                    } else {
                        (t.label(), generator.instance(0))
                    }
                })
                .collect();
                (catalog, queries)
            }
        }
    }
}

/// The deterministic facts of one optimization; every repetition of a
/// query must reproduce them exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Facts {
    plans_costed: u64,
    cost_bits: u64,
    digest: u64,
    peak_model_bytes: u64,
}

impl Facts {
    fn of(root: &PlanNode, plans_costed: u64, peak_model_bytes: u64) -> Self {
        Facts {
            plans_costed,
            cost_bits: root.cost.to_bits(),
            digest: root.structural_digest(),
            peak_model_bytes,
        }
    }
}

fn optimizer(catalog: &Catalog) -> Optimizer<'_> {
    Optimizer::new(catalog)
        .with_parallelism(1)
        .with_enumerator(EnumeratorKind::LevelScan)
}

/// The untimed warm-up pass: optimize every query once, check each
/// plan's cost against an independent recost, and return the facts
/// every timed call must reproduce.
fn warm_up(
    opt: &Optimizer<'_>,
    catalog: &Catalog,
    queries: &[(String, Query)],
    algorithm: Algorithm,
) -> Result<Vec<Facts>, Stop> {
    let model = CostModel::new(catalog, CostParams::default());
    let mut reference = Vec::with_capacity(queries.len());
    for (label, query) in queries {
        let plan = opt
            .optimize(query, algorithm)
            .map_err(|e| Stop::Failed(format!("{label}: {e}")))?;
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
                "{label}: plan cost {} but recost {re}",
                plan.cost
            )));
        }
        reference.push(Facts::of(
            &plan.root,
            plan.stats.plans_costed,
            plan.stats.peak_model_bytes,
        ));
    }
    Ok(reference)
}

/// Per-layer facts and busy times of one traced call.
#[derive(Debug, Clone, Copy)]
struct Traced {
    facts: Facts,
    total: Duration,
    enumerate: Duration,
    prune: Duration,
    costing: Duration,
    finalize: Duration,
    pairs: u64,
    level_plans: u64,
    costing_allocs: u64,
    partitions: u64,
    survivors: u64,
    created: u64,
    retained: u64,
    order_rescued: u64,
    sort_enforcers: u64,
    memo_groups_peak: u64,
}

/// `Optimizer::optimize` replicated from its public parts, with the pair
/// generator and pruner wrapped in timing decorators: rewrite and
/// context set-up, the level engine, then finalize. Costing is the level
/// time left after pair generation and pruning.
fn optimize_traced(
    catalog: &Catalog,
    query: &Query,
    kind: Kind,
    budget: sdp_core::Budget,
) -> Result<Traced, String> {
    let started = Instant::now();
    let mut rewritten = query.clone();
    infer_transitive_edges(&mut rewritten.graph);
    let model = CostModel::new(catalog, CostParams::default());
    let mut ctx = EnumContext::new(&rewritten, &model, budget);
    ctx.set_parallelism(1);
    ctx.set_enumerator(EnumeratorKind::LevelScan);
    let mut pruner = match kind.algorithm() {
        Algorithm::Sdp(config) => {
            ctx.set_phase("SDP");
            Some(TimedPruner::new(SdpPruner::new(&ctx, config)))
        }
        _ => {
            ctx.set_phase("DP");
            None
        }
    };
    let n = rewritten.graph.len();
    for i in 0..n {
        ctx.ensure_base_group(i);
    }
    ctx.memory.check().map_err(|e| e.to_string())?;
    let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
    let mut enumerator = TimedEnumerator::new(LevelScan);
    let plans_before = ctx.plans_costed;
    let allocs_before = alloc_calls();
    let levels_started = Instant::now();
    run_levels_with(
        &mut ctx,
        &atoms,
        n,
        pruner.as_mut().map(|p| p as &mut dyn LevelPruner),
        &mut enumerator,
    )
    .map_err(|e| e.to_string())?;
    let levels = levels_started.elapsed();
    let level_allocs = alloc_calls() - allocs_before;
    let level_plans = ctx.plans_costed - plans_before;
    let all = rewritten.graph.all_nodes();
    if ctx.memo.get(all).is_none() {
        return Err("no complete plan survived the levels".into());
    }
    let finalize_started = Instant::now();
    let root = ctx.finalize(all).map_err(|e| e.to_string())?;
    let finalize = finalize_started.elapsed();
    let total = started.elapsed();

    let prune = pruner.as_ref().map(|p| p.busy).unwrap_or_default();
    let stats = ctx.stats();
    let profile = ctx.profile();
    let sum = |f: fn(&sdp_core::LevelStats) -> u64| profile.iter().map(f).sum::<u64>();
    Ok(Traced {
        facts: Facts::of(&root, stats.plans_costed, stats.peak_model_bytes),
        total,
        enumerate: enumerator.busy.time,
        prune: prune.time,
        costing: levels.saturating_sub(enumerator.busy.time + prune.time),
        finalize,
        pairs: enumerator.pairs,
        level_plans,
        costing_allocs: level_allocs - enumerator.busy.allocs - prune.allocs,
        partitions: sum(|l| l.skyline_partitions),
        survivors: sum(|l| l.skyline_survivors),
        created: sum(|l| l.jcrs_created),
        retained: sum(|l| l.jcrs_retained),
        order_rescued: sum(|l| l.order_rescued),
        sort_enforcers: sum(|l| l.sort_enforcers),
        memo_groups_peak: profile.iter().map(|l| l.memo_groups).max().unwrap_or(0),
    })
}

impl Traced {
    /// The exact counters, which every traced round must repeat.
    fn counts(&self) -> [u64; 10] {
        [
            self.pairs,
            self.level_plans,
            self.costing_allocs,
            self.partitions,
            self.survivors,
            self.created,
            self.retained,
            self.order_rescued,
            self.sort_enforcers,
            self.memo_groups_peak,
        ]
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best-of trackers for the traced layers, one unit per query.
struct LayerTimes {
    total: BestOf,
    enumerate: BestOf,
    prune: BestOf,
    costing: BestOf,
    finalize: BestOf,
}

impl LayerTimes {
    fn new(n: usize) -> Self {
        LayerTimes {
            total: BestOf::new(n),
            enumerate: BestOf::new(n),
            prune: BestOf::new(n),
            costing: BestOf::new(n),
            finalize: BestOf::new(n),
        }
    }

    fn record(&mut self, i: usize, t: &Traced) {
        self.total.record(i, ms(t.total));
        self.enumerate.record(i, ms(t.enumerate));
        self.prune.record(i, ms(t.prune));
        self.costing.record(i, ms(t.costing));
        self.finalize.record(i, ms(t.finalize));
    }
}

/// Run one optimizer workload, filling `report`.
pub fn run(kind: Kind, run: &Run, process_start: Instant, report: &mut Report) -> Result<(), Stop> {
    let (catalog, queries) = kind.suite();
    let opt = optimizer(&catalog);
    let mut setup_times = vec![process_start.elapsed().as_secs_f64()];
    let n = queries.len();
    let algorithm = kind.algorithm();
    let reference = warm_up(&opt, &catalog, &queries, algorithm)?;
    let mut rng = Rng::new(run.seed);
    let mut untraced = BestOf::new(n);
    // Per-call heap peak above the live level at call start; the first
    // timed call of each query sets it, every later call must match.
    let mut heap: Vec<Option<u64>> = vec![None; n];
    let mut layers = LayerTimes::new(n);
    let mut traced: Vec<Option<Traced>> = vec![None; n];

    let measure_start = Instant::now();
    let budget = Duration::from_secs(run.seconds);
    while measure_start.elapsed() < budget || untraced.min_reps() < MIN_ROUNDS {
        for i in rng.permutation(n) {
            let (label, query) = &queries[i];
            report.attempted += 1;
            let live = alloc::live_bytes();
            alloc::reset_peak();
            let started = Instant::now();
            let result = opt.optimize(query, algorithm);
            let elapsed = started.elapsed();
            let peak = alloc::peak_bytes().saturating_sub(live);
            let plan = result.map_err(|e| Stop::Failed(format!("{label}: {e}")))?;
            let facts = Facts::of(
                &plan.root,
                plan.stats.plans_costed,
                plan.stats.peak_model_bytes,
            );
            if facts != reference[i] || *heap[i].get_or_insert(peak) != peak {
                return Err(Stop::Incorrect(format!(
                    "{label}: a timed call differs from the warm-up pass"
                )));
            }
            untraced.record(i, ms(elapsed));
            if run.trace {
                report.attempted += 1;
                let t = optimize_traced(&catalog, query, kind, opt.budget())
                    .map_err(|e| Stop::Failed(format!("{label} (traced): {e}")))?;
                if t.facts != reference[i] {
                    return Err(Stop::Incorrect(format!(
                        "{label}: the traced run differs from the untraced one"
                    )));
                }
                if traced[i].is_some_and(|prev| prev.counts() != t.counts()) {
                    return Err(Stop::Incorrect(format!(
                        "{label}: traced layer counters differ between rounds"
                    )));
                }
                layers.record(i, &t);
                traced[i] = Some(t);
            }
        }
        // Repeat the whole set-up at even steps through the interval.
        let due = setup_times.len() as f64 / SETUPS as f64 * run.seconds as f64;
        if setup_times.len() < SETUPS && measure_start.elapsed().as_secs_f64() >= due {
            setup_times.push(repeat_setup(kind));
        }
    }
    while setup_times.len() < SETUPS {
        setup_times.push(repeat_setup(kind));
    }

    let best = untraced.values().expect("every query ran").to_vec();
    let opt_ms_gm = geometric_mean(&best);
    let samples = format!("{n} queries, best of {} rounds", untraced.min_reps());
    for ((label, _), t) in queries.iter().zip(&best) {
        report.note(format!("{label}: best {t:.4} ms"));
    }
    report.metric("opt_ms_gm", opt_ms_gm, &samples);
    report.metric(
        "throughput_qps",
        n as f64 / (best.iter().sum::<f64>() / 1e3),
        &samples,
    );
    report.metric("latency_p50_ms", percentile(&best, 50.0).0, &samples);
    report.metric("latency_p99_ms", percentile(&best, 99.0).0, &samples);
    let exact = format!("{n} queries, exact");
    report.metric(
        "plans_costed",
        reference.iter().map(|f| f.plans_costed).sum::<u64>() as f64 / n as f64,
        &exact,
    );
    report.metric(
        "memo_peak_mb",
        reference
            .iter()
            .map(|f| f.peak_model_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
        &exact,
    );
    report.metric(
        "heap_peak_mb",
        heap.iter().flatten().copied().max().unwrap_or(0) as f64 / 1e6,
        &exact,
    );
    let costs: Vec<f64> = reference
        .iter()
        .map(|f| f64::from_bits(f.cost_bits))
        .collect();
    report.metric("plan_cost_gm", geometric_mean(&costs), &exact);
    report.setup_metric(&setup_times);

    if run.trace {
        let traced: Vec<Traced> = traced
            .into_iter()
            .map(|t| t.expect("every query traced"))
            .collect();
        layer_metrics(report, &layers, &traced, opt_ms_gm);
    }
    Ok(())
}

/// Time a repeated set-up: the catalog, the queries and the optimizer.
fn repeat_setup(kind: Kind) -> f64 {
    let started = Instant::now();
    let (catalog, queries) = kind.suite();
    let opt = optimizer(&catalog);
    let seconds = started.elapsed().as_secs_f64();
    std::hint::black_box((&opt, &queries));
    seconds
}

fn layer_metrics(out: &mut Report, layers: &LayerTimes, traced: &[Traced], untraced_gm: f64) {
    let n = traced.len() as f64;
    let best = |b: &BestOf| b.values().expect("every query traced").to_vec();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let sum = |f: fn(&Traced) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let total = best(&layers.total);
    let enumerate = best(&layers.enumerate);
    let prune = best(&layers.prune);
    let costing = best(&layers.costing);
    let finalize = best(&layers.finalize);
    let samples = format!(
        "{} queries x {} traced rounds",
        traced.len(),
        layers.total.min_reps()
    );
    let total_ms = mean(&total);

    out.metric("trace.opt_ms_gm", geometric_mean(&total), &samples);
    out.metric(
        "trace.overhead_ms",
        geometric_mean(&total) - untraced_gm,
        &samples,
    );
    let pairs = sum(|t| t.pairs);
    out.metric("enumerate.pairs", pairs / n, "exact");
    out.metric("enumerate.ms", mean(&enumerate), &samples);
    out.metric(
        "enumerate.ns_per_pair",
        enumerate.iter().sum::<f64>() * 1e6 / pairs,
        &samples,
    );
    out.metric("enumerate.share", mean(&enumerate) / total_ms, &samples);
    let plans = sum(|t| t.level_plans);
    out.metric("costing.ms", mean(&costing), &samples);
    out.metric("costing.plans", plans / n, "exact");
    out.metric(
        "costing.ns_per_plan",
        costing.iter().sum::<f64>() * 1e6 / plans,
        &samples,
    );
    out.metric(
        "costing.allocs_per_plan",
        sum(|t| t.costing_allocs) / plans,
        "exact",
    );
    out.metric("costing.share", mean(&costing) / total_ms, &samples);
    out.metric("prune.ms", mean(&prune), &samples);
    out.metric("prune.partitions", sum(|t| t.partitions) / n, "exact");
    out.metric("prune.survivors", sum(|t| t.survivors) / n, "exact");
    out.metric(
        "prune.keep_ratio",
        sum(|t| t.retained) / sum(|t| t.created),
        "exact",
    );
    out.metric("prune.order_rescued", sum(|t| t.order_rescued) / n, "exact");
    out.metric(
        "prune.sort_enforcers",
        sum(|t| t.sort_enforcers) / n,
        "exact",
    );
    out.metric("prune.share", mean(&prune) / total_ms, &samples);
    out.metric(
        "memo.groups_peak",
        traced.iter().map(|t| t.memo_groups_peak).max().unwrap_or(0) as f64,
        "exact",
    );
    out.metric(
        "memo.model_mb",
        traced
            .iter()
            .map(|t| t.facts.peak_model_bytes)
            .max()
            .unwrap_or(0) as f64
            / 1e6,
        "exact",
    );
    out.metric("finalize.ms", mean(&finalize), &samples);
    out.metric("finalize.share", mean(&finalize) / total_ms, &samples);
}
