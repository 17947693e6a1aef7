//! Timing decorators around the optimizer's two pluggable layers: the
//! pair generator (`core::enumerate`) and the level pruner
//! (`core::sdp` / `sdp-skyline`). They time and count each call and
//! forward arguments and results unchanged, so a traced run chooses the
//! same plans and costs the same number of alternatives as an
//! untraced one.

use std::time::{Duration, Instant};

use sdp_core::dp::LevelTable;
use sdp_core::{EnumContext, LevelPruner, PairEnumerator, PruneStats};
use sdp_query::RelSet;

use crate::host::alloc_calls;

/// Busy time and allocation calls spent inside one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub time: Duration,
    pub allocs: u64,
}

impl Busy {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let allocs = alloc_calls();
        let started = Instant::now();
        let out = f();
        self.time += started.elapsed();
        self.allocs += alloc_calls() - allocs;
        out
    }
}

/// A [`PairEnumerator`] that times `inner` and counts emitted pairs.
pub struct TimedEnumerator<E> {
    inner: E,
    pub busy: Busy,
    pub pairs: u64,
}

impl<E> TimedEnumerator<E> {
    pub fn new(inner: E) -> Self {
        TimedEnumerator {
            inner,
            busy: Busy::default(),
            pairs: 0,
        }
    }
}

impl<E: PairEnumerator> PairEnumerator for TimedEnumerator<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, ctx: &EnumContext<'_>, atoms: &[RelSet], up_to: usize) {
        let inner = &mut self.inner;
        self.busy.time(|| inner.prepare(ctx, atoms, up_to));
    }

    fn level_pairs(
        &mut self,
        ctx: &EnumContext<'_>,
        table: &LevelTable,
        level: usize,
    ) -> Vec<(RelSet, RelSet)> {
        let inner = &mut self.inner;
        let pairs = self.busy.time(|| inner.level_pairs(ctx, table, level));
        self.pairs += pairs.len() as u64;
        pairs
    }
}

/// A [`LevelPruner`] that times `inner`.
pub struct TimedPruner<P> {
    inner: P,
    pub busy: Busy,
}

impl<P> TimedPruner<P> {
    pub fn new(inner: P) -> Self {
        TimedPruner {
            inner,
            busy: Busy::default(),
        }
    }
}

impl<P: LevelPruner> LevelPruner for TimedPruner<P> {
    fn prune(&mut self, ctx: &EnumContext<'_>, level: usize, level_sets: &[RelSet]) -> Vec<RelSet> {
        let inner = &mut self.inner;
        self.busy.time(|| inner.prune(ctx, level, level_sets))
    }

    fn last_prune_stats(&self) -> PruneStats {
        self.inner.last_prune_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdp_catalog::Catalog;
    use sdp_core::dp::run_levels_with;
    use sdp_core::sdp::SdpPruner;
    use sdp_core::{Budget, LevelScan, SdpConfig};
    use sdp_cost::CostModel;
    use sdp_query::{QueryGenerator, Topology};

    /// Records every call's result, so a decorated and an undecorated
    /// run can be compared call by call.
    #[derive(Default)]
    struct Recording {
        pairs: Vec<Vec<(RelSet, RelSet)>>,
        victims: Vec<Vec<RelSet>>,
        stats: Vec<PruneStats>,
    }

    struct RecordingEnumerator<'r, E>(E, &'r mut Vec<Vec<(RelSet, RelSet)>>);

    impl<E: PairEnumerator> PairEnumerator for RecordingEnumerator<'_, E> {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn prepare(&mut self, ctx: &EnumContext<'_>, atoms: &[RelSet], up_to: usize) {
            self.0.prepare(ctx, atoms, up_to)
        }
        fn level_pairs(
            &mut self,
            ctx: &EnumContext<'_>,
            table: &LevelTable,
            level: usize,
        ) -> Vec<(RelSet, RelSet)> {
            let pairs = self.0.level_pairs(ctx, table, level);
            self.1.push(pairs.clone());
            pairs
        }
    }

    struct RecordingPruner<'r, P>(P, &'r mut Vec<Vec<RelSet>>, &'r mut Vec<PruneStats>);

    impl<P: LevelPruner> LevelPruner for RecordingPruner<'_, P> {
        fn prune(
            &mut self,
            ctx: &EnumContext<'_>,
            level: usize,
            level_sets: &[RelSet],
        ) -> Vec<RelSet> {
            let victims = self.0.prune(ctx, level, level_sets);
            self.1.push(victims.clone());
            self.2.push(self.0.last_prune_stats());
            victims
        }
    }

    /// Run SDP levels over a Star-9 query, recording what the layers
    /// hand back to the engine (outermost), optionally with the timing
    /// decorators inside the recorders.
    fn run(timed: bool) -> (Recording, u64, f64) {
        let catalog = Catalog::paper();
        let model = CostModel::with_defaults(&catalog);
        let query = QueryGenerator::new(&catalog, Topology::Star(9), 3).ordered_instance(0);
        let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
        let n = query.graph.len();
        let pruner = SdpPruner::new(&ctx, SdpConfig::paper());
        for i in 0..n {
            ctx.ensure_base_group(i);
        }
        let atoms: Vec<RelSet> = (0..n).map(RelSet::single).collect();
        let mut rec = Recording::default();
        if timed {
            let mut e = RecordingEnumerator(TimedEnumerator::new(LevelScan), &mut rec.pairs);
            let mut p = RecordingPruner(TimedPruner::new(pruner), &mut rec.victims, &mut rec.stats);
            run_levels_with(&mut ctx, &atoms, n, Some(&mut p), &mut e).unwrap();
            assert!(e.0.pairs > 0 && e.0.busy.time > Duration::ZERO);
            assert!(p.0.busy.time > Duration::ZERO);
        } else {
            let mut e = RecordingEnumerator(LevelScan, &mut rec.pairs);
            let mut p = RecordingPruner(pruner, &mut rec.victims, &mut rec.stats);
            run_levels_with(&mut ctx, &atoms, n, Some(&mut p), &mut e).unwrap();
        }
        let cost = ctx.finalize(query.graph.all_nodes()).unwrap().cost;
        (rec, ctx.plans_costed, cost)
    }

    #[test]
    fn decorators_forward_results_unchanged() {
        let (plain, plain_plans, plain_cost) = run(false);
        let (timed, timed_plans, timed_cost) = run(true);
        assert!(
            plain.victims.iter().any(|v| !v.is_empty()),
            "star must prune"
        );
        assert_eq!(plain.pairs, timed.pairs);
        assert_eq!(plain.victims, timed.victims);
        assert_eq!(plain.stats, timed.stats);
        assert_eq!(plain_plans, timed_plans);
        assert_eq!(plain_cost.to_bits(), timed_cost.to_bits());
    }

    #[test]
    fn timed_enumerator_counts_the_pairs_it_forwards() {
        let catalog = Catalog::paper();
        let model = CostModel::with_defaults(&catalog);
        let query = QueryGenerator::new(&catalog, Topology::Chain(6), 1).instance(0);
        let mut ctx = EnumContext::new(&query, &model, Budget::unlimited());
        for i in 0..6 {
            ctx.ensure_base_group(i);
        }
        let atoms: Vec<RelSet> = (0..6).map(RelSet::single).collect();
        let mut pairs = Vec::new();
        let mut e = RecordingEnumerator(TimedEnumerator::new(LevelScan), &mut pairs);
        run_levels_with(&mut ctx, &atoms, 6, None, &mut e).unwrap();
        let counted = e.0.pairs;
        assert_eq!(counted, pairs.iter().map(|p| p.len() as u64).sum::<u64>());
        assert_eq!(counted, ctx.profile().iter().map(|l| l.pairs).sum::<u64>());
    }
}
