//! The client model: a closed-loop population of simulated users.
//!
//! §5.2: the benchmark is driven by "a custom load generator which simulates
//! a number of concurrent database users who submit queries to the database
//! server". Each client is closed-loop: it submits a query, waits for it to
//! complete (or fail), thinks for a while, and submits the next one. Failed
//! queries are resubmitted after a back-off, because "those aborted queries
//! likely need to be resubmitted to the system".

use crate::catalog::{TemplateCatalog, TemplateId};
use crate::mix::WorkloadMix;
use crate::templates::{QueryTemplate, WorkloadKind};
use serde::{Deserialize, Serialize};
use throttledb_sim::{SimDuration, SimRng, ZipfTable};

/// Parameters of the client population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientModel {
    /// Mean think time between a completion and the next submission.
    pub mean_think_time: SimDuration,
    /// Base back-off before resubmitting after a failure; consecutive
    /// failures double it (capped at
    /// [`ClientModel::retry_backoff_cap`]).
    pub retry_backoff: SimDuration,
    /// Ceiling on the exponential retry back-off: however long a failure
    /// streak grows, the next retry comes within this bound (± jitter).
    pub retry_backoff_cap: SimDuration,
    /// Probability that a submission is drawn from the OLTP/diagnostic mix
    /// instead of the main DSS templates (small but non-zero, as real
    /// deployments always have monitoring queries running).
    pub oltp_fraction: f64,
    /// Zipf skew over the DSS templates (0 = uniform template choice).
    pub template_skew: f64,
}

impl Default for ClientModel {
    fn default() -> Self {
        ClientModel {
            mean_think_time: SimDuration::from_secs(20),
            retry_backoff: SimDuration::from_secs(30),
            retry_backoff_cap: SimDuration::from_secs(240),
            oltp_fraction: 0.05,
            template_skew: 0.3,
        }
    }
}

impl ClientModel {
    /// Draw a think time for one client.
    pub fn think_time(&self, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_secs_f64(rng.exponential(self.mean_think_time.as_secs_f64()))
    }

    /// Draw the back-off before retry number `attempt` (1-based) of a
    /// failure streak: capped exponential back-off with ±50% jitter.
    ///
    /// The first attempt draws exactly the flat back-off the model used
    /// before the exponential ladder existed — one `jitter(0.5)` draw of
    /// `retry_backoff` — so seeded runs only diverge from the historical
    /// stream when a client actually fails twice in a row.
    pub fn retry_delay(&self, rng: &mut SimRng, attempt: u32) -> SimDuration {
        let exponent = attempt.saturating_sub(1).min(16);
        let backoff = (self.retry_backoff.as_secs_f64() * (1u64 << exponent) as f64)
            .min(self.retry_backoff_cap.as_secs_f64());
        SimDuration::from_secs_f64(backoff * rng.jitter(0.5))
    }

    /// Choose the next template for a client, given the DSS templates and the
    /// OLTP templates.
    pub fn choose_template<'a>(
        &self,
        dss: &'a [QueryTemplate],
        oltp: &'a [QueryTemplate],
        rng: &mut SimRng,
    ) -> &'a QueryTemplate {
        let mix = WorkloadMix::paper_default(self.oltp_fraction);
        self.choose_mixed(&mix, dss, &[], oltp, rng)
    }

    /// Choose the next template from an explicit [`WorkloadMix`] over the
    /// three template families. DSS-style families (SALES, TPC-H-like) use
    /// the Zipf skew over their template lists; OLTP picks uniformly. An
    /// empty `tpch` or `oltp` set folds that family's weight into SALES.
    pub fn choose_mixed<'a>(
        &self,
        mix: &WorkloadMix,
        sales: &'a [QueryTemplate],
        tpch: &'a [QueryTemplate],
        oltp: &'a [QueryTemplate],
        rng: &mut SimRng,
    ) -> &'a QueryTemplate {
        assert!(!sales.is_empty(), "need at least one SALES template");
        match mix.sample(rng, !tpch.is_empty(), !oltp.is_empty()) {
            WorkloadKind::Oltp => rng.choose(oltp),
            WorkloadKind::TpchLike => &tpch[rng.zipf(tpch.len(), self.template_skew)],
            WorkloadKind::Sales => &sales[rng.zipf(sales.len(), self.template_skew)],
        }
    }

    /// Copy-free variant of [`ClientModel::choose_mixed`]: choose the next
    /// template as an interned [`TemplateId`] from a [`TemplateCatalog`],
    /// drawing the skewed ranks from `skew`'s tables where they cover this
    /// model's skew and the catalog's lists.
    ///
    /// Consumes exactly the same RNG draws in the same order as
    /// `choose_mixed` over the catalog's family lists (verified by test),
    /// so the engine's switch to interned ids left every seeded run's
    /// template sequence unchanged.
    pub fn choose_id(
        &self,
        mix: &WorkloadMix,
        catalog: &TemplateCatalog,
        skew: &TemplateSkew,
        rng: &mut SimRng,
    ) -> TemplateId {
        let (sales, tpch, oltp) = (catalog.sales(), catalog.tpch(), catalog.oltp());
        assert!(!sales.is_empty(), "need at least one SALES template");
        let theta = self.template_skew;
        let rank = |table: &ZipfTable, n: usize, rng: &mut SimRng| {
            if table.covers(n, theta) {
                table.sample(rng)
            } else {
                rng.zipf(n, theta)
            }
        };
        match mix.sample(rng, !tpch.is_empty(), !oltp.is_empty()) {
            WorkloadKind::Oltp => *rng.choose(oltp),
            WorkloadKind::TpchLike => tpch[rank(&skew.tpch, tpch.len(), rng)],
            WorkloadKind::Sales => sales[rank(&skew.sales, sales.len(), rng)],
        }
    }
}

/// The zipf tables of a catalog's SALES and TPC-H-like lists at one
/// template skew, built once beside the catalog so that choosing a
/// template makes no `powf` call.
#[derive(Debug, Clone)]
pub struct TemplateSkew {
    sales: ZipfTable,
    tpch: ZipfTable,
}

impl TemplateSkew {
    /// The tables of `catalog`'s lists at skew `theta`.
    pub fn new(catalog: &TemplateCatalog, theta: f64) -> Self {
        TemplateSkew {
            sales: ZipfTable::new(catalog.sales().len(), theta),
            tpch: ZipfTable::new(catalog.tpch().len(), theta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::{oltp_templates, sales_templates, WorkloadKind};

    #[test]
    fn think_times_have_roughly_the_configured_mean() {
        let m = ClientModel::default();
        let mut rng = SimRng::seed_from_u64(3);
        let n = 5_000;
        let total: f64 = (0..n).map(|_| m.think_time(&mut rng).as_secs_f64()).sum();
        let mean = total / n as f64;
        assert!((mean - 20.0).abs() < 2.0, "mean think time {mean}");
    }

    #[test]
    fn retry_delay_is_positive_and_jittered() {
        let m = ClientModel::default();
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..100 {
            let d = m.retry_delay(&mut rng, 1);
            assert!(d > SimDuration::from_secs(10));
            assert!(d < SimDuration::from_secs(60));
        }
    }

    #[test]
    fn first_retry_matches_the_historical_flat_backoff() {
        // Attempt 1 must consume one jitter(0.5) draw of retry_backoff —
        // the exact stream the flat model drew — so seeded runs without
        // consecutive failures are unchanged by the backoff ladder.
        let m = ClientModel::default();
        let mut rng_new = SimRng::seed_from_u64(17);
        let mut rng_old = SimRng::seed_from_u64(17);
        for _ in 0..500 {
            let new = m.retry_delay(&mut rng_new, 1);
            let old =
                SimDuration::from_secs_f64(m.retry_backoff.as_secs_f64() * rng_old.jitter(0.5));
            assert_eq!(new, old);
        }
    }

    #[test]
    fn backoff_doubles_then_saturates_at_the_cap() {
        let m = ClientModel::default();
        // Expected deterministic bounds per attempt: base 30 s doubles
        // 30, 60, 120, 240 and stays at the 240 s cap; jitter is ±50%.
        for (attempt, base) in [(1u32, 30.0), (2, 60.0), (3, 120.0), (4, 240.0), (9, 240.0)] {
            let mut rng = SimRng::seed_from_u64(23);
            for _ in 0..200 {
                let d = m.retry_delay(&mut rng, attempt).as_secs_f64();
                assert!(d >= base * 0.5 - 1e-9, "attempt {attempt}: {d} too short");
                assert!(d <= base * 1.5 + 1e-9, "attempt {attempt}: {d} too long");
            }
        }
        // Huge streaks do not overflow the exponent.
        let mut rng = SimRng::seed_from_u64(29);
        let d = m.retry_delay(&mut rng, u32::MAX);
        assert!(d <= SimDuration::from_secs_f64(240.0 * 1.5));
    }

    #[test]
    fn template_choice_respects_oltp_fraction() {
        let m = ClientModel {
            oltp_fraction: 0.5,
            ..ClientModel::default()
        };
        let dss = sales_templates();
        let oltp = oltp_templates();
        let mut rng = SimRng::seed_from_u64(7);
        let mut oltp_count = 0;
        for _ in 0..2_000 {
            if m.choose_template(&dss, &oltp, &mut rng).kind == WorkloadKind::Oltp {
                oltp_count += 1;
            }
        }
        assert!(
            (800..1200).contains(&oltp_count),
            "oltp picks: {oltp_count}"
        );
    }

    #[test]
    fn zero_oltp_fraction_never_picks_oltp() {
        let m = ClientModel {
            oltp_fraction: 0.0,
            ..ClientModel::default()
        };
        let dss = sales_templates();
        let oltp = oltp_templates();
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..500 {
            assert_eq!(
                m.choose_template(&dss, &oltp, &mut rng).kind,
                WorkloadKind::Sales
            );
        }
    }

    #[test]
    fn choose_mixed_draws_from_all_three_families() {
        use crate::templates::tpch_like_templates;
        let m = ClientModel::default();
        let mix = crate::mix::WorkloadMix::new(0.4, 0.4, 0.2);
        let sales = sales_templates();
        let tpch = tpch_like_templates();
        let oltp = oltp_templates();
        let mut rng = SimRng::seed_from_u64(13);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..500 {
            kinds.insert(m.choose_mixed(&mix, &sales, &tpch, &oltp, &mut rng).kind);
        }
        assert_eq!(kinds.len(), 3, "all families should be sampled: {kinds:?}");
    }

    #[test]
    fn choose_template_is_equivalent_to_the_paper_default_mix() {
        // The legacy entry point must consume the identical RNG stream as
        // choose_mixed with the paper-default mix, or seeded experiment
        // results would shift under the scenario generalization.
        let m = ClientModel::default();
        let sales = sales_templates();
        let oltp = oltp_templates();
        let mix = crate::mix::WorkloadMix::paper_default(m.oltp_fraction);
        let mut rng_a = SimRng::seed_from_u64(21);
        let mut rng_b = SimRng::seed_from_u64(21);
        for _ in 0..1_000 {
            let a = m.choose_template(&sales, &oltp, &mut rng_a);
            let b = m.choose_mixed(&mix, &sales, &[], &oltp, &mut rng_b);
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn choose_id_matches_choose_mixed_draw_for_draw() {
        use crate::catalog::TemplateCatalog;
        use crate::templates::tpch_like_templates;
        // The interned chooser must consume the identical RNG stream and
        // pick the identical template as the slice-based chooser, or the
        // template-id refactor would shift every seeded experiment.
        let m = ClientModel::default();
        let sales = sales_templates();
        let tpch = tpch_like_templates();
        let oltp = oltp_templates();
        let catalog = TemplateCatalog::from_templates(
            sales.iter().chain(tpch.iter()).chain(oltp.iter()).cloned(),
        );
        let mix = crate::mix::WorkloadMix::new(0.6, 0.25, 0.15);
        // Tables at the model's skew, and at another, which it must not
        // read.
        for theta in [m.template_skew, 0.7] {
            let skew = TemplateSkew::new(&catalog, theta);
            let mut rng_a = SimRng::seed_from_u64(41);
            let mut rng_b = SimRng::seed_from_u64(41);
            for _ in 0..2_000 {
                let by_ref = m.choose_mixed(&mix, &sales, &tpch, &oltp, &mut rng_a);
                let by_id = m.choose_id(&mix, &catalog, &skew, &mut rng_b);
                assert_eq!(by_ref.name, catalog.name(by_id));
            }
            assert_eq!(rng_a.next_u64(), rng_b.next_u64());
        }
    }

    #[test]
    fn all_dss_templates_are_reachable() {
        let m = ClientModel::default();
        let dss = sales_templates();
        let oltp = oltp_templates();
        let mut rng = SimRng::seed_from_u64(11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            seen.insert(m.choose_template(&dss, &oltp, &mut rng).name.clone());
        }
        let dss_seen = seen.iter().filter(|n| n.starts_with("sales_")).count();
        assert_eq!(
            dss_seen,
            dss.len(),
            "every template should eventually be chosen"
        );
    }
}
