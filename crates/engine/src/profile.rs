//! Per-template compilation/execution profiles, characterized with the real
//! optimizer before a simulation run.

use crate::config::ServerConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use throttledb_catalog::{sales_schema, tpch_schema, Catalog, SalesScale};
use throttledb_executor::ExecutionModel;
use throttledb_optimizer::Optimizer;
use throttledb_sim::SimRng;
use throttledb_sqlparse::parse;
use throttledb_workload::{
    oltp_templates, sales_templates, tpch_like_templates, QueryTemplate, TemplateCatalog,
    TemplateId, TemplateSkew,
};

/// Measured characteristics of compiling and executing one template.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompileProfile {
    /// Peak compilation memory measured with the real optimizer.
    pub peak_compile_bytes: u64,
    /// Transformation-rule applications the real optimizer performed.
    pub transformations: u64,
    /// Compile CPU seconds on the reference machine (derived from the
    /// transformation count via the calibration constants).
    pub compile_cpu_seconds: f64,
    /// Execution CPU seconds on one reference core.
    pub exec_cpu_seconds: f64,
    /// Bytes of base data the plan touches.
    pub exec_footprint_bytes: u64,
    /// Execution memory grant the plan requests.
    pub exec_grant_bytes: u64,
}

impl CompileProfile {
    /// Apply per-submission jitter (different literals, plan-shape noise).
    pub fn jittered(&self, rng: &mut SimRng) -> CompileProfile {
        let j = rng.jitter(0.20);
        let k = rng.jitter(0.25);
        CompileProfile {
            peak_compile_bytes: (self.peak_compile_bytes as f64 * j) as u64,
            transformations: (self.transformations as f64 * j) as u64,
            compile_cpu_seconds: self.compile_cpu_seconds * j,
            exec_cpu_seconds: self.exec_cpu_seconds * k,
            exec_footprint_bytes: (self.exec_footprint_bytes as f64 * k) as u64,
            exec_grant_bytes: (self.exec_grant_bytes as f64 * k) as u64,
        }
    }
}

/// Profiles for every template in the workload.
///
/// Templates are interned into a [`TemplateCatalog`] at characterization
/// time; the engine's hot path looks profiles up by [`TemplateId`] (a dense
/// vector index, no hashing, no string cloning), while the name-keyed map
/// remains for reporting and the table binaries.
#[derive(Debug, Clone)]
pub struct WorkloadProfiles {
    profiles: HashMap<String, CompileProfile>,
    /// The interned templates, id-addressable.
    catalog: TemplateCatalog,
    /// Profiles indexed by [`TemplateId::index`], parallel to the catalog.
    by_id: Vec<CompileProfile>,
    /// The catalog's zipf tables at the characterizing config's template
    /// skew, shared by every run.
    skew: TemplateSkew,
    /// DSS templates in workload order.
    pub dss: Vec<QueryTemplate>,
    /// TPC-H-like comparison templates (empty unless characterized via
    /// [`WorkloadProfiles::characterize_full`]).
    pub tpch: Vec<QueryTemplate>,
    /// OLTP/diagnostic templates.
    pub oltp: Vec<QueryTemplate>,
}

impl WorkloadProfiles {
    /// Characterize the SALES workload against the full-scale warehouse by
    /// compiling each template once with the real optimizer.
    pub fn characterize_sales(config: &ServerConfig) -> Self {
        let catalog = sales_schema(SalesScale::paper());
        Self::characterize(config, &catalog, sales_templates(), oltp_templates())
    }

    /// Characterize all three template families: SALES and OLTP against the
    /// warehouse schema, plus the TPC-H-like set against the TPC-H schema.
    /// Scenario runs use this so phases can shift their mix toward any
    /// family.
    pub fn characterize_full(config: &ServerConfig) -> Self {
        let mut profiles = Self::characterize_sales(config);
        let tpch_catalog = tpch_schema(30.0);
        let tpch = Self::characterize(config, &tpch_catalog, tpch_like_templates(), Vec::new());
        // Graft the TPC-H templates into the intern table; their ids extend
        // the SALES/OLTP id space without disturbing it.
        for (id, template) in tpch.catalog.iter() {
            let new_id = profiles.catalog.intern(template.clone());
            debug_assert_eq!(new_id.index(), profiles.by_id.len());
            profiles.by_id.push(tpch.by_id[id.index()]);
        }
        profiles.profiles.extend(tpch.profiles);
        profiles.tpch = tpch.dss;
        profiles.skew = TemplateSkew::new(&profiles.catalog, config.client_model.template_skew);
        profiles
    }

    /// Characterize an arbitrary template set against a catalog.
    pub fn characterize(
        config: &ServerConfig,
        catalog: &Catalog,
        dss: Vec<QueryTemplate>,
        oltp: Vec<QueryTemplate>,
    ) -> Self {
        let optimizer = Optimizer::new(catalog);
        let exec_model = ExecutionModel::default();
        let mut profiles = HashMap::new();
        let mut template_catalog = TemplateCatalog::new();
        let mut by_id = Vec::new();
        for template in dss.iter().chain(oltp.iter()) {
            let stmt = parse(&template.sql).expect("templates parse");
            let outcome = optimizer.optimize(&stmt).expect("templates compile");
            let exec = exec_model.profile(&outcome.plan, catalog);
            let profile = CompileProfile {
                peak_compile_bytes: outcome.stats.peak_memory_bytes,
                transformations: outcome.stats.transformations,
                compile_cpu_seconds: config.compile_seconds_base
                    + outcome.stats.transformations as f64
                        * config.compile_seconds_per_transformation,
                exec_cpu_seconds: exec.cpu_seconds * config.exec_cpu_calibration,
                exec_footprint_bytes: exec.footprint_bytes,
                exec_grant_bytes: exec.requested_grant_bytes,
            };
            let id = template_catalog.intern(template.clone());
            debug_assert_eq!(id.index(), by_id.len());
            by_id.push(profile);
            profiles.insert(template.name.clone(), profile);
        }
        WorkloadProfiles {
            profiles,
            skew: TemplateSkew::new(&template_catalog, config.client_model.template_skew),
            catalog: template_catalog,
            by_id,
            dss,
            tpch: Vec::new(),
            oltp,
        }
    }

    /// Profile of a template by name.
    pub fn profile(&self, name: &str) -> &CompileProfile {
        &self.profiles[name]
    }

    /// Profile of an interned template — the hot-path lookup: a dense
    /// vector index, no hashing.
    pub fn profile_of(&self, id: TemplateId) -> &CompileProfile {
        &self.by_id[id.index()]
    }

    /// The intern table of every characterized template.
    pub fn catalog(&self) -> &TemplateCatalog {
        &self.catalog
    }

    /// The catalog's zipf tables for choosing templates.
    pub(crate) fn template_skew(&self) -> &TemplateSkew {
        &self.skew
    }

    /// Number of characterized templates.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// True when no templates were characterized.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sales_characterization_matches_the_papers_magnitudes() {
        let config = ServerConfig::paper(30, true);
        let profiles = WorkloadProfiles::characterize_sales(&config);
        assert_eq!(profiles.dss.len(), 10);
        assert!(profiles.len() >= 14);
        for t in &profiles.dss {
            let p = profiles.profile(&t.name);
            // Compile memory: tens to hundreds of MB per SALES query.
            assert!(
                p.peak_compile_bytes > 50 << 20,
                "{} compile memory too small: {}",
                t.name,
                p.peak_compile_bytes
            );
            // Compile time in the paper's 10-90 s band.
            assert!(
                (10.0..=90.0).contains(&p.compile_cpu_seconds),
                "{} compile time {}s outside 10-90s",
                t.name,
                p.compile_cpu_seconds
            );
            assert!(p.exec_grant_bytes > 0);
            assert!(p.exec_footprint_bytes > 1 << 30);
        }
        // OLTP queries compile in well under a second and use trivial memory.
        for t in &profiles.oltp {
            let p = profiles.profile(&t.name);
            assert!(p.peak_compile_bytes < 2 << 20, "{}", t.name);
            assert!(p.compile_cpu_seconds < 5.0);
        }
    }

    #[test]
    fn full_characterization_covers_the_tpch_family() {
        let config = ServerConfig::quick(8, true);
        let profiles = WorkloadProfiles::characterize_full(&config);
        assert_eq!(profiles.dss.len(), 10);
        assert!(!profiles.tpch.is_empty());
        for t in &profiles.tpch {
            let p = profiles.profile(&t.name);
            assert!(p.peak_compile_bytes > 0, "{} has no profile", t.name);
        }
        // SALES profiles survive the merge untouched.
        for t in &profiles.dss {
            assert!(profiles.profile(&t.name).peak_compile_bytes > 50 << 20);
        }
    }

    #[test]
    fn id_indexed_profiles_agree_with_name_lookup() {
        let config = ServerConfig::quick(8, true);
        let profiles = WorkloadProfiles::characterize_full(&config);
        assert_eq!(profiles.catalog().len(), profiles.len());
        for (id, template) in profiles.catalog().iter() {
            assert_eq!(
                profiles.profile_of(id),
                profiles.profile(&template.name),
                "{} diverges between id and name lookup",
                template.name
            );
        }
        // Every family list is interned and reachable by id.
        assert_eq!(profiles.catalog().sales().len(), profiles.dss.len());
        assert_eq!(profiles.catalog().tpch().len(), profiles.tpch.len());
        assert_eq!(profiles.catalog().oltp().len(), profiles.oltp.len());
    }

    #[test]
    fn jitter_perturbs_but_preserves_magnitude() {
        let base = CompileProfile {
            peak_compile_bytes: 100 << 20,
            transformations: 30_000,
            compile_cpu_seconds: 45.0,
            exec_cpu_seconds: 120.0,
            exec_footprint_bytes: 10 << 30,
            exec_grant_bytes: 500 << 20,
        };
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100 {
            let j = base.jittered(&mut rng);
            assert!(j.peak_compile_bytes >= 75 << 20 && j.peak_compile_bytes <= 125 << 20);
            assert!(j.compile_cpu_seconds >= 30.0 && j.compile_cpu_seconds <= 60.0);
        }
    }
}
