//! Multi-model tenancy: which models share the simulated machine, with
//! what traffic share and what deadline policy.
//!
//! A [`TenantSpec`] is deployment configuration, not measurement — the
//! per-tenant execution *costs* come from calibrating the real simulator
//! (`Experiment::run_observed`) and enter the engine as
//! [`crate::sim::TenantProfile`]s. Deadlines are expressed relative to the
//! tenant's own steady-state service time on a reference design point, so
//! one mix definition scales coherently across `--div` settings and
//! hardware ladders.

use lva_nn::ModelId;

/// One tenant of the serving tier.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    pub model: ModelId,
    /// Share of the offered traffic (the mix normalizes over all tenants).
    pub weight: f64,
    /// Relative deadline: a request must complete within
    /// `deadline_mult × steady_cycles(reference point)` of its arrival.
    pub deadline_mult: f64,
    /// Allowed deadline-miss fraction (the SLO error budget).
    pub miss_budget_frac: f64,
}

impl TenantSpec {
    /// Stable tenant name (the model's slug).
    pub fn name(&self) -> &'static str {
        self.model.slug()
    }
}

/// The paper-model serving mix: an interactive detector (YOLOv3-tiny)
/// carrying most of the traffic with a tight deadline, the full YOLOv3
/// as the heavy minority tenant, and VGG16 classification in between.
pub fn default_mix() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            model: ModelId::Yolov3Tiny,
            weight: 0.5,
            deadline_mult: 8.0,
            miss_budget_frac: 0.05,
        },
        TenantSpec {
            model: ModelId::Yolov3,
            weight: 0.2,
            deadline_mult: 10.0,
            miss_budget_frac: 0.05,
        },
        TenantSpec {
            model: ModelId::Vgg16,
            weight: 0.3,
            deadline_mult: 8.0,
            miss_budget_frac: 0.05,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_is_normalized_and_uniquely_named() {
        let mix = default_mix();
        assert_eq!(mix.len(), 3);
        let total: f64 = mix.iter().map(|t| t.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let mut names: Vec<&str> = mix.iter().map(TenantSpec::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
        assert!(mix.iter().all(|t| t.deadline_mult > 1.0 && t.miss_budget_frac > 0.0));
    }
}
