//! Experiment sizing: scaled-down defaults vs. the paper's full scale.
//!
//! The paper's Venice runs used 45 000 training measures and 75 000
//! generations per horizon — hours of compute across 8 horizons and several
//! executions. The default scale keeps every experiment's *shape* (who wins,
//! how coverage behaves across horizons) while fitting a laptop benchmark
//! run; `EVOFORECAST_FULL=1` restores the paper's numbers.

/// Sizing knobs shared by the experiment harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Venice: training hours.
    pub venice_train: usize,
    /// Venice: validation hours.
    pub venice_valid: usize,
    /// Steady-state generations per execution.
    pub generations: usize,
    /// Population size.
    pub population: usize,
    /// Maximum ensemble executions.
    pub executions: usize,
    /// MLP training epochs.
    pub mlp_epochs: usize,
    /// Whether this is the full paper-scale configuration.
    pub full: bool,
}

impl Scale {
    /// Laptop-sized defaults.
    pub(crate) fn quick() -> Scale {
        Scale {
            venice_train: 6_000,
            venice_valid: 2_000,
            generations: 6_000,
            population: 50,
            executions: 4,
            mlp_epochs: 60,
            full: false,
        }
    }

    /// The paper's full-scale parameters.
    pub fn full() -> Scale {
        Scale {
            venice_train: 45_000,
            venice_valid: 10_000,
            generations: 75_000,
            population: 100,
            executions: 5,
            mlp_epochs: 400,
            full: true,
        }
    }

    /// Select by the `EVOFORECAST_FULL` environment variable.
    pub fn from_env() -> Scale {
        match std::env::var("EVOFORECAST_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Scale::full(),
            _ => Scale::quick(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full() {
        let q = Scale::quick();
        let f = Scale::full();
        assert!(q.venice_train < f.venice_train);
        assert!(q.generations < f.generations);
        assert!(q.population <= f.population);
        assert!(q.executions <= f.executions);
        assert!(!q.full);
        assert!(f.full);
    }

    #[test]
    fn full_matches_paper_parameters() {
        let f = Scale::full();
        assert_eq!(f.venice_train, 45_000);
        assert_eq!(f.venice_valid, 10_000);
        assert_eq!(f.generations, 75_000);
        assert_eq!(f.population, 100);
    }

    #[test]
    fn from_env_defaults_to_quick() {
        // The test environment does not set the variable.
        if std::env::var("EVOFORECAST_FULL").is_err() {
            assert_eq!(Scale::from_env(), Scale::quick());
        }
    }
}
