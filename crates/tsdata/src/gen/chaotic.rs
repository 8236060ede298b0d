//! Chaotic maps and flows for stress tests and ablations.
//!
//! These give the test suite controlled chaotic workloads that are cheaper
//! than the Mackey-Glass integrator: the logistic and Hénon maps iterate in
//! nanoseconds, and the Lorenz system exercises the same RK4 machinery on a
//! non-delayed flow.

use crate::series::TimeSeries;

/// Logistic map `x_{t+1} = r x_t (1 - x_t)`.
///
/// # Panics
/// Panics when `n == 0`, `r` is outside `(0, 4]`, or `x0` outside `(0, 1)`.
pub fn logistic(n: usize, r: f64, x0: f64) -> TimeSeries {
    assert!(n > 0, "need at least one sample");
    assert!(r > 0.0 && r <= 4.0, "logistic r must be in (0, 4]");
    assert!(x0 > 0.0 && x0 < 1.0, "x0 must be in (0, 1)");
    let mut x = x0;
    let values = (0..n)
        .map(|_| {
            x = r * x * (1.0 - x);
            x
        })
        .collect();
    TimeSeries::new("logistic", values).expect("logistic map stays in [0,1]")
}

/// Hénon map x-coordinate: `x_{t+1} = 1 - a x_t² + y_t`, `y_{t+1} = b x_t`.
///
/// # Panics
/// Panics when `n == 0`.
fn henon(n: usize, a: f64, b: f64) -> TimeSeries {
    assert!(n > 0, "need at least one sample");
    let (mut x, mut y) = (0.1_f64, 0.1_f64);
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let nx = 1.0 - a * x * x + y;
        let ny = b * x;
        x = nx;
        y = ny;
        values.push(x);
    }
    TimeSeries::new("henon", values).expect("classic Hénon parameters stay bounded")
}

/// Classic Hénon parameters `a = 1.4`, `b = 0.3`.
pub fn henon_classic(n: usize) -> TimeSeries {
    henon(n, 1.4, 0.3)
}

/// Lorenz-63 system sampled on the x-coordinate, integrated with RK4.
///
/// # Panics
/// Panics when `n == 0` or `dt <= 0`.
pub fn lorenz_x(n: usize, dt: f64, sample_every: usize) -> TimeSeries {
    assert!(n > 0, "need at least one sample");
    assert!(dt > 0.0, "dt must be positive");
    assert!(sample_every > 0, "sample_every must be >= 1");
    const SIGMA: f64 = 10.0;
    const RHO: f64 = 28.0;
    const BETA: f64 = 8.0 / 3.0;

    let f = |s: [f64; 3]| -> [f64; 3] {
        [
            SIGMA * (s[1] - s[0]),
            s[0] * (RHO - s[2]) - s[1],
            s[0] * s[1] - BETA * s[2],
        ]
    };

    let mut s = [1.0, 1.0, 1.0];
    let mut values = Vec::with_capacity(n);
    let mut step = 0usize;
    while values.len() < n {
        let k1 = f(s);
        let mid1 = [
            s[0] + 0.5 * dt * k1[0],
            s[1] + 0.5 * dt * k1[1],
            s[2] + 0.5 * dt * k1[2],
        ];
        let k2 = f(mid1);
        let mid2 = [
            s[0] + 0.5 * dt * k2[0],
            s[1] + 0.5 * dt * k2[1],
            s[2] + 0.5 * dt * k2[2],
        ];
        let k3 = f(mid2);
        let end = [s[0] + dt * k3[0], s[1] + dt * k3[1], s[2] + dt * k3[2]];
        let k4 = f(end);
        for i in 0..3 {
            s[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        step += 1;
        if step.is_multiple_of(sample_every) {
            values.push(s[0]);
        }
    }
    TimeSeries::new("lorenz-x", values).expect("Lorenz attractor is bounded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use evoforecast_linalg::stats;

    #[test]
    fn logistic_stays_in_unit_interval() {
        let s = logistic(5000, 4.0, 0.3);
        assert!(s.values().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn logistic_fixed_point_for_small_r() {
        // r = 2.0: fixed point at 0.5.
        let s = logistic(500, 2.0, 0.3);
        let tail = &s.values()[400..];
        assert!(tail.iter().all(|&v| (v - 0.5).abs() < 1e-9));
    }

    #[test]
    fn logistic_chaotic_at_r4() {
        let s = logistic(10_000, 4.0, 0.3);
        let var = stats::variance(&s.values()[100..]).unwrap();
        assert!(var > 0.05, "r=4 logistic should roam: var {var}");
    }

    #[test]
    #[should_panic(expected = "logistic r")]
    fn logistic_bad_r_panics() {
        logistic(10, 5.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "x0 must be")]
    fn logistic_bad_x0_panics() {
        logistic(10, 3.5, 1.5);
    }

    #[test]
    fn henon_bounded_and_chaotic() {
        let s = henon_classic(10_000);
        let (lo, hi) = s.range();
        assert!(lo > -2.0 && hi < 2.0, "Hénon range [{lo}, {hi}]");
        assert!(stats::variance(s.values()).unwrap() > 0.1);
    }

    #[test]
    fn lorenz_bounded_on_attractor() {
        let s = lorenz_x(5000, 0.01, 5);
        let (lo, hi) = s.range();
        assert!(lo > -25.0 && hi < 25.0, "Lorenz x range [{lo}, {hi}]");
        // Visits both lobes.
        assert!(lo < -5.0 && hi > 5.0, "should visit both lobes");
    }

    #[test]
    fn deterministic_outputs() {
        assert_eq!(
            logistic(100, 3.9, 0.2).values(),
            logistic(100, 3.9, 0.2).values()
        );
        assert_eq!(henon_classic(100).values(), henon_classic(100).values());
        assert_eq!(
            lorenz_x(100, 0.01, 2).values(),
            lorenz_x(100, 0.01, 2).values()
        );
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn henon_zero_panics() {
        henon_classic(0);
    }
}
