//! Equilibrium verification and efficiency metrics (Definitions 2–3).

use crate::{GameConfig, GameOutcome, ResourceGame, SwpSolution};
use dspp_core::{Allocation, CoreError, HorizonProblem};

/// Per-provider relative improvement available by unilateral deviation.
///
/// For every provider `i`, fixes the other providers' trajectories from
/// `outcome`, computes the residual capacity left at every stage and data
/// center, re-solves provider `i`'s DSPP against those residuals, and
/// reports `(J^i − J^i_dev) / J^i` — how much (relatively) the provider
/// could still save. An outcome is an ε-Nash equilibrium (Definition 2's
/// W-MPC equilibrium, verified ex post) when every gap is ≤ ε.
///
/// # Errors
///
/// Propagates [`CoreError`] if a deviation problem cannot be built or
/// solved — with the residual capacities of a feasible outcome this should
/// not happen (the provider's own trajectory remains feasible).
pub fn equilibrium_gaps(
    game: &ResourceGame,
    outcome: &GameOutcome,
    config: &GameConfig,
) -> Result<Vec<f64>, CoreError> {
    let n = game.providers().len();
    let nl = game.total_capacity().len();
    let w = game.horizon();
    // Resource usage per provider, stage and DC.
    let usage: Vec<Vec<Vec<f64>>> = (0..n)
        .map(|i| {
            let sp = &game.providers()[i];
            (1..=w)
                .map(|t| {
                    let x = Allocation::from_arc_values(
                        &sp.problem,
                        outcome.solutions[i].xs[t].as_slice().to_vec(),
                    );
                    x.per_dc(&sp.problem)
                        .into_iter()
                        .map(|u| u * sp.problem.server_size())
                        .collect()
                })
                .collect()
        })
        .collect();

    let mut gaps = Vec::with_capacity(n);
    for i in 0..n {
        let sp = &game.providers()[i];
        // Residual capacity for i: total minus everyone else's usage.
        let residual: Vec<Vec<f64>> = (0..w)
            .map(|t| {
                (0..nl)
                    .map(|l| {
                        let others: f64 = (0..n).filter(|&j| j != i).map(|j| usage[j][t][l]).sum();
                        (game.total_capacity()[l] - others).max(0.0)
                    })
                    .collect()
            })
            .collect();
        let horizon = HorizonProblem::build_full(
            &sp.problem,
            &sp.initial,
            &sp.demand,
            &sp.price_rows(),
            Some(&residual),
            None,
        )?;
        let sol = horizon.solve(&config.ipm)?;
        let j_now = outcome.provider_costs[i];
        let j_dev = sol.objective;
        gaps.push(if j_now.abs() > 1e-12 {
            (j_now - j_dev) / j_now
        } else {
            0.0
        });
    }
    Ok(gaps)
}

/// Empirical price-of-anarchy / price-of-stability bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoaBounds {
    /// Worst observed `J_NE / J_SWP` — a lower bound on the PoA.
    pub worst: f64,
    /// Best observed `J_NE / J_SWP` — an upper bound on the PoS.
    pub best: f64,
    /// Number of equilibria sampled.
    pub samples: usize,
}

/// Estimates PoA/PoS by running Algorithm 2 from several random initial
/// quota splits and comparing each converged cost to the social optimum.
///
/// Theorem 1 predicts `best ≈ 1`; `worst` quantifies how much the
/// *particular* equilibrium reached can deviate.
///
/// # Errors
///
/// Propagates game or SWP failures.
///
/// # Panics
///
/// Panics if `num_starts == 0`.
pub fn price_of_anarchy_bounds(
    game: &ResourceGame,
    swp: &SwpSolution,
    config: &GameConfig,
    num_starts: usize,
    seed: u64,
) -> Result<PoaBounds, CoreError> {
    assert!(num_starts > 0, "need at least one start");
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n = game.providers().len();
    let nl = game.total_capacity().len();
    let mut worst = f64::NEG_INFINITY;
    let mut best = f64::INFINITY;
    let mut samples = 0;
    for s in 0..num_starts {
        let quotas: Vec<Vec<f64>> = if s == 0 {
            // Deterministic equal split first.
            vec![game.total_capacity().iter().map(|c| c / n as f64).collect(); n]
        } else {
            // Random positive split per DC, normalized to the capacity.
            let mut q = vec![vec![0.0; nl]; n];
            for (l, &cap) in game.total_capacity().iter().enumerate().take(nl) {
                let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.2..1.0)).collect();
                let sum: f64 = weights.iter().sum();
                for (qi, w) in q.iter_mut().zip(&weights) {
                    qi[l] = w / sum * cap;
                }
            }
            q
        };
        let out = game.run_from(quotas, config)?;
        if !out.converged {
            continue;
        }
        let ratio = out.total_cost / swp.objective;
        worst = worst.max(ratio);
        best = best.min(ratio);
        samples += 1;
    }
    if samples == 0 {
        return Err(CoreError::InvalidSpec(
            "no start converged; loosen the game config".into(),
        ));
    }
    Ok(PoaBounds {
        worst,
        best,
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_social_welfare, SpSampler};
    use dspp_solver::IpmSettings;

    fn cfg() -> GameConfig {
        GameConfig {
            epsilon: 0.02,
            ipm: IpmSettings::fast(),
            ..GameConfig::default()
        }
    }

    #[test]
    fn converged_outcome_is_epsilon_nash() {
        let sps = SpSampler::new(2, 2, 3).with_seed(21).sample(3).unwrap();
        let game = ResourceGame::new(sps, vec![50.0, 50.0]).unwrap();
        let out = game.run(&cfg()).unwrap();
        assert!(out.converged);
        let gaps = equilibrium_gaps(&game, &out, &cfg()).unwrap();
        for (i, g) in gaps.iter().enumerate() {
            assert!(
                *g <= 0.10,
                "provider {i} can still improve by {:.1}%",
                g * 100.0
            );
        }
    }

    #[test]
    fn poa_bounds_bracket_one() {
        let sps = SpSampler::new(2, 2, 3).with_seed(22).sample(3).unwrap();
        let caps = vec![60.0, 60.0];
        let swp = solve_social_welfare(&sps, &caps, &IpmSettings::fast()).unwrap();
        let game = ResourceGame::new(sps, caps).unwrap();
        let bounds = price_of_anarchy_bounds(&game, &swp, &cfg(), 3, 7).unwrap();
        assert!(bounds.samples >= 1);
        assert!(bounds.best <= bounds.worst + 1e-12);
        // Theorem 1: a socially-near-optimal equilibrium exists.
        assert!(
            bounds.best < 1.15,
            "best NE/SWP ratio {} too far above 1",
            bounds.best
        );
        // Ratios below ~1 can only come from convergence slack.
        assert!(bounds.best > 0.9);
    }
}
