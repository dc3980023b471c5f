"""Desk-scale testbed for distributed large-batch stochastic optimization
with gradient-extrapolation methods, plus numerical verification of their
convergence theory."""

__version__ = "0.1.0"

from .cluster import ClusterConfig, draw_batches, map_workers, reduce_mean
from .objectives import (ObjectiveSpec, ParamVector, TheoryConstants,
                         batch_gradient, batch_loss, estimate_constants,
                         finite_difference_gradient, full_gradient,
                         initial_point, loss, loss_sample, make_logistic,
                         make_quadratic, make_tiny_mlp, sample_gradient)
from .optimizers import (HyperParams, NoiseSpec, NumericAbort, OptimizerState,
                         PostLocalConfig, Schedule, effective_gamma_hat,
                         init_state, lars_scale, lr_at, noise_second_moment,
                         step_adam, step_extrap_adam, step_extrap_sgd,
                         step_extrapolated_noise, step_minibatch_sgd,
                         step_nesterov, step_post_local, warmup_increment)
from .theory import (RateBoundReport, VirtualSequence, build_virtual_sequence,
                     check_descent_identity, check_proximity_inequalities,
                     critical_batch_size, epsilon_horizon, finish_report,
                     rate_bound, smoothness_estimate, stepsize_cap,
                     tune_stepsize, tuned_hyperparams)
from .harness import (MetricsRecord, RunConfig, RunResult, TrialResult, run,
                      speedup_study, sweep, write_outputs)
