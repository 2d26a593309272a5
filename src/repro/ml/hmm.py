"""Gaussian hidden Markov models.

Implements a diagonal-covariance Gaussian-emission HMM with log-space
forward/backward, Viterbi decoding, and Baum-Welch (EM) parameter learning.
This is the workhorse behind the HMM-based NIOM occupancy detector and the
per-appliance chains composed by the factorial HMM NILM baseline
(:mod:`repro.ml.fhmm`).

The numerical inner loops (emission densities, the forward/backward
E-step, Viterbi) live in :mod:`repro.ml.kernels`, which pairs each
vectorized kernel with the original loop implementation and documents the
equivalence contract between them (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import numpy as np

from ..obs import TELEMETRY
from . import kernels
from .kernels import LOG_EPS as _LOG_EPS
from .kmeans import KMeans
from .preprocessing import check_features

_MIN_VAR = 1e-6


def _log_gaussian(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Log density of each row of X under each diagonal Gaussian.

    Returns an ``(n_samples, n_states)`` matrix.
    """
    return kernels.log_gaussian(X, means, variances)


class GaussianHMM:
    """HMM with diagonal-covariance Gaussian emissions.

    Parameters
    ----------
    n_states:
        Number of hidden states.
    n_iter:
        Maximum Baum-Welch iterations in :meth:`fit`.
    tol:
        EM convergence threshold on per-sample log-likelihood improvement.
    rng:
        Seed or Generator used for k-means initialization.

    Attributes (after fitting or manual assignment)
    ----------
    startprob_:
        Initial state distribution, shape ``(n_states,)``.
    transmat_:
        Row-stochastic transition matrix, shape ``(n_states, n_states)``.
    means_:
        Emission means, shape ``(n_states, n_features)``.
    variances_:
        Diagonal emission variances, same shape as ``means_``.
    """

    def __init__(
        self,
        n_states: int,
        n_iter: int = 50,
        tol: float = 1e-4,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_states < 1:
            raise ValueError("n_states must be >= 1")
        self.n_states = n_states
        self.n_iter = n_iter
        self.tol = tol
        self._rng = np.random.default_rng(rng)
        self.startprob_: np.ndarray | None = None
        self.transmat_: np.ndarray | None = None
        self.means_: np.ndarray | None = None
        self.variances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Parameter handling
    # ------------------------------------------------------------------
    def set_parameters(
        self,
        startprob: np.ndarray,
        transmat: np.ndarray,
        means: np.ndarray,
        variances: np.ndarray,
    ) -> "GaussianHMM":
        """Install parameters directly (used for hand-built models)."""
        startprob = np.asarray(startprob, dtype=float)
        transmat = np.asarray(transmat, dtype=float)
        means = np.atleast_2d(np.asarray(means, dtype=float))
        variances = np.atleast_2d(np.asarray(variances, dtype=float))
        if startprob.shape != (self.n_states,):
            raise ValueError("startprob has wrong shape")
        if transmat.shape != (self.n_states, self.n_states):
            raise ValueError("transmat has wrong shape")
        if not np.allclose(startprob.sum(), 1.0, atol=1e-6):
            raise ValueError("startprob must sum to 1")
        if not np.allclose(transmat.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("transmat rows must sum to 1")
        if means.shape[0] != self.n_states or means.shape != variances.shape:
            raise ValueError("means/variances have wrong shape")
        if np.any(variances <= 0):
            raise ValueError("variances must be positive")
        self.startprob_ = startprob
        self.transmat_ = transmat
        self.means_ = means
        self.variances_ = variances
        return self

    def _check_fitted(self) -> None:
        if self.transmat_ is None:
            raise RuntimeError("HMM is not fitted")

    def _emission_logprob(self, X: np.ndarray) -> np.ndarray:
        return _log_gaussian(X, self.means_, self.variances_)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _scaled_emissions(self, log_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Emission probabilities normalized per sample to avoid underflow.

        Returns (b, shift) with ``b[t] = exp(log_b[t] - shift[t])``; the
        shifts are added back when computing log-likelihoods.
        """
        shift = kernels.row_max(log_b)
        return np.exp(log_b - shift[:, None]), shift

    def log_likelihood(self, X) -> float:
        """Log probability of the observation sequence under the model."""
        self._check_fitted()
        X = check_features(X)
        b, shift = self._scaled_emissions(self._emission_logprob(X))
        _, _, ll = kernels.estep(self.startprob_, self.transmat_, b, want_xi=False)
        return float(ll + shift.sum())

    def posterior(self, X) -> np.ndarray:
        """Per-sample state posteriors ``gamma``, shape ``(n, n_states)``."""
        self._check_fitted()
        X = check_features(X)
        b, _ = self._scaled_emissions(self._emission_logprob(X))
        gamma, _, _ = kernels.estep(self.startprob_, self.transmat_, b, want_xi=False)
        return gamma

    def decode(self, X) -> np.ndarray:
        """Viterbi: most likely state sequence for the observations."""
        self._check_fitted()
        X = check_features(X)
        log_b = self._emission_logprob(X)
        log_pi = np.log(self.startprob_ + _LOG_EPS)
        log_a = np.log(self.transmat_ + _LOG_EPS)
        return kernels.viterbi(log_pi, log_a, log_b)

    def sample(
        self, n_samples: int, rng: np.random.Generator | int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``(observations, states)`` from the model."""
        self._check_fitted()
        rng = np.random.default_rng(rng if rng is not None else self._rng)
        d = self.means_.shape[1]
        states = np.empty(n_samples, dtype=int)
        obs = np.empty((n_samples, d))
        state = rng.choice(self.n_states, p=self.startprob_)
        for t in range(n_samples):
            states[t] = state
            obs[t] = rng.normal(self.means_[state], np.sqrt(self.variances_[state]))
            state = rng.choice(self.n_states, p=self.transmat_[state])
        return obs, states

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------
    def _init_from_kmeans(self, X: np.ndarray) -> None:
        km = KMeans(self.n_states, rng=self._rng).fit(X)
        labels = km.predict(X)
        d = X.shape[1]
        means = np.empty((self.n_states, d))
        variances = np.empty((self.n_states, d))
        global_var = np.maximum(X.var(axis=0), _MIN_VAR)
        for k in range(self.n_states):
            members = X[labels == k]
            if len(members):
                means[k] = members.mean(axis=0)
                variances[k] = np.maximum(members.var(axis=0), _MIN_VAR)
            else:
                means[k] = X[self._rng.integers(len(X))]
                variances[k] = global_var
        # Sticky transitions are the right prior for slowly varying
        # physical processes (appliance and occupancy states persist).
        transmat = np.full((self.n_states, self.n_states), 0.05 / max(self.n_states - 1, 1))
        np.fill_diagonal(transmat, 0.95)
        transmat /= transmat.sum(axis=1, keepdims=True)
        self.set_parameters(
            startprob=np.full(self.n_states, 1.0 / self.n_states),
            transmat=transmat,
            means=means,
            variances=variances,
        )

    def fit(self, X) -> "GaussianHMM":
        """Baum-Welch maximum-likelihood fit on a single sequence."""
        X = check_features(X)
        if len(X) < 2 * self.n_states:
            raise ValueError("sequence too short to fit HMM")
        if self.transmat_ is None:
            self._init_from_kmeans(X)
        prev_ll = -np.inf
        n = len(X)
        iterations = 0
        for _ in range(self.n_iter):
            iterations += 1
            log_b = self._emission_logprob(X)
            b, shift = self._scaled_emissions(log_b)
            gamma, xi_sum, ll_base = kernels.estep(self.startprob_, self.transmat_, b)
            ll = float(ll_base + shift.sum())

            self.startprob_ = gamma[0] / gamma[0].sum()
            transmat = xi_sum / np.maximum(xi_sum.sum(axis=1, keepdims=True), _LOG_EPS)
            transmat = np.maximum(transmat, 1e-8)
            self.transmat_ = transmat / transmat.sum(axis=1, keepdims=True)

            weights = gamma.sum(axis=0)
            means = (gamma.T @ X) / np.maximum(weights[:, None], _LOG_EPS)
            # weighted second moment per state in one einsum instead of a
            # per-state loop over (X - mean_k)^2
            diff = X[:, None, :] - means[None, :, :]
            variances = np.einsum("nk,nkd->kd", gamma, diff * diff)
            variances /= np.maximum(weights[:, None], _LOG_EPS)
            self.means_ = means
            self.variances_ = np.maximum(variances, _MIN_VAR)

            if ll - prev_ll < self.tol * n and np.isfinite(prev_ll):
                break
            prev_ll = ll
        TELEMETRY.count("hmm.fits")
        TELEMETRY.count("hmm.em_iterations", iterations)
        return self
