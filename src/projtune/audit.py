"""Numerical auditing of Lipschitz robustness for anchored fine-tuned models.

Checks, on concrete weight pairs, that (a) the difference between a
fine-tuned linear map and its anchor changes output no faster than the MARS
norm of their weight difference allows, (b) the fine-tuned model as a whole
respects the anchor-norm + difference-norm budget on sampled input pairs,
and (c) row projection really caps the difference norm at the constraint
radius. All norms are l_inf on vectors; the matching operator norm is the
maximum absolute row sum, which a sign-pattern input attains exactly.

Samplers are callables ``sampler(n) -> (X, X')`` producing ``n`` input pairs
as (n, dim) arrays, so audits over many thousands of pairs stay vectorized.
The network audit draws its pairs whole and runs its forward passes over
them in row chunks, so its activation memory stays bounded however many
pairs it checks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError
from .model import ACTIVATIONS, MlpSpec, NamedParams, check_tensors, forward
from .numerics import SeededRng, mars_norm

__all__ = [
    "ONE_LIPSCHITZ_ACTIVATIONS",
    "LayerNorms",
    "LipschitzReport",
    "PairSampler",
    "estimate_diff_lipschitz_lb",
    "mixed_pair_sampler",
    "sign_probe_inputs",
    "verify_lemma1_bound",
]

BOUND_TOL = 1e-9

# Rows per forward-pass chunk of the network audit: n pairs run as
# max(1, n // AUDIT_CHUNK_ROWS) chunks of nearly equal height, so each has
# 2048-4095 rows and fewer than 4096 pairs run as one pass. On the OpenBLAS
# build this was measured with, a row came out with the same bits in chunks
# of 400 rows or more as in one pass over all rows, but not in chunks of
# 8-300 rows or in a short tail.
AUDIT_CHUNK_ROWS = 2048

ONE_LIPSCHITZ_ACTIVATIONS = frozenset({"relu", "tanh", "identity"})

PairSampler = Callable[[int], tuple[np.ndarray, np.ndarray]]


def sign_probe_inputs(diff: np.ndarray) -> np.ndarray:
    """Worst-case inputs for a weight-difference matrix, one per row.

    ``sign(row)`` maximizes |row . x| over the unit l_inf ball, so probing
    with these vectors attains the MARS norm of ``diff`` exactly.
    """
    return np.sign(np.asarray(diff, dtype=np.float64))


def mixed_pair_sampler(
    rng: SeededRng, dim: int, probe_matrices: Iterable[np.ndarray] = ()
) -> PairSampler:
    """Sign probes for each probe-matrix row first, then standard Gaussian pairs.

    Pairing each probe with the origin keeps the denominator at 1, so a
    linear-layer lower bound attains the MARS norm instead of hovering below
    it the way random directions do. Without probes, ``n`` pairs are
    ``rng.normal((n, dim))`` and then another such draw.
    """
    probes = []
    for mat in probe_matrices:
        m = np.asarray(mat, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != dim:
            raise DomainError(f"probe matrix shape {m.shape} incompatible with input dim {dim}")
        probes.append(sign_probe_inputs(m))
    probe_block = np.vstack(probes) if probes else np.zeros((0, dim))

    def sample(n: int) -> tuple[np.ndarray, np.ndarray]:
        head = probe_block[:n]
        rest = n - head.shape[0]
        xs = np.vstack([head, rng.normal((rest, dim))]) if rest else head.copy()
        x_prime = np.zeros_like(xs)
        if rest:
            x_prime[head.shape[0]:] = rng.normal((rest, dim))
        return xs, x_prime

    return sample


def _sampled_pairs(sampler: PairSampler, n_pairs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw pairs, drop coincident ones, return (X, X', denominators)."""
    if n_pairs < 1:
        raise DomainError(f"need at least one sampled pair, got {n_pairs}")
    x, x_prime = sampler(n_pairs)
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    if x.shape != x_prime.shape or x.ndim != 2 or x.shape[0] != n_pairs:
        raise DomainError(f"sampler returned inconsistent pair arrays: {x.shape}/{x_prime.shape}")
    gap = x - x_prime
    denom = np.abs(gap, out=gap).max(axis=1)
    keep = denom > 0.0
    if not np.any(keep):
        raise DomainError("degenerate sampler: every pair was coincident")
    return (x, x_prime, denom) if keep.all() else (x[keep], x_prime[keep], denom[keep])


def estimate_diff_lipschitz_lb(
    w_f: np.ndarray, w_0: np.ndarray, sampler: PairSampler, n_pairs: int
) -> float:
    """Sampled lower bound of the difference operator's Lipschitz constant.

    Returns the largest ``|(W_f - W_0)(x - x')|_inf / |x - x'|_inf`` over the
    sampled pairs; coincident pairs are skipped.
    """
    wf = np.asarray(w_f, dtype=np.float64)
    w0 = np.asarray(w_0, dtype=np.float64)
    if wf.shape != w0.shape or wf.ndim != 2:
        raise DomainError(f"weight shapes must match and be 2-D: {wf.shape} vs {w0.shape}")
    x, x_prime, denom = _sampled_pairs(sampler, n_pairs)
    diff = wf - w0
    ratios = np.abs((x - x_prime) @ diff.T).max(axis=1) / denom
    return float(ratios.max(initial=0.0))


@dataclass
class LayerNorms:
    name: str
    anchor_norm: float  # MARS norm of the anchor weight matrix
    diff_norm: float    # MARS norm of (fine-tuned - anchor)


@dataclass
class LipschitzReport:
    """Per-layer norms plus sampled and composed bounds for the whole model."""

    layers: list[LayerNorms]
    n_pairs: int
    diff_lipschitz_lb: float    # sampled lower bound for the difference function
    network_ratio_max: float    # max sampled ratio of the fine-tuned network
    network_upper_bound: float  # Lemma budget: Ld+L0 (single layer) or norm product
    bound_satisfied: bool

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(asdict(self), f, indent=2, sort_keys=True)
            f.write("\n")


def _weight_names(spec: MlpSpec) -> list[str]:
    return [f"layer{i}.weight" for i in range(spec.n_layers)]


def verify_lemma1_bound(
    spec: MlpSpec,
    params_f: NamedParams,
    params_0: NamedParams,
    sampler: PairSampler,
    n_pairs: int,
) -> tuple[bool, LipschitzReport]:
    """Check sampled network ratios against the anchored Lipschitz budget.

    For a single linear layer the budget is exact:
    ``diff_norm + anchor_norm``. For deeper nets the budget is the
    composition-rule product of per-layer MARS norms of the fine-tuned
    weights (activations must be 1-Lipschitz), which is an upper bound but
    not a tight one; the report carries the sampled lower bound alongside it.
    """
    for act in spec.activations:
        if act not in ONE_LIPSCHITZ_ACTIVATIONS:
            known = act in ACTIVATIONS
            raise NotImplementedError(
                f"activation {act!r} is not certified 1-Lipschitz"
                + ("" if known else " (and is unknown to the model kit)")
            )
    check_tensors(spec, params_f, "fine-tuned params")
    check_tensors(spec, params_0, "anchor params")

    layers = [
        LayerNorms(
            name=name,
            anchor_norm=mars_norm(params_0[name]),
            diff_norm=mars_norm(params_f[name] - params_0[name]),
        )
        for name in _weight_names(spec)
    ]
    if spec.n_layers == 1:
        budget = layers[0].diff_norm + layers[0].anchor_norm
    else:
        budget = float(np.prod([mars_norm(params_f[n]) for n in _weight_names(spec)]))

    x, x_prime, denom = _sampled_pairs(sampler, n_pairs)
    n = x.shape[0]
    chunks = max(1, n // AUDIT_CHUNK_ROWS)
    # ceiling edges make the first chunk the tallest, so the workspace is sized once
    edges = [-(-n * c // chunks) for c in range(chunks + 1)]
    work: dict = {}  # one set of activation buffers for every pass of every chunk
    maxima = np.empty((chunks, 2))  # per chunk: the largest network and difference ratio
    for c, rows in enumerate(map(slice, edges, edges[1:])):
        hf = (forward(spec, params_f, x[rows], work=work)
              - forward(spec, params_f, x_prime[rows], work=work))
        h0 = (forward(spec, params_0, x[rows], work=work)
              - forward(spec, params_0, x_prime[rows], work=work))
        maxima[c] = [(np.abs(h).max(axis=1) / denom[rows]).max() for h in (hf, hf - h0)]
    # ndarray.max, unlike the builtin max, carries a NaN of any chunk into the report
    max_ratio, diff_lb = map(float, maxima.max(axis=0))

    ok = max_ratio <= budget + BOUND_TOL
    report = LipschitzReport(
        layers=layers,
        n_pairs=n,
        diff_lipschitz_lb=diff_lb,
        network_ratio_max=max_ratio,
        network_upper_bound=budget,
        bound_satisfied=ok,
    )
    return ok, report
