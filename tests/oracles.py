"""Brute-force reference implementations the fast code must agree with.

Everything here is written with explicit loops and plain float arithmetic,
independent of the log-space / vectorized implementations under test.
``reference_em`` iterates the library's per-pair EM steps, which the other
oracles check, to stand in for the closed-form ``run_em``.
"""

from __future__ import annotations

import math

import numpy as np

from matirec.mati import (MatiParams, chain_from_joint, e_step, joint_from_chain, joint_prob,
                          layout_for, m_step)


def oracle_joint(pr_nu: float, tables: list[np.ndarray], z: tuple[int, int]) -> float:
    """Direct product Pr(u)*Pr_nu*Pr(z_d)*Pr(z_h|z_d) for a 2-factor grid."""
    di, hi = z
    return 1.0 * pr_nu * float(tables[0][di]) * float(tables[1][di, hi])


def oracle_responsibilities(pr_nu: float, tables: list[np.ndarray]) -> np.ndarray:
    """Enumerate every slab assignment, normalize by the total."""
    sd, sh = tables[1].shape
    joint = np.zeros((sd, sh))
    for di in range(sd):
        for hi in range(sh):
            joint[di, hi] = oracle_joint(pr_nu, tables, (di, hi))
    total = joint.sum()
    if total == 0:
        raise ZeroDivisionError("no support")
    return joint / total


def oracle_m_step(resp: np.ndarray, hist: np.ndarray | None,
                  gamma: float) -> list[np.ndarray]:
    """Evidence blend plus direct normalization into the 2-level chain."""
    if hist is not None and hist.sum() > 0:
        n = hist.sum()
        blended = (hist + gamma * resp) / (n + gamma)
    else:
        blended = resp.copy()
    sd, sh = blended.shape
    day = np.zeros(sd)
    for di in range(sd):
        day[di] = blended[di].sum()
    total = day.sum()
    day = day / total
    hour = np.zeros((sd, sh))
    for di in range(sd):
        denom = blended[di].sum()
        for hi in range(sh):
            hour[di, hi] = blended[di, hi] / denom if denom > 0 else 1.0 / sh
    return [day, hour]


def reference_em(log, index, pr_nu, max_iter: int = 200, tol: float = 1e-6,
                 gamma: float = 1.0):
    """``m_step(e_step(...))`` iterated per pair from the global popularity chain.

    Uses ``run_em``'s stop rule and its per-event log-likelihood, summed from
    ``joint_prob`` over every check-in.  Returns (pair joints, trace).
    """
    shape = index.grid_shape()
    pairs = sorted({(c.user_id, c.poi_id) for c in log.checkins})
    evidence = {pair: np.zeros(shape) for pair in pairs}
    popularity = np.zeros(shape)
    for c in log.checkins:
        cell = index.grid_index_of(c.timestamp)
        evidence[(c.user_id, c.poi_id)][cell] += 1
        popularity[cell] += 1
    start = chain_from_joint(popularity / popularity.sum())
    params = MatiParams(layout=layout_for(index), pr_nu={p: pr_nu[p] for p in pairs},
                        pair_tables={p: start for p in pairs})

    def log_likelihood() -> float:
        total = 0.0
        for pair in pairs:
            hist = evidence[pair]
            for cell in zip(*np.nonzero(hist)):
                total += hist[cell] * joint_prob(*pair, cell, params)
        return total

    trace = [log_likelihood()]
    for _ in range(max_iter):
        params.pair_tables = m_step(e_step(params, pairs), evidence, gamma=gamma)
        trace.append(log_likelihood())
        prev = trace[-2]
        if prev != -math.inf and abs(trace[-1] - prev) / max(abs(prev), 1e-12) < tol:
            break
    return {p: joint_from_chain(params.pair_tables[p]) for p in pairs}, trace


def oracle_metrics(recommended: list[str], excluded: set[str], n: int):
    """Set-intersection counting, no shortcuts."""
    hits = 0
    for poi in recommended[:n]:
        if poi in excluded:
            hits += 1
    precision = hits / n
    recall = hits / len(excluded) if excluded else 0.0
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def oracle_rank1_completion(sim: np.ndarray, hidden: tuple[int, int]) -> float:
    """Recover a hidden cell of a rank-1 matrix from a shared known row.

    For S = u u^T, S[i,k] * S[k,j] / S[k,k] = u_i u_j for any pivot k with
    observed entries.
    """
    i, j = hidden
    n = sim.shape[0]
    for k in range(n):
        if k not in (i, j):
            return float(sim[i, k] * sim[k, j] / sim[k, k])
    raise ValueError("matrix too small for a pivot")


def oracle_sampling_rounds(users_by_stratum: dict[str, list[str]],
                           activity: dict[str, dict[tuple[int, int], float]],
                           all_pairs: list[tuple[int, int]], m_min: int,
                           n_percent: float, max_rounds: int, seed: int):
    """Re-run the documented sampling loop independently.

    ``activity`` maps user -> {slot pair -> similarity sample or absent}.
    Returns (rounds_used, drawn_users, per-pair sample counts).
    """
    drawn: set[str] = set()
    counts = {pair: 0 for pair in all_pairs}
    rounds = 0
    while rounds < max_rounds:
        if all(c >= m_min for c in counts.values()):
            break
        rng = np.random.default_rng([seed, rounds])
        picked = []
        for name in ("passive", "semi_active", "active"):
            remaining = sorted(set(users_by_stratum[name]) - drawn)
            if not remaining:
                continue
            k = math.ceil(len(remaining) * n_percent / 100.0)
            idx = rng.choice(len(remaining), size=k, replace=False)
            picked.extend(remaining[i] for i in sorted(idx))
        drawn.update(picked)
        rounds += 1
        if not picked:
            break
        for user in picked:
            for pair in activity.get(user, {}):
                counts[pair] += 1
    return rounds, drawn, counts
