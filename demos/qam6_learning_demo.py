"""Learn a six-codeword receiver and watch it tell the codewords apart.

A 2x3 rectangular six-point alphabet at 7.8 photons per symbol, measured in
six rounds with a photon-number-resolving detector binned to {0, 1, >=2}
clicks.  After learning under 99.7% visibility plus dark counts and jitter,
the script prints the error-rate comparison, the round-by-round posterior
along each codeword's most likely record, and the pairwise KL divergence of
the measurement statistics.
"""

from coherentrx.baselines import cn_receiver, heterodyne_sql
from coherentrx.constellation import qam6
from coherentrx.formulator import FormulatorConfig, formulate
from coherentrx.metrics import most_probable_path, posterior_trajectory, prefix_kl
from coherentrx.photonics import (
    DEFAULT_AMPLITUDE_JITTER,
    DEFAULT_DARK_COUNTS,
    DEFAULT_PHASE_JITTER,
    NoiseModel,
)
from coherentrx.simulator import averaged_distribution, error_rate, exact_distribution

MEAN_PHOTONS = 7.8
ROUNDS, ARITY = 6, 3
EVAL_BATCH, EVAL_SEED = 200, 2026


def main():
    c = qam6(MEAN_PHOTONS)
    nm = NoiseModel(
        visibility=0.997,
        efficiency=1.0,
        dark_counts=DEFAULT_DARK_COUNTS,
        phase_jitter=DEFAULT_PHASE_JITTER,
        amplitude_jitter=DEFAULT_AMPLITUDE_JITTER,
    )
    print("constellation (label: amplitude):")
    for y, a in enumerate(c.amplitudes):
        print(f"  {y}: {a.real:+.3f}{a.imag:+.3f}j")
    print(f"noise: {nm}\n")

    cfg = FormulatorConfig(max_iterations=1000, batch_size=12, seed=5)
    res = formulate(c, ROUNDS, ARITY, nm, cfg)
    print(f"learning: {len(res.trace)} iterations, converged={res.trace.converged}")

    learned = error_rate(
        averaged_distribution(res.tree, c, nm, EVAL_BATCH, EVAL_SEED), res.table
    )
    cn_t, cn_b = cn_receiver(c, ROUNDS, ARITY)
    cn_err = error_rate(averaged_distribution(cn_t, c, nm, EVAL_BATCH, EVAL_SEED), cn_b)
    sql = heterodyne_sql(c)
    print(f"\nlearned receiver : {learned:.6f}")
    print(f"cond. nulling    : {cn_err:.6f}")
    print(f"heterodyne SQL   : {sql:.6f} (loss-free)")
    print(f"-> {100 * (1 - learned / sql):.1f}% below SQL, {100 * (1 - learned / cn_err):.1f}% below CN\n")

    d = exact_distribution(res.tree, c, nm)
    print("posterior of the true codeword along its most likely record:")
    for y in range(c.n_codewords):
        path = most_probable_path(d, y)
        traj = posterior_trajectory(res.tree, c, nm, path)
        probs = " ".join(f"{p:.3f}" for p in traj.posteriors[:, y])
        print(f"  codeword {y} (record {''.join(map(str, path))}): {probs}")

    print("\npairwise KL divergence (nats) of the measurement statistics by round:")
    for p in range(c.n_codewords):
        for q in range(p + 1, c.n_codewords):
            vals = [prefix_kl(d, p, q, n) for n in range(ROUNDS + 1)]
            print(f"  D({p}||{q}): " + " ".join(f"{v:7.3f}" for v in vals))


if __name__ == "__main__":
    main()
