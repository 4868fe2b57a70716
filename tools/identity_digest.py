"""Print one SHA-256 digest per group of solver and estimator outputs.

Run it once on each of two source trees to check that a change keeps every
output bit:

    python tools/identity_digest.py --src path/to/old/src > old.txt
    python tools/identity_digest.py --src src > new.txt
    cmp old.txt new.txt

Groups:
  solve         121 problems: bench.random_scene seeds 0-9, each noiseless,
                at 10 dB and at 0 dB (M=16, J=10, angles -5/15/40 deg,
                oracle gamma of at least 1e-10), each under the API
                defaults, the bench tolerances 1e-6/1e-5, max_iter=60 and
                max_iter=7; plus random 16 x 10 data with gamma = 1 at
                max_iter=3000.  Hashes H, Hbar and Q (tobytes), repr of the
                objective and of every residuals value, iterations and status.
  estimate_doa  120 draws: the same scenes for seeds 0-39 under the bench
                tolerances and merge radius.  Hashes fs, betas and each c
                (tobytes) and repr of the diagnostics.
  warm_solve    4 problems above the block size of the warm-started PSD
                projection: noiseless bench.random_scene seeds 0-3 at
                M=32, J=10 under the bench tolerances, hashed as in solve.
  rss_estimate  120 draws: the scenes of estimate_doa, from initial angles
                perturbed as the bench does (perturb_initial by up to 2 deg,
                seeded by bench.trial_seed(0, SNR index, seed, stream=1)).
                Hashes the sorted angles (tobytes).

--draws N uses seeds 0..N-1 in every group.  BLAS threads are pinned to one
(OPENBLAS_NUM_THREADS=1, unless already set) before numpy is imported,
since the thread count can change rounding.  Digests compare only between
runs on one machine: another BLAS build or CPU may round differently.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

SNRS_DB = (None, 10.0, 0.0)
ANGLES_DEG = (-5.0, 15.0, 40.0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the wbdoa package")
    parser.add_argument("--draws", type=int, default=None,
                        help="seeds per group (default: 10 for solve, 40 for estimate_doa "
                             "and rss_estimate, 4 for warm_solve)")
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import wbdoa
    from wbdoa import bench
    from wbdoa.atoms import ConicProblem
    from wbdoa.baselines import perturb_initial, rss_estimate
    from wbdoa.focusing import FocusingSet, gamma_oracle
    from wbdoa.model import ArrayConfig, synthesize_scene
    from wbdoa.recovery import RecoveryConfig, estimate_doa
    from wbdoa.solver import SolverConfig, solve

    if src not in Path(wbdoa.__file__).resolve().parents:
        sys.exit(f"wbdoa was imported from {wbdoa.__file__}, not from {src}")
    array = ArrayConfig(M=16, c=1500.0, omega1=2 * np.pi * 1000.0)
    focusing = FocusingSet.build(bench.default_alphas(10), array.M)
    bench_tol = SolverConfig(max_iter=20000, eps_abs=1e-6, eps_rel=1e-5)

    def scenes(seeds, array=array, focusing=focusing, snrs_db=SNRS_DB):
        for seed in range(seeds):
            for snr_db in snrs_db:
                scene = bench.random_scene(array, ANGLES_DEG, focusing, snr_db, seed)
                data = synthesize_scene(array, scene, focusing)
                yield data, max(gamma_oracle(data.Y, array, scene, focusing), 1e-10)

    def hash_solves(group, problems):
        digest, iterations, statuses = hashlib.sha256(), 0, {}
        for problem, config in problems:
            sol = solve(problem, config)
            for a in (sol.H, sol.Hbar, sol.Q):
                digest.update(a.tobytes())
            values = [sol.objective, *sol.residuals.values(), sol.iterations, sol.status]
            digest.update(repr(values).encode())
            iterations += sol.iterations
            statuses[sol.status] = statuses.get(sol.status, 0) + 1
        counts = " ".join(f"{s}={n}" for s, n in sorted(statuses.items()))
        print(f"{group} problems={len(problems)} iterations={iterations} {counts} "
              f"sha256={digest.hexdigest()}")

    problems = []
    for data, gamma in scenes(10 if args.draws is None else args.draws):
        problem = ConicProblem(Y=data.Y, focusing=focusing, gamma=gamma)
        for config in (None, bench_tol, SolverConfig(max_iter=60), SolverConfig(max_iter=7)):
            problems.append((problem, config))
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((16, 10)) + 1j * rng.standard_normal((16, 10))
    problems.append((ConicProblem(Y=Y, focusing=focusing, gamma=1.0), SolverConfig(max_iter=3000)))

    hash_solves("solve", problems)

    digest, draws = hashlib.sha256(), 0
    rec = RecoveryConfig(min_separation=0.2 / array.M, solver=bench_tol)
    for data, gamma in scenes(40 if args.draws is None else args.draws):
        est = estimate_doa(data, gamma, focusing, rec)
        for a in (est.fs, est.betas, *est.cs):
            digest.update(a.tobytes())
        digest.update(repr(est.diagnostics).encode())
        draws += 1
    print(f"estimate_doa draws={draws} sha256={digest.hexdigest()}")

    warm_array = ArrayConfig(M=32, c=1500.0, omega1=2 * np.pi * 1000.0)
    warm_focusing = FocusingSet.build(bench.default_alphas(10), warm_array.M)
    hash_solves("warm_solve", [
        (ConicProblem(Y=data.Y, focusing=warm_focusing, gamma=gamma), bench_tol)
        for data, gamma in scenes(4 if args.draws is None else args.draws,
                                  warm_array, warm_focusing, (None,))])

    digest, draws = hashlib.sha256(), 0
    for i, (data, _) in enumerate(scenes(40 if args.draws is None else args.draws)):
        seed, point = divmod(i, len(SNRS_DB))
        init = perturb_initial(ANGLES_DEG, 2.0, bench.trial_seed(0, point, seed, stream=1))
        digest.update(rss_estimate(data, init).tobytes())
        draws += 1
    print(f"rss_estimate draws={draws} sha256={digest.hexdigest()}")


if __name__ == "__main__":
    main()
