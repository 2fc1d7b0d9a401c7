"""Dynamic-problem reduction engines with exact cost accounting.

The package has three layers:

* engines.py: brute-force solvers for dynamic graph, matching and set-system
  problems behind a uniform preprocess/update/query/checkpoint/rollback API.
* wrappers.py: problem-to-problem adapters that present one engine kind in
  terms of another while forwarding updates with constant fan-out.
* sat_reductions.py / triangle_reductions.py / minweight_reductions.py /
  pair_listing.py: end-to-end pipelines that solve satisfiability, triangle
  detection, minimum-weight triangle and triangle listing through those
  engines, counting every update and query they spend.

reductions.py holds the one table of those pipelines (loader, modes,
runner, oracle) that both verify.py and cli.py read. verify.py bundles
randomized oracle-equivalence and counter-bound suites over all of the
above, and cli.py exposes everything as the `dynred` command.
"""

__version__ = "0.1.0"
