"""End-to-end metrics that BENCHMARK.json does not list.

BENCHMARK.json holds the metrics every workload reports and that are never
0 (``reps_per_s``, ``peak_rss_mb``, ``setup_s``), with their units and
bounds.  The ones below are printed and kept in the result files as well,
and compare.py judges them with these bounds (shares of the parent's
median): ``failed_frac`` is 0 at the recording commit, so any failure is a
regression, and the op latencies exist on ``cli-n300-j3`` only.
"""

# name: (unit, better, bound)
REPORTED = {
    "failed_frac": ("ratio", "lower", 0.0),
    "test_rp_p50_s": ("s", "lower", 0.24),
    "test_ksd_p50_s": ("s", "lower", 0.24),
    "mc_spatial_p50_s": ("s", "lower", 0.24),
    "mc_exact_p50_s": ("s", "lower", 0.24),
    "depth_ksd_p50_s": ("s", "lower", 0.24),
    "power_size_p50_s": ("s", "lower", 0.24),
    "power_local_p50_s": ("s", "lower", 0.24),
}
