"""A small end-to-end study run, CSVs and all.

Same pipeline as the full six-setting comparison, shrunk to two
settings and twenty replicates so it finishes in well under a minute.
Results land in demos/out/mini_study; rerunning with the same seed
reproduces every output byte for byte.
"""

from pathlib import Path

from privregion.experiments import TABLE1_SETTINGS, ScenarioConfig, run_table1

out = Path(__file__).parent / "out" / "mini_study"

config = ScenarioConfig(
    master_seed=20260818,
    out_dir=out,
    settings=TABLE1_SETTINGS[:2],
    n_trajectories=20,
    n_replicates=20,
)
study = run_table1(config)

print(f"{'setting':<14} {'strategy':<14} {'mean SP':>8} {'MSE q05':>8} "
      f"{'median':>8} {'q95':>8}")
for s in study.summary:
    print(f"{s['setting']:<14} {s['strategy']:<14} {s['mean_sp']:>8.3f} "
          f"{s['mse_q05']:>8.3f} {s['mse_median']:>8.3f} {s['mse_q95']:>8.3f}")

print("\nfiles:")
for name, path in sorted(study.files.items()):
    print(f"  {name:<12} {path}")

print("\nsame thing from the command line:")
print("  python3 -m privregion table1 --seed 20260818 --replicates 20 --out runs/demo")
