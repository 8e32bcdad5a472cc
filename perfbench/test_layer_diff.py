"""Tests of the per-layer diff tool (run by `python3 perfbench/run.py --selftest`)."""

import json
import os
import tempfile
import unittest

import layer_diff


def write_layers(directory, workload, seed, metrics):
    path = os.path.join(directory, "layers-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "metrics": {name: {"value": value, "unit": "s"}
                               for name, value in metrics.items()}}, f)
    return path


class LayerDiffTest(unittest.TestCase):
    def test_medians_deltas_and_ordering(self):
        with tempfile.TemporaryDirectory() as before_dir, \
                tempfile.TemporaryDirectory() as after_dir:
            for seed, sgd in ((1, 1.0), (2, 3.0), (3, 2.0)):
                write_layers(before_dir, "full_sweep", seed,
                             {"core.sgd_s": sgd, "core.eval_s": 0.5})
            write_layers(before_dir, "incremental_day", 1, {"core.sgd_s": 9.0})
            write_layers(after_dir, "full_sweep", 1,
                         {"core.sgd_s": 1.0, "core.eval_s": 0.5,
                          "core.new_s": 1.0})
            rows = layer_diff.diff(layer_diff.load_side(before_dir),
                                   layer_diff.load_side(after_dir))
        self.assertEqual([r[0] for r in rows], ["full_sweep", "full_sweep"])
        sgd = rows[0]
        self.assertEqual(sgd[1], "core.sgd_s")  # largest relative change first
        self.assertEqual(sgd[3], 2.0)  # median of 1, 3, 2
        self.assertEqual(sgd[5], -1.0)
        self.assertAlmostEqual(sgd[6], -50.0)
        self.assertEqual(rows[1][1:], ("core.eval_s", "s", 0.5, 0.5, 0.0, 0.0))

    def test_single_file_side_and_zero_base(self):
        with tempfile.TemporaryDirectory() as d:
            a = write_layers(d, "w", 1, {"m": 0.0})
            b_dir = os.path.join(d, "b")
            os.mkdir(b_dir)
            b = write_layers(b_dir, "w", 2, {"m": 2.0})
            rows = layer_diff.diff(layer_diff.load_side(a),
                                   layer_diff.load_side(b))
        self.assertEqual(rows, [("w", "m", "s", 0.0, 2.0, 2.0, None)])
        self.assertIn("n/a", layer_diff.format_rows(rows))


if __name__ == "__main__":
    unittest.main()
