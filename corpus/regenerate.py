"""Regenerate every corpus fixture and golden output in this directory.

Run from the repository root:  python3 corpus/regenerate.py
All outputs are deterministic, so reruns must be byte-identical.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# (golden file, CLI arguments), run in this order with cwd corpus/; later
# commands read golden/sec5_T.json, which an earlier one writes.
COMMANDS = [
    ("alg_check_fig1.json", ["alg", "check", "fig1.json"]),
    ("alg_check_fig2.json", ["alg", "check", "fig2.json"]),
    ("alg_check_sec5_A.json", ["alg", "check", "sec5_A.json"]),
    ("nust_fig1.json", ["nust", "fig1.json"]),
    ("nust_sec5_A.json", ["nust", "sec5_A.json"]),
    ("tilting_verify_fig1_T.json", ["tilting", "verify", "fig1.json", "fig1_T.json"]),
    ("nustable_check_fig1_T.json", ["nustable", "check", "fig1.json", "fig1_T.json"]),
    ("endalg_fig1_T.json", ["endalg", "fig1.json", "fig1_T.json"]),
    (
        "sec5_T.json",
        ["tilting", "construct", "sec5_A.json", "--p", "1", "--q", "3,4", "-r", "1", "-s", "1"],
    ),
    ("tilting_verify_sec5_T.json", ["tilting", "verify", "sec5_A.json", "golden/sec5_T.json"]),
    ("nustable_check_sec5_T.json", ["nustable", "check", "sec5_A.json", "golden/sec5_T.json"]),
    ("endalg_sec5_T.json", ["endalg", "sec5_A.json", "golden/sec5_T.json"]),
    ("stable_image_fig1_S1.json", ["stable-image", "fig1.json", "fig1_T.json", "fig1_S1.json"]),
]


def main():
    import tiltbench
    from tiltbench import corpus, serialize
    from tiltbench.reps import simple

    fig1 = corpus.fig1_algebra()
    serialize.save(serialize.algebra_to_dict(fig1), os.path.join(HERE, "fig1.json"))
    serialize.save(serialize.algebra_to_dict(corpus.fig2_algebra()), os.path.join(HERE, "fig2.json"))
    serialize.save(serialize.algebra_to_dict(corpus.sec5_algebra()), os.path.join(HERE, "sec5_A.json"))
    serialize.save(serialize.algebra_to_dict(corpus.sec5_b_algebra()), os.path.join(HERE, "sec5_B.json"))
    serialize.save(
        serialize.complex_to_dict(corpus.fig1_tilting_complex(fig1), algebra_ref="fig1.json"),
        os.path.join(HERE, "fig1_T.json"),
    )
    serialize.save(
        serialize.module_to_dict(simple(fig1, "1"), algebra_ref="fig1.json"),
        os.path.join(HERE, "fig1_S1.json"),
    )

    golden = os.path.join(HERE, "golden")
    os.makedirs(golden, exist_ok=True)

    # The child runs in this directory, where a relative PYTHONPATH entry no
    # longer points at the tiltbench imported above; hand it that one by its
    # absolute path.
    src = os.path.dirname(os.path.dirname(os.path.abspath(tiltbench.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    for outname, cli_args in COMMANDS:
        out = os.path.join(golden, outname)
        cmd = [sys.executable, "-m", "tiltbench.cli", "-o", out] + cli_args
        res = subprocess.run(cmd, cwd=HERE, env=env, capture_output=True, text=True)
        print(outname, "->", res.returncode)
        # Exit 1 is a negative verdict only when nothing went to stderr; a
        # child that crashed (e.g. could not import tiltbench) also exits 1.
        if res.returncode not in (0, 1) or (res.returncode == 1 and res.stderr):
            print(res.stderr)
            raise SystemExit(1)


if __name__ == "__main__":
    main()
