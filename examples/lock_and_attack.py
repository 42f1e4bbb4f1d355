#!/usr/bin/env python3
"""Lock your own Verilog file and evaluate its ML resilience.

This example shows the intended downstream workflow of the library: a designer
brings an RTL module, locks it with the algorithm of their choice, inspects
the learning-resilience metrics, writes the locked Verilog out, and then plays
the attacker's role to see how much of the key an oracle-less ML attack would
recover.

Usage::

    python examples/lock_and_attack.py                       # built-in demo core
    python examples/lock_and_attack.py --input my_core.v --algorithm era
    python examples/lock_and_attack.py --output locked.v --budget 0.5
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from repro.api import make_locker
from repro.attacks import MajorityVoteAttack, RandomGuessAttack, SnapShotAttack
from repro.eval import format_table
from repro.locking import odt_from_design
from repro.rtlir import Design, analyze_design

#: A small arithmetic core used when no --input file is given: an imbalanced
#: multiply-accumulate datapath with a comparison-driven control branch.
DEMO_CORE = """
module mac_core (
  input clk,
  input rst_n,
  input [15:0] a,
  input [15:0] b,
  input [15:0] c,
  input [15:0] threshold,
  output reg [15:0] acc,
  output [15:0] bypass
);
  wire [15:0] prod = a * b;
  wire [15:0] scaled = prod >> 2;
  wire [15:0] summed = scaled + c;
  wire [15:0] offset = summed + 16'd7;
  wire [15:0] folded = offset + a;
  wire [15:0] masked = folded & 16'hFFF0;
  wire over = folded > threshold;
  assign bypass = masked | c;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n)
      acc <= 0;
    else if (over)
      acc <= summed - threshold;
    else
      acc <= acc + folded;
  end
endmodule
"""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", type=Path, default=None,
                        help="Verilog file to lock (default: built-in demo core)")
    parser.add_argument("--top", default=None, help="top module name")
    parser.add_argument("--algorithm", default="era",
                        choices=["assure", "assure-random", "hra", "greedy", "era"])
    parser.add_argument("--budget", type=float, default=0.75,
                        help="key budget as a fraction of lockable operations")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the locked Verilog to this file")
    parser.add_argument("--rounds", type=int, default=25,
                        help="relocking rounds for the SnapShot training set")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.input is not None:
        design = Design.from_file(args.input, top_name=args.top)
    else:
        design = Design.from_verilog(DEMO_CORE, top_name=args.top, name="mac_core")

    print(analyze_design(design).to_text())
    if design.num_operations() == 0:
        print("The design contains no lockable operations; nothing to do.",
              file=sys.stderr)
        sys.exit(1)

    budget = max(1, int(args.budget * design.num_operations()))
    locker = make_locker(args.algorithm, random.Random(args.seed),
                         track_metrics=True)
    locked = locker.lock(design, key_budget=budget)

    print()
    print(f"Locked with {locked.algorithm}: {locked.summary()}")
    print(f"Correct key ({locked.design.key_width} bits, MSB first): "
          f"{locked.design.correct_key_string()}")
    print(odt_from_design(locked.design).to_text())

    if args.output is not None:
        args.output.write_text(locked.design.to_verilog())
        print(f"\nLocked Verilog written to {args.output}")

    # --- play the attacker -------------------------------------------------
    print("\nAttacking the locked design (oracle-less)...")
    attacks = {
        "random guess": RandomGuessAttack(random.Random(args.seed + 1)),
        "majority vote": MajorityVoteAttack(rounds=args.rounds,
                                            rng=random.Random(args.seed + 2)),
        "SnapShot (auto-ML)": SnapShotAttack(rounds=args.rounds, time_budget=8.0,
                                             rng=random.Random(args.seed + 3)),
    }
    rows = []
    for name, attack in attacks.items():
        result = attack.attack(locked.design, algorithm=args.algorithm)
        rows.append([name, result.kpa, result.model_name, result.training_size])
    print(format_table(["attack", "KPA (%)", "model", "training samples"], rows))
    print("\n50 % KPA means the attacker learned nothing; 100 % means the key "
          "leaked completely.")


if __name__ == "__main__":
    main()
