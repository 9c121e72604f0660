#!/usr/bin/env bash
# Kernel bench gate: build slotbench at <parent-ref> and from the working
# tree, run the two in ten alternating pairs on this machine (which side
# goes first alternates too), and gate on the paired difference per row —
# see internal/benchgate. Exits non-zero on a regression. Leaves the
# binaries and the pair files (p1.txt c1.txt ... p10.txt c10.txt) in
# benchpair.out/.
set -euo pipefail
parent=${1:?usage: scripts/benchpair.sh <parent-ref>}
cd "$(git rev-parse --show-toplevel)"
out=benchpair.out
rm -rf "$out" && mkdir -p "$out/src"
git archive "$parent" | tar -x -C "$out/src"
(cd "$out/src" && go build -o ../parent ./cmd/slotbench)
rm -rf "$out/src"
go build -o "$out/change" ./cmd/slotbench
files=()
for i in $(seq 1 10); do
  sides=(parent change)
  ((i % 2)) || sides=(change parent)
  for side in "${sides[@]}"; do
    "$out/$side" -benchfmt -iters 3 -o "$out/${side:0:1}$i.txt"
  done
  files+=("$out/p$i.txt" "$out/c$i.txt")
done
"$out/change" -gate "${files[@]}"
