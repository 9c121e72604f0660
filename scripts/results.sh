#!/usr/bin/env bash
# results/ from one tree: the command table of results/README.md as a script.
#
#   scripts/results.sh [file ...]          regenerate results/<file> (default:
#                                          every file the table lists) with
#                                          slotsim built from the working tree
#   scripts/results.sh -diff <ref> [cycles]
#                                          build slotsim at <ref> and from the
#                                          working tree, run the deterministic
#                                          quality outputs at a reduced -cycles
#                                          (default 20) with both, and diff
#                                          them byte for byte; exits non-zero
#                                          on any difference
#
# The timing tables (table1, table2) are wall-clock measurements: they are
# stamped with the machine they ran on and never diffed. Build outputs and
# the -diff runs are left in results.out/.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
out=results.out
mkdir -p "$out"

# file -> slotsim arguments, in results/README.md order.
declare -A cmd=(
  [quality.txt]="-cycles 3000 summary"
  [quality5000.txt]="-cycles 5000 -workers 8 summary"
  [fig2.txt]="-cycles 3000 fig2"
  [fig3.txt]="-cycles 3000 fig3"
  [fig4.txt]="-cycles 3000 fig4"
  [table1.txt]="-cycles 60 table1"
  [table2.txt]="-cycles 60 table2"
  [ablate.txt]="-cycles 500 ablate"
  [tasks.txt]="-cycles 300 tasks"
  [frontier.txt]="-cycles 300 frontier"
  [hetero.txt]="-cycles 300 hetero"
  [deadline.txt]="-cycles 300 deadline"
  [batch.txt]="-cycles 100 batch"
  [longrun.txt]="-cycles 40 longrun"
)
order=(quality.txt quality5000.txt fig2.txt fig3.txt fig4.txt table1.txt table2.txt
  ablate.txt tasks.txt frontier.txt hetero.txt deadline.txt batch.txt longrun.txt)

# The outputs a pruning or kernel bug would move: every deterministic
# quality study, at one reduced cycle count.
diffed=(summary fig2 fig3 fig4 ablate deadline tasks frontier hetero batch)

machine() {
  echo "# $(go env GOVERSION) $(go env GOOS)/$(go env GOARCH), GOMAXPROCS=${GOMAXPROCS:-$(nproc)}, nproc=$(nproc)"
}

if [[ "${1:-}" == "-diff" ]]; then
  ref=${2:?usage: scripts/results.sh -diff <ref> [cycles]}
  cycles=${3:-20}
  rm -rf "$out/src" && mkdir -p "$out/src"
  git archive "$ref" | tar -x -C "$out/src"
  (cd "$out/src" && go build -o ../parent ./cmd/slotsim)
  rm -rf "$out/src"
  go build -o "$out/change" ./cmd/slotsim
  status=0
  for exp in "${diffed[@]}"; do
    for side in parent change; do
      "$out/$side" -cycles "$cycles" "$exp" >"$out/$side.$exp.txt"
    done
    if cmp -s "$out/parent.$exp.txt" "$out/change.$exp.txt"; then
      echo "same   $exp (-cycles $cycles)"
    else
      echo "DIFFER $exp (-cycles $cycles)"
      diff "$out/parent.$exp.txt" "$out/change.$exp.txt" | head -20 || true
      status=1
    fi
  done
  exit $status
fi

go build -o "$out/slotsim" ./cmd/slotsim
files=("$@")
((${#files[@]})) || files=("${order[@]}")
for f in "${files[@]}"; do
  args=${cmd[$f]:?unknown results file $f (see results/README.md)}
  echo "results/$f: slotsim $args"
  case $f in
  table1.txt | table2.txt)
    { machine; "$out/slotsim" $args; } >"results/$f.tmp"
    ;;
  *)
    "$out/slotsim" $args >"results/$f.tmp"
    ;;
  esac
  mv "results/$f.tmp" "results/$f"
done
