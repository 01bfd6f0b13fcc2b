#!/usr/bin/env bash
# Run every shipped scenario with --seed 7 under PYTHONHASHSEED 0 and 1 and
# compare its audit trail with the golden in tests/data/goldens.
#
#   tests/check_goldens.sh sim   the whole file must match, byte for byte
#   tests/check_goldens.sh tcp   every in-system message crosses the tcp
#                                wire; tcp mode numbers audit lines instead
#                                of using the simulated clock, so the tick
#                                column is cut off before the comparison
#
# Run from the repository root with `mds` on PATH.  Trails are written to
# $RUNNER_TEMP, or to a fresh temporary directory when that is unset.
set -euo pipefail

mode=${1:-}
case "$mode" in
  sim|tcp) ;;
  *) echo "usage: tests/check_goldens.sh sim|tcp" >&2; exit 2 ;;
esac
out=${RUNNER_TEMP:-$(mktemp -d)}

for hashseed in 0 1; do
  for scenario in scenarios/*.mds; do
    name=$(basename "$scenario" .mds)
    golden="tests/data/goldens/$name.audit"
    trail="$out/$name.$mode.audit"
    echo "== $scenario --mode $mode, PYTHONHASHSEED=$hashseed"
    PYTHONHASHSEED=$hashseed mds run "$scenario" --mode "$mode" \
      --seed 7 --audit "$trail"
    if [ "$mode" = sim ]; then
      cmp "$trail" "$golden"
    else
      cmp <(cut -d'|' -f2- "$trail") <(cut -d'|' -f2- "$golden")
    fi
  done
done
