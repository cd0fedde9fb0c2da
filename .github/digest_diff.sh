#!/usr/bin/env bash
# Compare the per-op payload digests of the three benchmark workloads
# between two checkouts and print a markdown report for each seed: the
# ops whose digest changed, or "identical", and failed/attempted on each
# side from the run's last line; under a changed op, its oracle verdict
# (ok or fail) on each side.
#
#   bash .github/digest_diff.sh BASE_DIR HEAD_DIR [SEED ...]
#
# The seeds default to 1 2 3 5 7, the seeds of the CI digest job; seeds 5
# and 7 draw the susp-rp pairs whose height gap lies below 3 delta, which
# only the suspension's rotation factor decides.  Report only: it exits 0 whatever the
# digests say, because a correctness change moves digests on purpose.
set -u
base=$1 head=$2
shift 2
seeds=${*:-1 2 3 5 7}
tmp=$(mktemp -d)
# failed/attempted from the JSON of a run's last line, or "none"
tally() {
  tail -n 1 "$1" | python3 -c '
import json, sys
try:
    r = json.loads(sys.stdin.read())
    print("%d/%d" % (r["failed"], r["attempted"]))
except (ValueError, KeyError, TypeError):
    print("none")'
}
# the verdict of op $2 in verdict file $1, or "absent"
verdict() {
  awk -v op="$2" '$1 == op {print $2; found = 1} END {if (!found) print "absent"}' "$1"
}
echo "### Payload digests against the base commit (seeds $seeds)"
for seed in $seeds; do
  for w in rp-search clouds averages; do
    for side in base head; do
      dir=$base
      [ "$side" = head ] && dir=$head
      (cd "$dir" && python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 1) \
        2>/dev/null > "$tmp/$side.out"
      awk '$1 == "op" {print $2, $3}' "$tmp/$side.out" | sort > "$tmp/$side"
      awk '$1 == "op" {print $2, ($5 == "ok" ? "ok" : "fail")}' "$tmp/$side.out" \
        | sort > "$tmp/$side.verdicts"
    done
    counts="failed/attempted $(tally "$tmp/base.out") → $(tally "$tmp/head.out")"
    changed=$(comm -3 "$tmp/base" "$tmp/head" | awk '{print $1}' | sort -u)
    if [ ! -s "$tmp/base" ] || [ ! -s "$tmp/head" ]; then
      echo "- $w, seed $seed: no digests from one side (the run failed); $counts"
    elif [ -z "$changed" ]; then
      echo "- $w, seed $seed: identical ($(wc -l < "$tmp/head") ops); $counts"
    else
      echo "- $w, seed $seed: changed: $(echo $changed); $counts"
      for op in $changed; do
        echo "  - $op: $(verdict "$tmp/base.verdicts" "$op") → $(verdict "$tmp/head.verdicts" "$op")"
      done
    fi
  done
done
rm -rf "$tmp"
exit 0
