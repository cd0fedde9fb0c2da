#!/usr/bin/env bash
# Compare the per-op payload digests of the three benchmark workloads
# between two checkouts and print a markdown report naming the ops whose
# digest changed, or "identical", for each seed.
#
#   bash .github/digest_diff.sh BASE_DIR HEAD_DIR [SEED ...]
#
# The seeds default to 1 2 3.  Report only: it exits 0 whatever the
# digests say, because a correctness change moves digests on purpose.
set -u
base=$1 head=$2
shift 2
seeds=${*:-1 2 3}
tmp=$(mktemp -d)
echo "### Payload digests against the base commit (seeds $seeds)"
for seed in $seeds; do
  for w in rp-search clouds averages; do
    for side in base head; do
      dir=$base
      [ "$side" = head ] && dir=$head
      (cd "$dir" && python3 perfbench/run.py --workload "$w" --seed "$seed" --seconds 1) \
        2>/dev/null | awk '$1 == "op" {print $2, $3}' | sort > "$tmp/$side"
    done
    changed=$(comm -3 "$tmp/base" "$tmp/head" | awk '{print $1}' | sort -u | tr '\n' ' ')
    if [ ! -s "$tmp/base" ] || [ ! -s "$tmp/head" ]; then
      echo "- $w, seed $seed: no digests from one side (the run failed)"
    elif [ -z "$changed" ]; then
      echo "- $w, seed $seed: identical ($(wc -l < "$tmp/head") ops)"
    else
      echo "- $w, seed $seed: changed: $changed"
    fi
  done
done
rm -rf "$tmp"
exit 0
