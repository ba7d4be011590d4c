#!/bin/sh
# Seeded bugs that the test suite must catch. Each `*.patch` here is a small
# bug in one mechanism, headed by the test filter that must fail on it
# (`Filter:`) and the cargo target that holds that test (`Target:`).
#
# For each patch in turn this script applies it to the work tree, builds the
# target in release, checks that the filter names at least one test, runs
# the filter, and restores the work tree. It fails if a patch no longer
# applies or builds (re-target it with the code), if its filter names no
# test, or if the filter passes with the bug in.
#
# Run it from the repository root on a clean work tree:
#
#     sh tests/mutants/run.sh
set -u

git diff --quiet || { echo "the work tree has changes; run on a clean checkout"; exit 1; }
status=0
for patch in tests/mutants/*.patch; do
    filter=$(sed -n 's/^Filter: //p' "$patch" | head -n 1)
    target=$(sed -n 's/^Target: //p' "$patch" | head -n 1)
    if [ -z "$filter" ] || [ -z "$target" ]; then
        echo "$patch: no Filter: or Target: line"
        status=1
        continue
    fi
    if ! git apply "$patch"; then
        echo "$patch: no longer applies"
        status=1
        continue
    fi
    # shellcheck disable=SC2086 # the target is several arguments
    if ! cargo test --release -q $target --no-run 2>/dev/null; then
        echo "$patch: does not build"
        status=1
    else
        # shellcheck disable=SC2086
        count=$(cargo test --release -q $target -- "$filter" --list 2>/dev/null | grep -c ': test$')
        # shellcheck disable=SC2086
        if [ "$count" -eq 0 ]; then
            echo "$patch: $filter names no test"
            status=1
        elif cargo test --release -q $target -- "$filter" >/dev/null 2>&1; then
            echo "$patch: $filter PASSED with the bug in"
            status=1
        else
            echo "$patch: $filter fails, as it must ($count tests)"
        fi
    fi
    git checkout -q -- .
done
exit $status
