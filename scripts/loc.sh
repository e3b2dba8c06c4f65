#!/usr/bin/env bash
# loc.sh — the simplicity trajectory: non-comment, non-blank lines of
# non-test Go per package, one recorded point per PR like the bench one.
# A line counts unless it is blank or starts with `//`, the same rule the
# issues quote (`grep -cvE '^\s*(//|$)'`). Printed as a markdown table,
# and appended to the CI job summary when GITHUB_STEP_SUMMARY is set.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

{
    echo "### Code lines (non-test Go, comments and blanks excluded)"
    echo
    echo "| package | lines |"
    echo "|---|---|"
    total=0
    for dir in $(go list -f '{{.Dir}}' ./... | sed "s|^$PWD/||; s|^$PWD\$|.|"); do
        files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
        [[ -n "$files" ]] || continue
        n=$(cat $files | grep -cvE '^\s*(//|$)' || true)
        echo "| $dir | $n |"
        total=$((total + n))
    done
    echo "| **total** | **$total** |"
} | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
