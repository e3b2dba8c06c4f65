#!/usr/bin/env bash
# loc.sh — the simplicity trajectory: non-comment, non-blank lines of
# non-test Go per package, one recorded point per PR like the bench one.
# A line counts unless it is blank or starts with `//`, the same rule the
# issues quote (`grep -cvE '^\s*(//|$)'`). Printed as a markdown table,
# and appended to the CI job summary when GITHUB_STEP_SUMMARY is set.
#
# Usage: scripts/loc.sh [<git-rev>]
#
# With a revision, the table compares that commit (extracted with
# `git archive` into a temporary directory, counted by the same rule) to
# the working tree: `parent | change | Δ` per package.
set -euo pipefail
cd "$(dirname "$0")/.."

# count_tree <root> prints "<package dir> <lines>" for every package of the
# Go module rooted there.
count_tree() {
    (
        cd "$1"
        for dir in $(go list -f '{{.Dir}}' ./... | sed "s|^$PWD/||; s|^$PWD\$|.|"); do
            files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
            [[ -n "$files" ]] || continue
            echo "$dir $(cat $files | grep -cvE '^\s*(//|$)' || true)"
        done
    )
}

rev=${1:-}
declare -A before after
while read -r dir n; do after[$dir]=$n; done < <(count_tree .)
if [[ -n "$rev" ]]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$rev" | tar -x -C "$tmp"
    while read -r dir n; do before[$dir]=$n; done < <(count_tree "$tmp")
fi

{
    echo "### Code lines (non-test Go, comments and blanks excluded)"
    echo
    if [[ -n "$rev" ]]; then
        echo "| package | $rev | change | Δ |"
        echo "|---|---|---|---|"
    else
        echo "| package | lines |"
        echo "|---|---|"
    fi
    total_before=0 total_after=0
    for dir in $(printf '%s\n' "${!before[@]}" "${!after[@]}" | sort -u); do
        b=${before[$dir]:-0} a=${after[$dir]:-0}
        total_before=$((total_before + b)) total_after=$((total_after + a))
        if [[ -n "$rev" ]]; then
            echo "| $dir | $b | $a | $((a - b)) |"
        else
            echo "| $dir | $a |"
        fi
    done
    if [[ -n "$rev" ]]; then
        echo "| **total** | **$total_before** | **$total_after** | **$((total_after - total_before))** |"
    else
        echo "| **total** | **$total_after** |"
    fi
} | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
