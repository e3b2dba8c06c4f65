#!/usr/bin/env bash
# loc.sh — the simplicity trajectory: non-comment, non-blank lines of
# non-test Go per package, one recorded point per PR like the bench one.
# A line counts unless it is blank or starts with `//`, the same rule the
# issues quote (`grep -cvE '^\s*(//|$)'`). Printed as a markdown table,
# and appended to the CI job summary when GITHUB_STEP_SUMMARY is set.
#
# A second table is the option trajectory: the own exported fields of the
# structs a caller configures the serving path through (named fields at the
# struct's top level; an embedded struct's fields are that struct's to
# count) and the `flag.` definitions of each binary. Every one is a value
# somebody can set, so a PR that says it adds or retires options shows it
# here instead of being re-counted by hand.
#
# Usage: scripts/loc.sh [<git-rev>]
#
# With a revision, the tables compare that commit (extracted with
# `git archive` into a temporary directory, counted by the same rules) to
# the working tree: `parent | change | Δ` per row.
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

# count_options <root> prints "<what> <count>" for every configured struct
# and every binary of the tree rooted there.
option_structs="internal/reader:Spec internal/dpp:Spec internal/dpp:Config internal/dpp:AutoScalerConfig internal/dpp/dppnet:Client internal/dpp/dppnet:ResumePolicy internal/dpp/dppnet:Server internal/dpp/dppshard:Config"
count_options() {
    (
        cd "$1"
        for spec in $option_structs; do
            dir=${spec%%:*} typ=${spec##*:}
            n=$(cat $(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go') | awk -v typ="$typ" '
                $0 == "type " typ " struct {" { on = 1; next }
                on && /^}/ { on = 0 }
                on && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* /) {
                    n += split(substr($0, RSTART, RLENGTH), names, ",")
                }
                END { print n + 0 }')
            echo "$(basename "$dir").$typ $n"
        done
        for dir in cmd/*/; do
            echo "${dir%/} $(cat "$dir"*.go | grep -cE '\bflag\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Text)(Var)?|Var|Func|BoolFunc)\(' || true)"
        done
    )
}

rev=${1:-}
declare -A before after obefore oafter
while read -r dir n; do after[$dir]=$n; done < <(count_tree .)
while read -r what n; do oafter[$what]=$n; done < <(count_options .)
if [[ -n "$rev" ]]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git archive "$rev" | tar -x -C "$tmp"
    while read -r dir n; do before[$dir]=$n; done < <(count_tree "$tmp")
    while read -r what n; do obefore[$what]=$n; done < <(count_options "$tmp")
fi

# table <title> <first column> <unit> <before array> <after array> <total
# label> <glob of the rows the total sums> prints one of the two tables.
table() {
    local -n b4=$4 aft=$5
    local row b a total_before=0 total_after=0
    echo "### $1"
    echo
    if [[ -n "$rev" ]]; then
        echo "| $2 | $rev | change | Δ |"
        echo "|---|---|---|---|"
    else
        echo "| $2 | $3 |"
        echo "|---|---|"
    fi
    for row in $(printf '%s\n' "${!b4[@]}" "${!aft[@]}" | sort -u); do
        b=${b4[$row]:-0} a=${aft[$row]:-0}
        # shellcheck disable=SC2053  # $7 is a glob on purpose
        if [[ "$row" == $7 ]]; then
            total_before=$((total_before + b)) total_after=$((total_after + a))
        fi
        if [[ -n "$rev" ]]; then
            echo "| $row | $b | $a | $((a - b)) |"
        else
            echo "| $row | $a |"
        fi
    done
    if [[ -n "$rev" ]]; then
        echo "| **$6** | **$total_before** | **$total_after** | **$((total_after - total_before))** |"
    else
        echo "| **$6** | **$total_after** |"
    fi
}

{
    table "Code lines (non-test Go, comments and blanks excluded)" package lines before after total '*'
    echo
    table "Options (own exported struct fields; flag definitions per binary)" what count obefore oafter "all flags" 'cmd/*'
} | tee -a "${GITHUB_STEP_SUMMARY:-/dev/null}"
