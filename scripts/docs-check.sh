#!/usr/bin/env bash
# docs-check.sh — documentation gate, run by the CI `docs` job.
#
#   1. Every internal/* package must carry a package comment (godoc
#      `// Package <name> ...` on some non-test file).
#   2. Every ```go fence in docs/*.md and the top-level *.md files must
#      be gofmt-clean. Snippets without a `package` clause are checked
#      as-is wrapped in a synthetic `package docs`; write complete
#      top-level declarations or use a plain ``` fence for shell/pseudo
#      code.
#   3. Every relative markdown link in docs/*.md and the top-level
#      *.md files must resolve to an existing file or directory.
#   4. internal/dpp, internal/dpp/dppnet and internal/dpp/dppshard must
#      not import internal/datagen: rows (datagen.Sample) exist
#      downstream of fill only in the row adapters the frozen benchmark
#      times; a session, a wire frame or the fleet merge that imports the
#      row type has regrown the row detour the one cutter replaced.
#   5. Every test or fuzz target docs/ARCHITECTURE.md's determinism table
#      cites as `pkg.TestName` / `pkg.FuzzName` must exist in a package of
#      that name (`go test -list`), so a renamed or deleted test cannot
#      leave a row that pins nothing.
#   6. Every "protocol vN" in docs/*.md must name the version the code
#      speaks (`protoVersion` in internal/dpp/dppnet/protocol.go), so the
#      docs cannot lag the next bump. History belongs in protocol.go's
#      version comment; docs that must mention an older version say
#      "v6", not "protocol v6". The one exception is a refusal quoted
#      verbatim: "protocol v7 retired: ...".
#   7. The frames in docs/ARCHITECTURE.md's wire table (the table whose
#      header row is `| frame | direction | payload |`) and the `frame*`
#      constants of protocol.go not marked `// retired` must be the same
#      set, both ways: a frame added, renamed or retired in one place and
#      not the other fails. Names compare with case and hyphens dropped
#      (`frameFileUnit` is `file-unit`).
#   8. Every `Spec.<Name>` in docs/*.md, doc.go and benchmarks/README.md
#      must name an exported field of reader.Spec or dpp.Spec (or a method:
#      `Spec.Window()`), so an option deleted from the code cannot live on
#      in the runbooks.
#
# Usage: scripts/docs-check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. package comments -------------------------------------------------
# godoc ignores _test.go files, so the comment must live on a non-test
# file to count.
for dir in internal/*/; do
    pkg=$(basename "$dir")
    files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go')
    if [[ -z "$files" ]] || ! echo "$files" | xargs grep -l -q "^// Package $pkg" 2>/dev/null; then
        echo "docs: package $dir has no '// Package $pkg' comment on a non-test file"
        fail=1
    fi
done

# --- 2. go code fences ---------------------------------------------------
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
for md in docs/*.md *.md; do
    [[ -f "$md" ]] || continue
    awk -v md="$md" -v tmpdir="$tmpdir" '
        /^```go$/ { infence = 1; n++; start = NR; buf = ""; next }
        /^```$/ && infence {
            infence = 0
            slug = md; gsub(/[^A-Za-z0-9]/, "_", slug)
            file = sprintf("%s/fence-%s-%d.go", tmpdir, slug, start)
            printf "%s", buf > file
            close(file)
            printf "%s:%d %s\n", md, start, file >> (tmpdir "/index")
            next
        }
        infence { buf = buf $0 "\n" }
    ' "$md"
done
if [[ -f "$tmpdir/index" ]]; then
    while read -r where file; do
        src="$file"
        if ! grep -q '^package ' "$file"; then
            src="$file.wrapped.go"
            { echo "package docs"; echo; cat "$file"; } > "$src"
        fi
        if ! out=$(gofmt -l -e "$src" 2>&1); then
            echo "docs: $where: go fence does not parse:"
            echo "$out" | sed 's/^/    /'
            fail=1
        elif [[ -n "$out" ]]; then
            echo "docs: $where: go fence is not gofmt-clean"
            fail=1
        fi
    done < "$tmpdir/index"
fi

# --- 3. relative links ---------------------------------------------------
for md in docs/*.md *.md; do
    [[ -f "$md" ]] || continue
    dir=$(dirname "$md")
    # Markdown inline links: [text](target). Skip absolute URLs and
    # pure in-page anchors. grep exits 1 on link-free files — that is
    # fine, not a failure.
    { grep -o '\[[^][]*\]([^)]*)' "$md" || true; } | sed 's/^.*](\([^)]*\))$/\1/' | while read -r target; do
        case "$target" in
            http://*|https://*|mailto:*|\#*) continue ;;
        esac
        path="${target%%#*}"
        [[ -z "$path" ]] && continue
        if [[ ! -e "$dir/$path" ]]; then
            echo "docs: $md: broken link -> $target"
            exit 1
        fi
    done || fail=1
done

# --- 4. import guard -----------------------------------------------------
if go list -f '{{.ImportPath}} {{join .Imports " "}}' ./internal/dpp ./internal/dpp/dppnet ./internal/dpp/dppshard | grep 'repro/internal/datagen'; then
    echo "docs: the packages above import repro/internal/datagen (the row type); cut batches through reader.RunUnits instead"
    fail=1
fi

# --- 5. the determinism table names tests that exist ---------------------
# "<dir basename>.<Name>" per test and fuzz target of every package. The
# pipeline may fail only in go test -list (a package that does not compile
# fails the check); awk and sort cannot.
listed=$(go test -list '^(Test|Fuzz)' ./... | awk '
    /^(Test|Fuzz)/ { names[++n] = $1 }
    /^ok/ { k = split($2, parts, "/"); for (i = 1; i <= n; i++) print parts[k] "." names[i]; n = 0 }
' | sort -u) || { echo "docs: go test -list failed"; fail=1; }
cited=$(awk '/^## Determinism contracts/ { on = 1; next } /^## / { on = 0 } on && /^\|/' docs/ARCHITECTURE.md \
    | grep -oE '`[a-z]+\.(Test|Fuzz)[A-Za-z0-9_]+`' | tr -d '`' | sort -u)
if [[ -z "$cited" ]]; then
    echo "docs: found no pkg.TestName citations in ARCHITECTURE.md's determinism table"
    fail=1
fi
for name in $cited; do
    if ! grep -qxF "$name" <<<"$listed"; then
        echo "docs: ARCHITECTURE.md's determinism table cites $name, which go test -list does not know"
        fail=1
    fi
done

# --- 6. "protocol vN" in the docs is the version the code speaks ----------
version=$(sed -n 's/^[[:space:]]*protoVersion[[:space:]]*=[[:space:]]*\([0-9][0-9]*\).*/\1/p' internal/dpp/dppnet/protocol.go)
if [[ -z "$version" ]]; then
    echo "docs: found no protoVersion in internal/dpp/dppnet/protocol.go"
    fail=1
elif stale=$(grep -noE 'protocol v[0-9]+( retired)?' docs/*.md | grep -vE "protocol v($version|[0-9]+ retired)\$"); then
    echo "docs: the code speaks dppnet protocol v$version; these say otherwise:"
    echo "$stale" | sed 's/^/    /'
    fail=1
fi

# --- 7. the wire table is the frame set -----------------------------------
norm() { tr -d '-' | tr '[:upper:]' '[:lower:]' | sort -u; }
coded=$(sed -n '/\/\/ retired/d; s/^[[:space:]]*frame\([A-Za-z]*\)[[:space:]]*=[[:space:]]*byte(0x.*/\1/p' internal/dpp/dppnet/protocol.go | norm)
tabled=$(awk '/^\| frame \| direction \| payload \|$/ { on = 1; next } on && !/^\|/ { on = 0 } on' docs/ARCHITECTURE.md \
    | sed -n 's/^| `\([a-z-]*\)` |.*/\1/p' | norm)
if [[ -z "$coded" || -z "$tabled" ]]; then
    echo "docs: found no frame constants in protocol.go or no wire table in ARCHITECTURE.md"
    fail=1
elif drift=$(comm -3 <(echo "$coded") <(echo "$tabled")) && [[ -n "$drift" ]]; then
    echo "docs: protocol.go's live frame constants (left) and ARCHITECTURE.md's wire table (right) differ:"
    echo "$drift" | sed 's/^/    /'
    fail=1
fi

# --- 8. Spec.<Name> in the docs is a field the code has -------------------
spec_names=$(cat $(find internal/reader internal/dpp -maxdepth 1 -name '*.go' ! -name '*_test.go') | awk '
    $0 == "type Spec struct {" { on = 1; next }
    on && /^}/ { on = 0 }
    on && match($0, /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* /) {
        n = split(substr($0, RSTART, RLENGTH), names, /[, \t]+/)
        for (i = 1; i <= n; i++) if (names[i] != "") print names[i]
    }
    match($0, /^func \(s \*?Spec\) [A-Z][A-Za-z0-9_]*\(/) { name = substr($0, RSTART, RLENGTH - 1); sub(/.* /, "", name); print name }
' | sort -u)
if [[ -z "$spec_names" ]]; then
    echo "docs: found no fields of reader.Spec or dpp.Spec"
    fail=1
fi
while IFS=: read -r file line cite; do
    name=${cite#Spec.}
    if ! grep -qxF "${name%()}" <<<"$spec_names"; then
        echo "docs: $file:$line: $cite is not a field or method of reader.Spec or dpp.Spec"
        fail=1
    fi
done < <(grep -noE '\bSpec\.[A-Z][A-Za-z0-9_]*(\(\))?' docs/*.md doc.go benchmarks/README.md || true)

if [[ "$fail" -ne 0 ]]; then
    echo "docs: FAIL"
    exit 1
fi
echo "docs: OK (package comments, go fences, links, import guard, determinism-table tests, protocol version, frame set, Spec fields)"
