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
#      row type has regrown the row detour the one cutter replaced. And
#      internal/dwrf must not import a compress/... package: every DWRF
#      stream is stated by its own grammar and read where it was fetched,
#      and a general-purpose compressor over one would bring back the
#      inflate buffers and the second length rule that went with it.
#      Nor may internal/dwrf declare an integer width code of its own (a
#      `...Codec` type, a span's width from bits.Len64 of a difference,
#      or a masked 8-byte load): its IDs are written in tensor.WidthCodec,
#      the module's one integer code, which the wire's blocks use too.
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
#      (`frameEndFollow` is `end-follow`). And no two `frame*` constants,
#      live or retired, may share a byte value, so a retired number is
#      never reused.
#   8. Every `Spec.<Name>` in docs/*.md, doc.go and benchmarks/README.md
#      must name an exported field of reader.Spec or dpp.Spec (or a method:
#      `Spec.Window()`), so an option deleted from the code cannot live on
#      in the runbooks.
#   9. Each binary's flag table in docs/OPERATIONS.md (the `| flag |
#      default | meaning |` table under the `## recd-<name>` or
#      `### recd-<name>` heading) must list exactly the `flag.`
#      definitions of cmd/recd-<name>, both ways: a flag deleted from the
#      code cannot live on in the runbook, and one added cannot go
#      undocumented. And every flag the docs name is one somebody can
#      pass. In docs/*.md, doc.go and the verify skill, a code span that
#      opens with a flag (`-flag`, `-flag value`) may name only flags
#      defined under cmd/, flags of the ladder, or the go tool flags
#      listed below. There and in scripts/*.sh, every -flag on a
#      recd-<name> command line must be one cmd/recd-<name> defines; the
#      command line is the words after the binary's name up to the end of
#      its code span, a shell operator, a `#`, a word ending a clause
#      (`,` `.` `;` `:` `)`), or, unless the line ends in `\` or a code
#      span runs on, the end of the line.
#  10. No non-test Go file outside internal/tensor may call
#      binary.ReadUvarint or io.ReadFull, except the calls listed in
#      read_allowed below, each with its reason. A decoder of outside bytes
#      reads through tensor.Decoder or tensor.ReadInto, which believe a
#      declared length only as its bytes arrive; one that reads for itself
#      has grown a second length rule. An entry no call uses fails too, so
#      an exception cannot outlive the call it excused.
#  11. Every trailer docs/*.md names in a code span or quotes (`DWR3`,
#      "DWR3") must be the trailer the code writes (`trailerMagic` in
#      internal/dwrf/dwrf.go), so the docs cannot lag the next layout.
#      Docs that must mention an older one say "retired trailer `DWR2`".
#      The one exception is the refusal quoted verbatim: (trailer "DWR2",
#      not "DWR3"), whose second name must be the current one.
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
if go list -f '{{join .Imports "\n"}}' ./internal/dwrf | grep '^compress/'; then
    echo "docs: internal/dwrf imports the compress/ packages above; state a stream by its own grammar instead"
    fail=1
fi
# A width code of dwrf's own: a Codec type, the width of a span
# (bits.Len64 of a difference) or the masked 8-byte load that reads one.
if grep -nE '^type [A-Za-z_]*[Cc]odec\b|bits\.Len64\(.*-|\^uint64\(0\) *>>' $(ls internal/dwrf/*.go | grep -v '_test\.go$'); then
    echo "docs: internal/dwrf declares its own integer width code above; write integers with tensor.WidthCodec, the module's one"
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
if reused=$(sed -n 's/^[[:space:]]*frame[A-Za-z]*[[:space:]]*=[[:space:]]*byte(\(0x[0-9a-fA-F]*\)).*/\1/p' internal/dpp/dppnet/protocol.go \
    | tr '[:upper:]' '[:lower:]' | sort | uniq -d) && [[ -n "$reused" ]]; then
    echo "docs: protocol.go gives these numbers to more than one frame constant, live or retired:"
    echo "$reused" | sed 's/^/    /'
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

# --- 9. the flag tables are the flags ------------------------------------
# "<binary> -<flag>" per definition in the code and per row in the runbook.
coded=$(for dir in cmd/*/; do
    bin=$(basename "$dir")
    find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + \
        | { grep -oE '\bflag\.((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Text)(Var)?|Var|Func|BoolFunc)\([^"]*"[^"]+"' || true; } \
        | sed -E "s/.*\"([^\"]+)\"\$/$bin -\1/"
done | sort -u)
tabled=$(awk '
    /^#+ recd-[a-z]+/ { bin = $2; on = 0; next }
    /^#/ { bin = ""; on = 0; next }
    /^\| flag \| default \| meaning \|$/ { on = (bin != ""); next }
    on && !/^\|/ { on = 0 }
    on && match($0, /^\| `-[a-z0-9-]+` \|/) { print bin, substr($0, RSTART + 3, RLENGTH - 6) }
' docs/OPERATIONS.md | sort -u)
if [[ -z "$coded" || -z "$tabled" ]]; then
    echo "docs: found no flag definitions under cmd/ or no flag tables in docs/OPERATIONS.md"
    fail=1
elif drift=$(comm -3 <(echo "$coded") <(echo "$tabled")) && [[ -n "$drift" ]]; then
    echo "docs: the flags defined in cmd/ (left) and docs/OPERATIONS.md's flag tables (right) differ:"
    echo "$drift" | sed 's/^/    /'
    fail=1
fi
echo "$coded" >"$tmpdir/coded"
{
    sed 's/^[^ ]* //' <<<"$coded"
    cat benchmarks/ladder/*.go | { grep -oE '\bfs\.[A-Z][A-Za-z0-9]*\("[^"]+"' || true; } | sed -E 's/.*"([^"]+)"$/-\1/'
    printf '%s\n' -bench -benchmem -count -cpu -fuzz -fuzzminimizetime -fuzztime -list -race -run -short
} >"$tmpdir/known"
if stray=$(awk -v known="$tmpdir/known" -v coded="$tmpdir/coded" -v q="'" '
    BEGIN {
        while ((getline l <known) > 0) ok[l] = 1
        while ((getline l <coded) > 0) { split(l, f, " "); def[l] = 1; bin[f[1]] = 1 }
        lead = "^[\"" q "(]+"; trail = "[\"" q "),.;:]+$"; clause = "[),.;:][\"" q "]*$"
    }
    FNR == 1 { md = FILENAME ~ /\.md$/; fence = 0; span = 0; cmd = "" }
    {
        line = $0
        if (FILENAME ~ /\.go$/) sub(/^\/\/[ \t]?/, "", line)
        if (md && line ~ /^[ \t]*```/) { fence = !fence; cmd = ""; next }
        spans = md && !fence
        if (spans) n = split(line, part, "`"); else { n = 1; part[1] = line }
        for (i = 1; i <= n; i++) {
            if (i > 1) { span = !span; cmd = ""; opening = span }
            m = split(part[i], w, /[ \t]+/)
            for (j = 1; j <= m; j++) {
                if (w[j] == "") continue
                if (w[j] ~ /^(\||\|\||&&|&|;|#.*)$/) { cmd = ""; opening = 0; continue }
                word = w[j]; sub(lead, "", word); stop = word ~ clause; sub(trail, "", word)
                flag = word; sub(/=.*/, "", flag)
                isflag = flag ~ /^-[a-z][a-z0-9-]*$/
                if (opening) { flagspan = isflag; opening = 0 }
                if (span && flagspan && isflag && !(flag in ok))
                    printf "%s:%d: `%s` is no flag of cmd/, the ladder or the go tool\n", FILENAME, FNR, flag
                name = word; sub(/.*\//, "", name)
                if (name in bin) cmd = name
                else if (isflag && cmd != "" && !((cmd " " flag) in def))
                    printf "%s:%d: %s has no flag %s\n", FILENAME, FNR, cmd, flag
                if (stop) cmd = ""
            }
        }
        if (!span && line !~ /\\[ \t]*$/) cmd = ""
    }
' docs/*.md doc.go .claude/skills/verify/SKILL.md scripts/*.sh) && [[ -n "$stray" ]]; then
    echo "docs: these name flags nothing defines:"
    echo "$stray" | sed 's/^/    /'
    fail=1
fi

# --- 10. one length rule ------------------------------------------------
# "<file> <call> <reason>"; each entry allows one call.
read_allowed=(
    "internal/dpp/dppnet/protocol.go binary.ReadUvarint a frame header's length, held to the frame limit before tensor.ReadInto reads the body"
    "internal/dpp/dppnet/server.go io.ReadFull the 5-byte connection preamble, a fixed size"
)
declare -A read_left
for entry in "${read_allowed[@]}"; do
    read -r file call _ <<<"$entry"
    read_left["$file $call"]=$(( ${read_left["$file $call"]:-0} + 1 ))
done
while IFS=: read -r file line text; do
    [[ "$text" =~ ^[[:space:]]*// ]] && continue
    for call in $(grep -oE '\b(binary\.ReadUvarint|io\.ReadFull)\(' <<<"$text" | tr -d '('); do
        if (( ${read_left["$file $call"]:-0} > 0 )); then
            read_left["$file $call"]=$(( ${read_left["$file $call"]} - 1 ))
        else
            echo "docs: $file:$line calls $call; read through tensor.Decoder or tensor.ReadInto, or list the call in docs-check.sh's read_allowed with its reason"
            fail=1
        fi
    done
done < <(grep -rnE --include='*.go' --exclude='*_test.go' --exclude-dir=.git --exclude-dir=.bench_build \
    '\b(binary\.ReadUvarint|io\.ReadFull)\(' . | sed 's|^\./||' | grep -v '^internal/tensor/' || true)
for key in "${!read_left[@]}"; do
    if (( read_left["$key"] > 0 )); then
        echo "docs: read_allowed lists ${read_left["$key"]} call(s) of $key that no call uses; delete the entry"
        fail=1
    fi
done

# --- 11. the DWRF trailer in the docs is the one the code writes ---------
trailer=$(sed -n 's/^[[:space:]]*trailerMagic[[:space:]]*=[[:space:]]*"\([A-Z0-9]*\)".*/\1/p' internal/dwrf/dwrf.go)
if [[ -z "$trailer" ]]; then
    echo "docs: found no trailerMagic in internal/dwrf/dwrf.go"
    fail=1
elif stale=$(grep -noE '(retired trailer )?[`"]DWR[0-9A-Z][`"](, not "DWR[0-9A-Z]")?' docs/*.md \
    | grep -vE ":(retired trailer [\`\"]DWR[0-9A-Z][\`\"]|\"DWR[0-9A-Z]\", not \"$trailer\"|[\`\"]$trailer[\`\"])\$"); then
    echo "docs: the code writes DWRF files with the trailer $trailer; these say otherwise:"
    echo "$stale" | sed 's/^/    /'
    fail=1
fi

if [[ "$fail" -ne 0 ]]; then
    echo "docs: FAIL"
    exit 1
fi
echo "docs: OK (package comments, go fences, links, import guard, determinism-table tests, protocol version, frame set, Spec fields, flag tables, named flags, one length rule, DWRF trailer)"
