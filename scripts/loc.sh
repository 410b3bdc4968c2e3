#!/bin/sh
# loc.sh: the code-size measure behind `make loc`. Prints, per package of
# the main module (`go list ./...`, so the separate perfbench module is not
# counted), the number of non-blank, non-comment lines in its non-test Go
# files, then the total. Lines holding only a // comment or lying inside a
# /* ... */ block comment are not counted; a code line with a trailing
# comment is.
set -eu

cd "$(dirname "$0")/.."

go list -f '{{$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$d}}/{{.}}{{end}}{{range .CgoFiles}} {{$d}}/{{.}}{{end}}' ./... |
    while read -r pkg files; do
        n=0
        if [ -n "$files" ]; then
            # shellcheck disable=SC2086 # word-splitting the file list is intended
            n=$(awk '
                inblock { if (index($0, "*/")) inblock = 0; next }
                /^[ \t]*$/ { next }
                /^[ \t]*\/\// { next }
                /^[ \t]*\/\*/ { if (!index($0, "*/")) inblock = 1; next }
                { n++ }
                END { print n + 0 }
            ' $files)
        fi
        printf '%7d  %s\n' "$n" "$pkg"
    done |
    awk '{ print; total += $1 } END { printf "%7d  total\n", total }'
