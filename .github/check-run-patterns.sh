#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern in a workflow
# file matches no test in the packages that step names: a stale name
# would otherwise turn its step into a silent no-op. Patterns are split
# on '|' only (no grouping), and '^$' (run no tests, as in a
# benchmark-only step) is skipped.
#
#   bash .github/check-run-patterns.sh [.github/workflows/ci.yml]
set -euo pipefail
workflow=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*-run +(['\"]?)([^'\" ]+)\1.*/\2/" <<<"$line")
	[ "$pattern" = '^$' ] && continue
	pkgs=$(grep -oE '\./[^ ]*' <<<"$line" | tr '\n' ' ')
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		# shellcheck disable=SC2086 # $pkgs is a word list
		listed=$(go test -list "$alt" $pkgs)
		if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
			echo "$workflow: -run alternative '$alt' matches no test in $pkgs"
			status=1
		fi
	done
done < <(grep -E 'go test .*-run ' "$workflow")
exit $status
