#!/usr/bin/env bash
# Lint: the pass registry in src/pass/registry.cpp and DESIGN.md's
# "Pass architecture" pass table must agree, so neither can drift:
#   - every pass name in known_passes() has a table row, and every row
#     names a registered pass;
#   - each row's options column lists exactly the option keys the pass
#     takes (the keys default_pass_options() writes for it), in both
#     directions; a pass without options shows an em dash.
#
# Usage: scripts/check_pass_registry.sh
set -euo pipefail
cd "$(dirname "$0")/.."

REGISTRY=src/pass/registry.cpp
DESIGN=DESIGN.md
TABLE_HEADER='| pass | options | effect |'

# Pull the quoted names out of the known_passes() initializer: everything
# between `known_passes() {` and the closing `}` of its static vector.
names=$(awk '/known_passes\(\)/,/^}/' "${REGISTRY}" \
  | grep -o '"[a-z_-]*"' | tr -d '"' | sort)

if [ -z "${names}" ]; then
  echo "check_pass_registry: failed to extract pass names from ${REGISTRY}" >&2
  exit 1
fi

# "pass key" lines from default_pass_options(): a `pass == "x"` test opens
# a pass, each `out["key"]` under it is one of its option keys.
registry_keys=$(awk '
  /^Json default_pass_options\(/ { inside = 1; next }
  inside && /^}/ { exit }
  inside {
    if (match($0, /pass == "[a-z_]+"/)) {
      pass = substr($0, RSTART + 9, RLENGTH - 10)
    }
    if (match($0, /out\["[a-z_]+"\]/)) {
      print pass " " substr($0, RSTART + 5, RLENGTH - 7)
    }
  }' "${REGISTRY}" | sort)

if [ -z "${registry_keys}" ]; then
  echo "check_pass_registry: failed to extract option keys from" \
       "default_pass_options() in ${REGISTRY}" >&2
  exit 1
fi

# The table: the rows after its header, up to the first non-row line.
# Each row looks like `| \`placer\` | \`algorithm\` | effect |`.
rows=$(awk -v header="${TABLE_HEADER}" '
  $0 == header { inside = 1; next }
  inside && /^\|---/ { next }
  inside && !/^\|/ { exit }
  inside { print }' "${DESIGN}")

if [ -z "${rows}" ]; then
  echo "check_pass_registry: no pass table (header '${TABLE_HEADER}')" \
       "in ${DESIGN}" >&2
  exit 1
fi

table_names=$(echo "${rows}" | awk -F'|' '{ print $2 }' \
  | grep -o '`[a-z_-]*`' | tr -d '`' | sort)
table_keys=$(echo "${rows}" | awk -F'|' '{
  pass = $2; gsub(/[ `]/, "", pass)
  n = split($3, keys, ",")
  for (i = 1; i <= n; ++i) {
    key = keys[i]; gsub(/[ `]/, "", key)
    if (key != "" && key != "—") print pass " " key
  }
}' | sort)

status=0
report() {
  echo "check_pass_registry: $*" >&2
  status=1
}

while read -r name; do
  report "pass '${name}' is registered in ${REGISTRY} but missing from" \
         "the pass table in ${DESIGN}"
done < <(comm -23 <(echo "${names}") <(echo "${table_names}"))
while read -r name; do
  report "pass '${name}' is in the pass table in ${DESIGN} but not" \
         "registered in ${REGISTRY}"
done < <(comm -13 <(echo "${names}") <(echo "${table_names}"))
while read -r pass key; do
  report "pass '${pass}' takes option '${key}' (${REGISTRY}) but the pass" \
         "table in ${DESIGN} does not list it"
done < <(comm -23 <(echo "${registry_keys}") <(echo "${table_keys}"))
while read -r pass key; do
  report "the pass table in ${DESIGN} lists option '${key}' for pass" \
         "'${pass}', which ${REGISTRY} does not take"
done < <(comm -13 <(echo "${registry_keys}") <(echo "${table_keys}"))

if [ "${status}" -ne 0 ]; then
  exit 1
fi
echo "check_pass_registry: ${REGISTRY} and ${DESIGN} agree" \
     "($(echo "${names}" | wc -w) passes," \
     "$(echo "${registry_keys}" | wc -l) option keys)"
