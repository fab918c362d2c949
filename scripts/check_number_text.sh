#!/usr/bin/env bash
# Lint: every floating-point number the library writes as text goes
# through append_double() in src/common/strings.cpp (std::to_chars, the
# same bytes as printf's %g in the C locale, whatever LC_NUMERIC says).
# A %g/%G/%e/%E conversion in a printf-family call anywhere else in src/
# would bring back a second, locale-dependent writer, so it fails here.
# Fixed-point %f report lines are not number text the parsers read back,
# and are allowed.
#
# Usage: scripts/check_number_text.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWED=src/common/strings.cpp

# For each file: find each printf-family call (the call text runs to the
# first `);`), drop `%%` escapes, and report the call's line when one of
# its string literals holds a %[flags][width][.precision][length]g/e
# conversion.
hits=$(find src -name '*.cpp' -o -name '*.hpp' | sort | while read -r file; do
  [ "${file}" = "${ALLOWED}" ] && continue
  perl -0777 -ne '
    my $file = $ARGV;
    while (/\b((?:std::)?v?(?:f|s|sn|d|as)?printf\s*\((.*?)\)\s*;)/gs) {
      my ($call, $start) = ($1, $-[1]);
      my $bad = 0;
      while ($call =~ /"((?:[^"\\]|\\.)*)"/g) {
        (my $literal = $1) =~ s/%%//g;
        $bad = 1 if $literal =~
            /%[-+ #0]*(?:\d+|\*)?(?:\.(?:\d+|\*))?(?:hh|h|ll|l|L|j|z|t)?[gGeE]/;
      }
      if ($bad) {
        my $line = 1 + (substr($_, 0, $start) =~ tr/\n//);
        print "$file:$line\n";
      }
    }' "${file}"
done)

if [ -n "${hits}" ]; then
  echo "check_number_text: %g/%e conversion in a printf-family call" \
       "outside ${ALLOWED};" >&2
  echo "write the number with append_double() or format_double():" >&2
  echo "${hits}" >&2
  exit 1
fi
echo "check_number_text: OK"
