// Small string helpers used by the parsers and report writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace qmap {

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Split on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Split on any run of ASCII whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view s);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] std::string to_lower(std::string_view s);

/// Join the elements of `parts` with `sep`.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Appends `value` exactly as printf's "%.{precision}g" writes it in the C
/// locale: std::to_chars in general format, which the standard defines
/// that way. The one writer behind every double the library writes as
/// text (QASM angles at 12 digits, JSON at 17), so no writer depends on
/// LC_NUMERIC, like the from_chars-based readers. `precision` is 1..17.
void append_double(std::string& out, double value, int precision = 12);

/// Appends the decimal digits of `value` (std::to_chars).
void append_int(std::string& out, long long value);

/// append_double into a new string.
[[nodiscard]] std::string format_double(double value, int precision = 12);

/// Escape `s` for inclusion inside a JSON string literal (no surrounding
/// quotes): '"', '\\', and the short escapes \b \f \n \r \t, with every
/// other control character < 0x20 as \u00XX. The single escaper shared by
/// the Json dumper and the hand-built exporters in obs/.
[[nodiscard]] std::string json_escape(std::string_view s);

/// json_escape(s) wrapped in double quotes — a complete JSON string token.
[[nodiscard]] std::string json_quote(std::string_view s);

}  // namespace qmap
