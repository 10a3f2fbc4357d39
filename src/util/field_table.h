// Declarative field tables for config structs. A struct's table is one
// function visiting each member once, as a row naming its INI key, range
// rule, hash class, one-line doc and optional single-field CLI flag:
//
//   v(c.seed, {"seed", "faults.seed", kAny, kSchedule, "plan seed"});
//
// INI parsing, validation, hashing and CLI flags are visitors over the rows.
// Rows never restate defaults: an absent key or flag keeps the initializer.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace iosched::util {

enum class HashClass : std::uint8_t {
  kSchedule,  ///< Mixed: the value shapes the event schedule.
  kLayout,    ///< Mixed: the value shapes what a checkpoint holds.
  kExcluded,  ///< Not mixed; the row's doc says why.
};

/// A numeric range rule. Integers are read as signed 64-bit values, so a
/// negative number cast into an unsigned member breaks `kNonNegative`.
struct Range {
  bool (*holds)(double) = nullptr;  ///< nullptr: every value is in range.
  const char* message = "";
};

inline constexpr Range kAny{};
inline constexpr Range kPositive{[](double v) { return v > 0; },
                                 "must be positive"};
inline constexpr Range kNonNegative{[](double v) { return v >= 0; },
                                    "must be >= 0"};
inline constexpr Range kFraction{[](double v) { return v >= 0 && v < 1; },
                                 "must be in [0, 1)"};
inline constexpr Range kFactor{[](double v) { return v > 0 && v <= 1; },
                               "must be in (0, 1]"};
inline constexpr Range kProbability{
    [](double v) { return v >= 0 && v <= 1; }, "must be in [0, 1]"};

struct Field {
  const char* name;     ///< Member name within its struct.
  const char* ini_key;  ///< "section.key"; nullptr when none.
  Range range;
  HashClass hash;
  const char* doc;
  const char* flag = nullptr;  ///< Single-field CLI flag; nullptr: none.
};

/// What a row may add to its Field.
struct RowExtra {
  /// A rule a range cannot state (text values, sibling members): the
  /// problem, or "" when the value is valid.
  std::function<std::string()> rule = nullptr;
  /// The value the hash mixes in place of the member's own.
  std::optional<double> hash_as = std::nullopt;
};

/// Base of every visitor: the dotted path of the struct being visited, and
/// whether its rows enter the hash (a section may be hashed conditionally).
struct FieldVisitor {
  std::string prefix;
  bool hashed = true;

  void Section(std::string section_prefix, bool section_hashed = true) {
    prefix = std::move(section_prefix);
    hashed = section_hashed;
  }
  std::string Path(const Field& field) const { return prefix + field.name; }
};

/// `C` is `S` or `const S`: a table visits a struct for reading or writing.
template <class C, class S>
concept MaybeConst = std::is_same_v<std::remove_const_t<C>, S>;

/// Members with a text form: numbers, bools, enums, strings.
template <class T, class U = std::remove_const_t<T>>
inline constexpr bool kHasText = std::is_arithmetic_v<U> ||
                                 std::is_enum_v<U> ||
                                 std::is_same_v<U, std::string>;

/// Text form of a member (a bool prints as 1 or 0, which parses back);
/// enums print through their own ToString.
template <class T>
std::string FormatValue(const T& value) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];  // shortest text that parses back to exactly `value`
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_enum_v<T>) {
    return ToString(value);  // found by argument-dependent lookup
  } else {
    return value;
  }
}

/// Parse `text` into `value`; false when it is not a value of T. An enum
/// parses through a ParseValue overload next to it, which wins over this
/// template.
template <class T>
bool ParseValue(const std::string& text, T& value) {
  static_assert(!std::is_enum_v<T>, "declare ParseValue(text, T&) for T");
  auto assign = [&value](const auto& parsed) {
    if (parsed) value = static_cast<T>(*parsed);
    return parsed.has_value();
  };
  if constexpr (std::is_same_v<T, std::string>) {
    value = text;
    return true;
  } else if constexpr (std::is_same_v<T, bool>) {
    return assign(ParseBool(text));
  } else if constexpr (std::is_floating_point_v<T>) {
    return assign(ParseDouble(text));
  } else {
    return assign(ParseInt(text));
  }
}

/// The problem `value` has under its row, or "" when it is valid.
template <class T>
std::string RowIssue(const T& value, const Field& field,
                     const RowExtra& extra) {
  if constexpr (std::is_arithmetic_v<T>) {
    const double number =
        std::is_integral_v<T>
            ? static_cast<double>(static_cast<long long>(value))
            : static_cast<double>(value);
    if (field.range.holds != nullptr && !field.range.holds(number)) {
      return field.range.message;
    }
  }
  return extra.rule ? extra.rule() : "";
}

/// Collects the problem of every row it visits, as (path, problem).
struct IssueVisitor : FieldVisitor {
  std::vector<std::pair<std::string, std::string>> issues;

  template <class T>
  void operator()(const T& value, const Field& field,
                  const RowExtra& extra = {}) {
    std::string issue = RowIssue(value, field, extra);
    if (!issue.empty()) issues.emplace_back(Path(field), std::move(issue));
  }
};

/// "<member> <problem>" for the first row of `config`'s table it breaks,
/// or "" (the table is found by argument-dependent lookup).
template <class C>
std::string FirstIssue(const C& config) {
  IssueVisitor visitor;
  VisitFields(config, visitor);
  if (visitor.issues.empty()) return "";
  return visitor.issues[0].first + " " + visitor.issues[0].second;
}

}  // namespace iosched::util
