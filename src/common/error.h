// Library error type. All precondition violations and I/O failures raise
// kcc::Error; internal invariants use assertions.
//
// `require` is the library's always-on check. It costs one predictable
// branch when the condition holds: the message is only built on failure.
// Literal messages use the `const char*` form; composed messages pass a
// callable that returns the text, e.g.
//   require(ok, [&] { return "bad line " + std::to_string(n); });
#pragma once

#include <concepts>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace kcc {

/// Exception thrown on invalid arguments, malformed input files, and
/// violated API preconditions.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Throws kcc::Error(message). The one place a failed check builds its
/// Error; kept out of line so a passing check inlines to a test and branch.
[[noreturn, gnu::cold]] void throw_error(std::string_view message);

}  // namespace detail

/// Throws kcc::Error with `message` when `condition` is false.
inline void require(bool condition, const char* message) {
  if (!condition) [[unlikely]] detail::throw_error(message);
}

/// Throws kcc::Error with the text `make_message()` returns when `condition`
/// is false. `make_message` is not called when the check passes.
template <class F>
  requires std::invocable<F&> &&
           std::convertible_to<std::invoke_result_t<F&>, std::string>
inline void require(bool condition, F&& make_message) {
  if (!condition) [[unlikely]] {
    const std::string message = make_message();
    detail::throw_error(message);
  }
}

/// Kept for callers outside the library: the message is built before the
/// condition is tested, so every passing check still pays for it.
[[deprecated("build the message only on failure: pass a literal or a lambda")]]
inline void require(bool condition, const std::string& message) {
  if (!condition) [[unlikely]] detail::throw_error(message);
}

}  // namespace kcc
