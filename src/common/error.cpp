#include "common/error.h"

namespace kcc::detail {

void throw_error(std::string_view message) {
  throw Error(std::string(message));
}

}  // namespace kcc::detail
