#include "src/util/status.h"

#include <cstdio>
#include <cstdlib>

namespace duet {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kExists:
      return "EXISTS";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNoSpace:
      return "NO_SPACE";
    case StatusCode::kBusy:
      return "BUSY";
    case StatusCode::kLimit:
      return "LIMIT";
    case StatusCode::kCorruption:
      return "CORRUPTION";
    case StatusCode::kPermission:
      return "PERMISSION";
    case StatusCode::kNotSupported:
      return "NOT_SUPPORTED";
    case StatusCode::kIoError:
      return "IO_ERROR";
  }
  return "UNKNOWN";
}

void DieOnValueOfError(const Status& status) {
  std::fprintf(stderr, "Result::value() on an error result: %s\n",
               status.ToString().c_str());
  std::abort();
}

bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kBusy;
}

}  // namespace duet
