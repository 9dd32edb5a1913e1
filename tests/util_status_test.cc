#include "src/util/status.h"

#include <gtest/gtest.h>

#include <string>

namespace duet {
namespace {

// Accessing the value of an error result is a bug in the caller; it must
// stop the program with the status in every build type, not read an empty
// optional.
TEST(ResultDeathTest, ValueOfErrorResultAborts) {
  Result<int> r(StatusCode::kNotFound);
  EXPECT_DEATH((void)r.value(), "error result: NOT_FOUND");
  const Result<int>& cr = r;
  EXPECT_DEATH((void)cr.value(), "error result: NOT_FOUND");
}

TEST(ResultDeathTest, DereferenceOfErrorResultAborts) {
  Result<std::string> r(Status(StatusCode::kCorruption, "bad crc"));
  EXPECT_DEATH((void)*r, "error result: CORRUPTION: bad crc");
  EXPECT_DEATH((void)r->size(), "error result: CORRUPTION: bad crc");
}

}  // namespace
}  // namespace duet
