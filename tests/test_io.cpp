// Round-trip and rejection tests for the plain-text instance format of
// core/io.h (complements the smaller smoke checks in test_core.cpp).

#include <gtest/gtest.h>

#include <sstream>

#include "common/check.h"
#include "core/generators.h"
#include "core/io.h"

namespace setsched {
namespace {

TEST(IoRoundTrip, UnrelatedGeneratedInstance) {
  UnrelatedGenParams params;
  params.num_jobs = 15;
  params.num_machines = 4;
  params.num_classes = 5;
  params.eligibility = 0.8;  // exercises the "inf" token path
  const Instance original = generate_unrelated(params, 23);

  std::stringstream stream;
  save_instance(stream, original);
  const Instance loaded = load_instance(stream);
  EXPECT_EQ(loaded, original);
}

TEST(IoRoundTrip, UniformGeneratedInstance) {
  UniformGenParams params;
  params.num_jobs = 12;
  params.num_machines = 5;
  params.num_classes = 3;
  params.profile = SpeedProfile::kGeometric;
  params.max_speed_ratio = 4.0;
  const UniformInstance original = generate_uniform(params, 23);

  std::stringstream stream;
  save_uniform(stream, original);
  const UniformInstance loaded = load_uniform(stream);
  EXPECT_EQ(loaded, original);
}

TEST(IoRoundTrip, RestrictedInstanceKeepsEligibility) {
  RestrictedGenParams params;
  params.num_jobs = 10;
  params.num_machines = 4;
  params.num_classes = 4;
  params.max_eligible = 2;  // plenty of inf entries
  const Instance original = generate_restricted_class_uniform(params, 7);

  std::stringstream stream;
  save_instance(stream, original);
  const Instance loaded = load_instance(stream);
  EXPECT_EQ(loaded, original);
  EXPECT_TRUE(is_restricted_class_uniform(loaded));
}

TEST(IoRejects, BadMagic) {
  std::stringstream stream("wrongmagic unrelated 1\n1 1 1\n0\n1\n1\n");
  EXPECT_THROW((void)load_instance(stream), CheckError);
}

TEST(IoRejects, KindMismatch) {
  const UniformInstance uniform{{1.0}, {0}, {1.0}, {1.0}};
  std::stringstream stream;
  save_uniform(stream, uniform);
  EXPECT_THROW((void)load_instance(stream), CheckError);
}

TEST(IoRejects, UnsupportedVersion) {
  std::stringstream stream("setsched unrelated 2\n1 1 1\n0\n1\n1\n");
  EXPECT_THROW((void)load_instance(stream), CheckError);
}

TEST(IoRejects, TruncatedStream) {
  Instance original(2, 1, {0});
  original.set_proc(0, 0, 1);
  original.set_proc(1, 0, 2);
  std::stringstream stream;
  save_instance(stream, original);
  const std::string text = stream.str();
  std::stringstream truncated(text.substr(0, text.size() - 4));
  EXPECT_THROW((void)load_instance(truncated), CheckError);
}

TEST(IoRejects, StructurallyInvalidInstance) {
  // Well-formed stream, but job 0's class id is out of range.
  std::stringstream stream("setsched unrelated 1\n1 1 1\n3\n1\n1\n");
  EXPECT_THROW((void)load_instance(stream), CheckError);
}

// Dimensions outside the 32-bit id range used to wrap the m x n matrix size
// to 0 (and crash in set_proc) or escape as std::length_error.
TEST(IoRejects, OversizedDimensions) {
  for (const char* dims :
       {"9223372036854775808 2 2", "-1 1 1", "1 -1 1", "1 1 -1",
        "4294967295 1 1", "1 4294967295 1", "1 1 4294967295"}) {
    std::stringstream stream(std::string("setsched unrelated 1\n") + dims +
                             "\n0 1\n1 1 1 1\n");
    EXPECT_THROW((void)load_instance(stream), CheckError) << dims;
  }
}

TEST(IoRejects, OversizedUniformDimensions) {
  for (const char* dims :
       {"9223372036854775808 2 2", "-1 1 1", "1 -1 1", "1 1 -1",
        "4294967295 1 1", "1 4294967295 1", "1 1 4294967295"}) {
    std::stringstream stream(std::string("setsched uniform 1\n") + dims +
                             "\n0 1\n1 1\n1 1\n1 1\n");
    EXPECT_THROW((void)load_uniform(stream), CheckError) << dims;
  }
}

}  // namespace
}  // namespace setsched
