// Recording validation checks.
#include "recorder/recording_validate.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace ht {
namespace {

TEST(RecordingValidate, AcceptsWellFormedRecording) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({1, LogEventType::kEdge, 1, 5});
  r.threads[0].events.push_back({3, LogEventType::kResponse, kNoThread, 1});
  r.threads[1].events.push_back({2, LogEventType::kEdge, 0, 1});
  const ValidationResult v = validate_recording(r);
  EXPECT_TRUE(v.ok()) << v.to_string();
  EXPECT_EQ(v.to_string(), "recording OK");
}

TEST(RecordingValidate, RejectsEmptyRecording) {
  const ValidationResult v = validate_recording(Recording{});
  EXPECT_FALSE(v.ok());
  EXPECT_NE(v.to_string().find("no threads"), std::string::npos);
}

TEST(RecordingValidate, FlagsOutOfRangeSource) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({1, LogEventType::kEdge, 7, 5});
  const ValidationResult v = validate_recording(r);
  ASSERT_EQ(v.issues.size(), 1u);
  EXPECT_NE(v.issues[0].message.find("out of range"), std::string::npos);
}

TEST(RecordingValidate, FlagsSelfEdge) {
  Recording r;
  r.threads.resize(2);
  r.threads[1].events.push_back({1, LogEventType::kEdge, 1, 5});
  const ValidationResult v = validate_recording(r);
  ASSERT_EQ(v.issues.size(), 1u);
  EXPECT_EQ(v.issues[0].thread, 1u);
  EXPECT_NE(v.issues[0].message.find("self-edge"), std::string::npos);
}

TEST(RecordingValidate, FlagsDecreasingPoints) {
  Recording r;
  r.threads.resize(1);
  r.threads[0].events.push_back({5, LogEventType::kResponse, kNoThread, 1});
  r.threads[0].events.push_back({3, LogEventType::kResponse, kNoThread, 2});
  const ValidationResult v = validate_recording(r);
  ASSERT_EQ(v.issues.size(), 1u);
  EXPECT_EQ(v.issues[0].event, 1u);
  EXPECT_NE(v.issues[0].message.find("decreases"), std::string::npos);
}

// The recorder stamps every bump with the post-bump counter, which is at
// least 1, so a zero stamp is malformed input: validation names it, and
// `trace_analyze validate` exits 7 on a file that carries one.
TEST(RecordingValidate, RejectsZeroStampedBump) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({1, LogEventType::kResponse, kNoThread, 0});
  r.threads[1].events.push_back({2, LogEventType::kEdge, 0, 1});
  const ValidationResult v = validate_recording(r);
  ASSERT_EQ(v.issues.size(), 1u);
  EXPECT_EQ(v.issues[0].thread, 0u);
  EXPECT_EQ(v.issues[0].event, 0u);
  EXPECT_NE(v.issues[0].message.find("stamped 0"), std::string::npos);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ht_zero_stamp.bin").string();
  ASSERT_TRUE(save_recording(r, path));
  const FileCheckResult f = check_recording_file(path);
  EXPECT_TRUE(f.load.complete());
  EXPECT_EQ(f.exit_code(/*allow_partial=*/false), kExitStructure);
  std::remove(path.c_str());
}

TEST(RecordingValidate, CollectsMultipleIssues) {
  Recording r;
  r.threads.resize(1);
  r.threads[0].events.push_back({5, LogEventType::kEdge, 0, 1});  // self-edge
  r.threads[0].events.push_back({2, LogEventType::kEdge, 9, 1});  // decreasing + range
  const ValidationResult v = validate_recording(r);
  EXPECT_EQ(v.issues.size(), 3u);
  EXPECT_NE(v.to_string().find("3 issue(s)"), std::string::npos);
}

}  // namespace
}  // namespace ht
