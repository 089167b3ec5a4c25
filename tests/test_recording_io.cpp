// Recording serialization: round trips, corruption handling (a torn file
// salvages the longest valid prefix), retired format versions, and the
// analysis / DOT-export utilities.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "recorder/recording_analysis.hpp"
#include "recorder/recording_io.hpp"
#include "recorder/recording_validate.hpp"
#include "recorder/replayer.hpp"

namespace ht {
namespace {

Recording sample_recording() {
  Recording r;
  r.threads.resize(3);
  r.threads[0].events.push_back({5, LogEventType::kEdge, 1, 42});
  r.threads[0].events.push_back({9, LogEventType::kResponse, kNoThread, 1});
  r.threads[1].events.push_back({2, LogEventType::kEdge, 2, 7});
  r.threads[1].events.push_back({2, LogEventType::kEdge, 0, 3});
  // thread 2: empty log
  return r;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(RecordingIo, RoundTripsExactly) {
  const Recording orig = sample_recording();
  const std::string path = temp_path("ht_recording_roundtrip.bin");
  ASSERT_TRUE(save_recording(orig, path));

  const auto loaded = load_recording(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->threads.size(), orig.threads.size());
  for (std::size_t t = 0; t < orig.threads.size(); ++t) {
    EXPECT_EQ(loaded->threads[t].events, orig.threads[t].events) << t;
  }
  std::remove(path.c_str());
}

TEST(RecordingIo, EmptyRecordingRoundTrips) {
  Recording r;
  r.threads.resize(1);
  const std::string path = temp_path("ht_recording_empty.bin");
  ASSERT_TRUE(save_recording(r, path));
  const auto loaded = load_recording(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->threads.size(), 1u);
  EXPECT_TRUE(loaded->threads[0].events.empty());
  std::remove(path.c_str());
}

TEST(RecordingIo, RejectsMissingFile) {
  EXPECT_FALSE(load_recording("/nonexistent/dir/nothing.bin").has_value());
  EXPECT_EQ(load_recording_ex("/nonexistent/dir/nothing.bin").error,
            RecordingLoadError::kIo);
}

TEST(RecordingIo, RejectsBadMagic) {
  const std::string path = temp_path("ht_recording_badmagic.bin");
  std::ofstream(path, std::ios::binary) << "NOPE with some trailing bytes";
  EXPECT_FALSE(load_recording(path).has_value());
  EXPECT_EQ(load_recording_ex(path).error, RecordingLoadError::kBadMagic);
  std::remove(path.c_str());
}

TEST(RecordingIo, RejectsUnknownVersion) {
  const std::string path = temp_path("ht_recording_badversion.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("HTRC", 4);
    const std::uint32_t version = 7;
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
  }
  const RecordingLoadResult r = load_recording_ex(path);
  EXPECT_FALSE(r.recording.has_value());
  EXPECT_EQ(r.error, RecordingLoadError::kBadVersion);
  std::remove(path.c_str());
}

// Version 1 had no chunks and one FNV-1a checksum over everything after the
// magic. Its writer is gone, so the bytes are laid out here by hand: a
// complete, correctly checksummed two-thread file with one edge. It fails on
// its version, the message names that version, and `trace_analyze validate`
// exits 3 on it.
TEST(RecordingIo, V1FileFailsAsBadVersion) {
  std::string body;
  const auto put = [&body](auto v) {
    body.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(std::uint32_t{1});  // version
  put(std::uint32_t{2});  // threads
  put(std::uint64_t{1});  // thread 0: one event
  put(std::uint64_t{5});  //   point
  put(static_cast<std::uint8_t>(LogEventType::kEdge));
  put(std::uint32_t{1});  //   src
  put(std::uint64_t{3});  //   value
  put(std::uint64_t{0});  // thread 1: no events
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const char c : body) {
    fnv ^= static_cast<unsigned char>(c);
    fnv *= 0x100000001b3ULL;
  }
  put(fnv);
  const std::string path = temp_path("ht_recording_v1.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "HTRC" << body;
  }

  const FileCheckResult r = check_recording_file(path);
  EXPECT_FALSE(r.load.recording.has_value());
  EXPECT_EQ(r.load.error, RecordingLoadError::kBadVersion);
  EXPECT_EQ(r.load.version, 1u);
  EXPECT_NE(r.to_string().find("version 1"), std::string::npos)
      << r.to_string();
  EXPECT_EQ(r.exit_code(/*allow_partial=*/false), kExitBadVersion);
  EXPECT_EQ(r.exit_code(/*allow_partial=*/true), kExitBadVersion);
  std::remove(path.c_str());
}

TEST(RecordingIo, TruncatedTrailerSalvagesFullContent) {
  // Cutting into the trailer leaves every data chunk intact: the salvage is
  // content-complete but flagged partial (the file cannot prove it is whole).
  const Recording orig = sample_recording();
  const std::string path = temp_path("ht_recording_trunc.bin");
  ASSERT_TRUE(save_recording(orig, path));
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 9);

  const RecordingLoadResult r = load_recording_ex(path);
  EXPECT_FALSE(r.complete());
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.error, RecordingLoadError::kTruncated);
  ASSERT_TRUE(r.recording.has_value());
  ASSERT_EQ(r.recording->threads.size(), orig.threads.size());
  for (std::size_t t = 0; t < orig.threads.size(); ++t) {
    EXPECT_EQ(r.recording->threads[t].events, orig.threads[t].events) << t;
  }
  EXPECT_NE(r.to_string().find("partial"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RecordingIo, BitFlipSalvagesPrefixBeforeCorruption) {
  const std::string path = temp_path("ht_recording_flip.bin");
  ASSERT_TRUE(save_recording(sample_recording(), path));
  {
    // Offset 20 is the first byte after the v2 header: the first chunk's
    // thread id. Flipping it invalidates that chunk and everything after.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(20);
    char c;
    f.seekg(20);
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x40));
  }
  const RecordingLoadResult r = load_recording_ex(path);
  EXPECT_FALSE(r.complete());
  EXPECT_TRUE(r.partial);
  EXPECT_EQ(r.error, RecordingLoadError::kChecksum);
  ASSERT_TRUE(r.recording.has_value());
  EXPECT_EQ(r.chunks_loaded, 0u);
  for (const ThreadLog& log : r.recording->threads) {
    EXPECT_TRUE(log.events.empty());
  }
  std::remove(path.c_str());
}

TEST(RecordingIo, LoadedRecordingDrivesReplayer) {
  Recording r;
  r.threads.resize(2);
  r.threads[0].events.push_back({1, LogEventType::kEdge, 1, 1});
  const std::string path = temp_path("ht_recording_replay.bin");
  ASSERT_TRUE(save_recording(r, path));
  const auto loaded = load_recording(path);
  ASSERT_TRUE(loaded.has_value());

  Replayer rp(*loaded);
  rp.at_psro(1);   // source reaches 1
  rp.at_point(0);  // sink passes without blocking
  EXPECT_EQ(rp.blocking_waits(), 0u);
  std::remove(path.c_str());
}

// --- analysis ----------------------------------------------------------------

TEST(RecordingAnalysis, CountsStructure) {
  const RecordingAnalysis a = analyze_recording(sample_recording());
  EXPECT_EQ(a.threads, 3u);
  EXPECT_EQ(a.total_edges, 3u);
  EXPECT_EQ(a.total_responses, 1u);
  EXPECT_EQ(a.edges_out[0], 1u);
  EXPECT_EQ(a.edges_out[1], 2u);
  EXPECT_EQ(a.edges_in[0], 1u);  // thread 0 is source of one edge
  EXPECT_EQ(a.edges_in[1], 1u);
  EXPECT_EQ(a.edges_in[2], 1u);
  EXPECT_EQ(a.distinct_wait_points, 2u);  // (0,5) and (1,2)
  EXPECT_FALSE(a.fully_parallel());
  EXPECT_NE(a.summary().find("3 threads"), std::string::npos);
}

TEST(RecordingAnalysis, EmptyIsFullyParallel) {
  Recording r;
  r.threads.resize(2);
  const RecordingAnalysis a = analyze_recording(r);
  EXPECT_TRUE(a.fully_parallel());
  EXPECT_NE(a.summary().find("fully parallel"), std::string::npos);
}

TEST(RecordingDot, EmitsNodesAndEdges) {
  const std::string dot = recording_to_dot(sample_recording());
  EXPECT_NE(dot.find("digraph happens_before"), std::string::npos);
  EXPECT_NE(dot.find("\"T1@r42\" -> \"T0@p5\""), std::string::npos);
  EXPECT_NE(dot.find("\"T2@r7\" -> \"T1@p2\""), std::string::npos);
  EXPECT_EQ(dot.find("truncated"), std::string::npos);
}

TEST(RecordingDot, TruncatesLargeGraphs) {
  Recording r;
  r.threads.resize(2);
  for (int i = 0; i < 100; ++i) {
    r.threads[0].events.push_back(
        {static_cast<std::uint64_t>(i + 1), LogEventType::kEdge, 1, 1});
  }
  const std::string dot = recording_to_dot(r, /*max_edges=*/10);
  EXPECT_NE(dot.find("truncated at 10"), std::string::npos);
}

}  // namespace
}  // namespace ht
