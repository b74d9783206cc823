#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace argus::obs {
namespace {

TEST(TracerTest, SpansNestPerNode) {
  Tracer t;
  t.begin(1.0, 7, "outer", "phase", 100);
  t.begin(1.5, 7, "inner", "compute");
  t.end(2.0, 7);
  t.end(3.0, 7, 0, 2);
  EXPECT_TRUE(t.well_formed());
  EXPECT_EQ(t.open_spans(), 0u);

  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  // spans() reports in begin order.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_DOUBLE_EQ(spans[0].ts, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].dur, 2.0);
  EXPECT_EQ(spans[0].a, 100u);
  EXPECT_EQ(spans[0].b, 2u);  // end's b overrides
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_DOUBLE_EQ(spans[1].dur, 0.5);
}

TEST(TracerTest, NodesInterleaveIndependently) {
  Tracer t;
  t.begin(0.0, 1, "a", "phase");
  t.begin(0.5, 2, "b", "phase");
  t.end(1.0, 1);
  t.end(2.0, 2);
  EXPECT_TRUE(t.well_formed());
  const auto spans = t.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].node, 1u);
  EXPECT_EQ(spans[1].node, 2u);
}

TEST(TracerTest, OrphanEndBreaksWellFormedness) {
  Tracer t;
  t.end(1.0, 3);
  EXPECT_FALSE(t.well_formed());
}

TEST(TracerTest, UnclosedSpanBreaksWellFormedness) {
  Tracer t;
  t.begin(1.0, 3, "open", "phase");
  EXPECT_EQ(t.open_spans(), 1u);
  EXPECT_FALSE(t.well_formed());
  t.end(2.0, 3);
  EXPECT_TRUE(t.well_formed());
}

TEST(TracerTest, NegativeDurationBreaksWellFormedness) {
  Tracer t;
  t.begin(5.0, 1, "x", "phase");
  t.end(4.0, 1);
  EXPECT_FALSE(t.well_formed());
}

TEST(TracerTest, ClearResets) {
  Tracer t;
  t.begin(1.0, 1, "x", "phase");
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.open_spans(), 0u);
  EXPECT_TRUE(t.well_formed());
}

TEST(TraceIoTest, JsonlRoundTripsEveryField) {
  Tracer t;
  t.instant(0.125, 4, "node", "meta", 3, 2, "kiosk");
  t.begin(1.0, 4, "handle.QUE2", "phase", 321);
  t.instant(1.5, 4, "tx.RES2", "net", 256, 3);
  t.end(2.25, 4, 0, 3);
  t.instant(3.0, 1, "weird \"name\"\n\t\\", "net", 0, 0, "id with \"quotes\"");
  // Full-range ids and args: u64s above 2^53 must not pass through a double.
  t.instant(0.1, UINT32_MAX, "tx.RES2", "net", UINT64_MAX,
            (std::uint64_t{1} << 53) + 1);

  std::ostringstream os;
  write_jsonl(t, os);

  Tracer back;
  std::istringstream is(os.str());
  ASSERT_TRUE(read_jsonl(is, back));
  EXPECT_EQ(back.events(), t.events());
  EXPECT_TRUE(back.well_formed());

  // Re-serialising the loaded trace is byte-identical.
  std::ostringstream os2;
  write_jsonl(back, os2);
  EXPECT_EQ(os2.str(), os.str());
}

TEST(TraceIoTest, ReadRejectsMalformedLine) {
  for (const char* line : {
           R"({"k":"B","ts":not-a-number})",
           R"({"ts":1,"n":0})",  // missing k
           R"({"k":"X","ts":1})",  // unknown kind
           R"({"k":"i","ts":1,"extra":0})",  // unknown key
           R"({"k":"i","ts":"1"})",  // ts not a number
           R"({"k":"i","n":4294967296})",  // node above u32
           R"({"k":"i","a":-1})",  // negative arg
           R"({"k":"i","b":1.5})",  // fractional arg
           R"({"k":"i","name":7})",  // name not a string
           R"({"k":"i"} trailing)",  // bytes after the object
           R"(["k","i"])",  // not an object
       }) {
    Tracer back;
    std::istringstream is(std::string(line) + "\n");
    EXPECT_FALSE(read_jsonl(is, back)) << line;
  }
}

TEST(TraceIoTest, ChromeExportShape) {
  Tracer t;
  t.instant(0.0, 2, "node", "meta", 2, 1, "printer");
  t.begin(1.0, 2, "handle.QUE1", "phase");
  t.end(2.5, 2);

  std::ostringstream os;
  write_chrome_json(t, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Node meta instants become thread names for the Perfetto track list.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("printer"), std::string::npos);
  // Timestamps are exported in microseconds: begin at 1.0ms -> 1000us.
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
}

}  // namespace
}  // namespace argus::obs
