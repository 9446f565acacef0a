// Tests for the empirical flow-size subsystem: strict CDF parsing with
// line-numbered errors, inverse-transform edge cases (p = 0/1, plateaus of
// duplicate probabilities, single-point CDFs), the analytic-vs-sampled
// mean contract for the bundled websearch/datamining files, and the cache
// identity contract — content digest, not path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "exp/cache.hpp"
#include "exp/scenario.hpp"
#include "sim/random.hpp"
#include "traffic/empirical_cdf.hpp"

namespace xdrs::traffic {
namespace {

using namespace xdrs::sim::literals;

/// The bundled CDFs live under the source tree's `examples/`, wherever the
/// build directory is; CMake passes the source directory in.
std::string bundled(const std::string& rel) { return std::string{XDRS_SOURCE_DIR} + "/" + rel; }

// ---- parsing ---------------------------------------------------------------

TEST(EmpiricalCdfParse, AcceptsHeaderCommentsAndCrlf) {
  const EmpiricalCdf cdf = EmpiricalCdf::parse(
      "# websearch-ish\n"
      "bytes,cdf\n"
      "100,0.25\r\n"
      "\n"
      "200,0.5\n"
      "300,1.0\n");
  ASSERT_EQ(cdf.points().size(), 3u);
  EXPECT_EQ(cdf.min_bytes(), 100);
  EXPECT_EQ(cdf.max_bytes(), 300);
  // Atom 0.25 @ 100, mass 0.25 on (100,200] mid 150, mass 0.5 on (200,300]
  // mid 250: 25 + 37.5 + 125.
  EXPECT_DOUBLE_EQ(cdf.mean_bytes(), 187.5);
}

TEST(EmpiricalCdfParse, RejectsEveryMalformedShape) {
  const auto reject = [](const char* csv, const char* why) {
    EXPECT_THROW((void)EmpiricalCdf::parse(csv), std::invalid_argument) << why;
  };
  reject("", "empty file");
  reject("# only comments\n", "no points");
  reject("100\n", "too few fields");
  reject("100,0.5,7\n", "too many fields");
  reject("10x,0.5\n100,1\n", "trailing garbage on bytes");
  reject("0,0.5\n100,1\n", "zero bytes");
  reject("-5,0.5\n100,1\n", "negative bytes");
  reject("100,0.5x\n200,1\n", "trailing garbage on cdf");
  reject("100,-0.1\n200,1\n", "cdf below 0");
  reject("100,1.5\n", "cdf above 1");
  reject("100,inf\n", "non-finite cdf");
  reject("100,0.5\n100,1\n", "bytes must strictly increase");
  reject("100,0.5\n50,1\n", "bytes decreased");
  reject("100,0.6\n200,0.5\n300,1\n", "cdf decreased");
  reject("100,0.5\n200,0.9\n", "final cdf short of 1");
  reject("100,1\n200,1\n300,0.9\n", "cdf decreased after reaching 1");
}

TEST(EmpiricalCdfParse, ErrorsNameTheOffendingLine) {
  try {
    (void)EmpiricalCdf::parse("bytes,cdf\n100,0.5\n50,1.0\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos) << e.what();
  }
  try {
    (void)EmpiricalCdf::parse("100,0.5\n200,bad\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos) << e.what();
  }
}

TEST(EmpiricalCdfLoad, MissingFileThrowsNamingThePath) {
  try {
    (void)EmpiricalCdf::load("/no/such/cdf.csv");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("/no/such/cdf.csv"), std::string::npos);
  }
}

// ---- inversion -------------------------------------------------------------

TEST(EmpiricalCdfQuantile, EdgeProbabilitiesAndInterpolation) {
  const EmpiricalCdf cdf = EmpiricalCdf::parse("100,0.25\n200,0.5\n300,1.0\n");
  EXPECT_EQ(cdf.quantile(0.0), 100);    // p = 0: the minimum size
  EXPECT_EQ(cdf.quantile(0.25), 100);   // inside the atom
  EXPECT_EQ(cdf.quantile(0.375), 150);  // halfway up the first segment
  EXPECT_EQ(cdf.quantile(0.5), 200);
  EXPECT_EQ(cdf.quantile(0.75), 250);
  EXPECT_EQ(cdf.quantile(1.0), 300);  // p = 1: the maximum size
  // Out-of-range probabilities clamp instead of reading off the ends.
  EXPECT_EQ(cdf.quantile(-0.5), 100);
  EXPECT_EQ(cdf.quantile(2.0), 300);
}

TEST(EmpiricalCdfQuantile, SinglePointCdfIsAnAtom) {
  const EmpiricalCdf cdf = EmpiricalCdf::parse("1000,1\n");
  EXPECT_EQ(cdf.quantile(0.0), 1000);
  EXPECT_EQ(cdf.quantile(0.5), 1000);
  EXPECT_EQ(cdf.quantile(1.0), 1000);
  EXPECT_DOUBLE_EQ(cdf.mean_bytes(), 1000.0);
}

TEST(EmpiricalCdfQuantile, DuplicateProbabilityPlateauCarriesNoMass) {
  // P(X <= 100) = P(X <= 200) = 0.5: nothing lands strictly inside
  // (100, 200], and the upper half interpolates (200, 400].
  const EmpiricalCdf cdf = EmpiricalCdf::parse("100,0.5\n200,0.5\n400,1.0\n");
  EXPECT_EQ(cdf.quantile(0.5), 100);
  EXPECT_EQ(cdf.quantile(0.75), 300);
  EXPECT_EQ(cdf.quantile(1.0), 400);
  sim::Rng rng{42};
  for (int i = 0; i < 10'000; ++i) {
    // Nothing strictly inside the (100, 200) plateau; a draw just past the
    // plateau's probability can round down to the 200 boundary itself.
    const std::int64_t s = cdf.quantile(rng.next_double());
    EXPECT_TRUE(s <= 100 || s >= 200) << s;
  }
  // Mean: atom 0.5 @ 100 + mass 0.5 mid 300.
  EXPECT_DOUBLE_EQ(cdf.mean_bytes(), 200.0);
}

// ---- the bundled literature CDFs -------------------------------------------

class BundledCdfTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BundledCdfTest, SampledMeanMatchesTheAnalyticMeanWithinTwoPercent) {
  const std::string path = bundled(GetParam());
  ASSERT_TRUE(std::filesystem::exists(path)) << "bundled CDF not found: " << GetParam();
  EmpiricalSize size{load_cdf_cached(path)};
  ASSERT_GT(size.mean_bytes(), 0.0);

  sim::Rng rng{7};
  double sum = 0.0;
  constexpr int kSamples = 1'000'000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(size.sample(rng));
  }
  const double sampled = sum / kSamples;
  EXPECT_NEAR(sampled / size.mean_bytes(), 1.0, 0.02)
      << "analytic " << size.mean_bytes() << " vs sampled " << sampled;
}

INSTANTIATE_TEST_SUITE_P(Bundled, BundledCdfTest,
                         ::testing::Values("examples/cdf_websearch.csv",
                                           "examples/cdf_datamining.csv"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return info.index == 0 ? "websearch" : "datamining";
                         });

TEST(BundledCdfs, HaveTheDocumentedShapes) {
  const EmpiricalCdf web = EmpiricalCdf::load(bundled(exp::kWebsearchCdfPath));
  const EmpiricalCdf mine = EmpiricalCdf::load(bundled(exp::kDataminingCdfPath));
  // Websearch: medium-heavy tail, flows up to 20 MB; datamining: the VL2
  // mix where half the flows are <= ~3 KB but the tail reaches 1 GB.
  EXPECT_EQ(web.max_bytes(), 20'000'000);
  EXPECT_EQ(mine.max_bytes(), 1'000'000'000);
  EXPECT_LE(mine.quantile(0.5), 4'000);
  EXPECT_GT(mine.mean_bytes(), 10.0 * web.mean_bytes());
}

// ---- content-digest cache identity -----------------------------------------

class EmpiricalWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("xdrs_cdf_" + std::to_string(::getpid()) + "_" +
              std::string{::testing::UnitTest::GetInstance()->current_test_info()->name()} +
              ".csv"))
                .string();
    std::ofstream out{path_, std::ios::trunc};
    out << "bytes,cdf\n1000,0.2\n20000,0.7\n500000,1.0\n";
  }
  void TearDown() override { std::filesystem::remove(path_); }

  [[nodiscard]] exp::ScenarioSpec spec(std::uint32_t ports, double load,
                                       std::uint64_t seed) const {
    exp::ScenarioSpec s =
        exp::make_scenario("websearch", ports, load, seed).with_window(1_ms, 200_us);
    s.workloads.front().cdf_path = path_;
    return s;
  }

  std::string path_;
};

TEST_F(EmpiricalWorkloadTest, CachedLoadServesOneParseAndTracksFileEdits) {
  const std::shared_ptr<const EmpiricalCdf> first = load_cdf_cached(path_);
  const std::shared_ptr<const EmpiricalCdf> again = load_cdf_cached(path_);
  EXPECT_EQ(first.get(), again.get());  // one parse, shared by every probe
  const std::string digest_before = cdf_digest_hex(path_);
  EXPECT_EQ(cdf_digest_hex(path_), digest_before);
  EXPECT_EQ(cdf_digest_hex("/no/such/cdf.csv"), "unreadable");

  {
    std::ofstream out{path_, std::ios::app};
    out << "# appended comment\n";
  }
  const std::shared_ptr<const EmpiricalCdf> edited = load_cdf_cached(path_);
  EXPECT_NE(first.get(), edited.get());
  EXPECT_NE(cdf_digest_hex(path_), digest_before);
}

TEST_F(EmpiricalWorkloadTest, ScenarioRunsDeterministicallyAndSeedSensitively) {
  const core::RunReport a = exp::run_scenario(spec(4, 0.5, 7));
  const core::RunReport b = exp::run_scenario(spec(4, 0.5, 7));
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_GT(a.offered_bytes, 0);

  const core::RunReport c = exp::run_scenario(spec(4, 0.5, 8));
  EXPECT_NE(a.to_json(), c.to_json());
}

TEST_F(EmpiricalWorkloadTest, SpecHashTracksCdfContentNotPath) {
  const exp::ScenarioSpec s = spec(4, 0.5, 7);
  const std::uint64_t hash_before = exp::spec_hash(s);
  EXPECT_NE(s.identity_json().find("\"cdf_digest\""), std::string::npos);

  // Editing the file's bytes (even a comment) must change the identity;
  // the load axis and the other scenarios' CDFs are untouched.
  {
    std::ofstream out{path_, std::ios::app};
    out << "# re-measured\n";
  }
  EXPECT_NE(exp::spec_hash(s), hash_before);
}

}  // namespace
}  // namespace xdrs::traffic
