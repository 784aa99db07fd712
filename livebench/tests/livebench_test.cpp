// Self-tests of the benchmark's own rules: the output checks (each with a
// negative control that corrupts one byte or one image dimension), the
// p99 rule, absent-series handling, and the seeded request sequence.
#include <gtest/gtest.h>

#include <map>

#include "checks.hpp"
#include "compress/swz.hpp"
#include "site.hpp"
#include "stats.hpp"
#include "util/strings.hpp"

namespace lb {
namespace {

using sww::util::Bytes;

const Site& TestSite() {
  static const Site site = BuildSite();
  return site;
}

WireResponse Page(const std::string& html, bool coded) {
  WireResponse response;
  response.status = 200;
  response.mode = "generative";
  response.body = sww::util::ToBytes(html);
  if (coded) {
    response.body = sww::compress::SwzCompress(response.body);
    response.content_encoding = "swz";
  }
  return response;
}

Bytes Ppm(int width, int height) {
  std::string ppm = "P6\n" + std::to_string(width) + " " +
                    std::to_string(height) + "\n255\n";
  ppm.append(static_cast<std::size_t>(width) * height * 3, '\x7f');
  return sww::util::ToBytes(ppm);
}

TEST(Checks, PromptPageMatchesAndOneCorruptByteFails) {
  const SitePage& page = TestSite().pages[0];
  for (bool coded : {false, true}) {
    Bytes entity;
    WireResponse response = Page(page.html, coded);
    EXPECT_EQ(CheckPromptPage(response, page.html, &entity), "");
    EXPECT_EQ(sww::util::ToString(entity), page.html);
    response.body[response.body.size() / 2] ^= 0x01;
    EXPECT_NE(CheckPromptPage(response, page.html, &entity), "")
        << (coded ? "coded" : "plain");
  }
}

TEST(Checks, CodedBodyMustBeSmallerThanItsEntity) {
  // A tiny entity that swz cannot shrink, labelled as coded anyway.
  WireResponse response = Page("<p>x</p>", true);
  Bytes entity;
  EXPECT_NE(CheckPromptPage(response, "<p>x</p>", &entity), "");
}

TEST(Checks, AssetAndArticle) {
  const Site& site = TestSite();
  const auto& [path, stored] = *site.assets.begin();
  WireResponse asset;
  asset.status = 200;
  asset.body = stored;
  EXPECT_EQ(CheckAsset(asset, stored), "") << path;
  asset.body[0] ^= 0x80;
  EXPECT_NE(CheckAsset(asset, stored), "");

  WireResponse probe = Page(site.article_html, true);
  EXPECT_EQ(CheckArticle(probe, site.article_html), "");
  probe.body.back() ^= 0x01;
  EXPECT_NE(CheckArticle(probe, site.article_html), "");
  // The probe accepts swz and the article is long enough to be coded, so
  // an uncoded answer means the server stopped coding.
  EXPECT_NE(CheckArticle(Page(site.article_html, false), site.article_html), "");
}

TEST(Checks, LegacyImageDimensions) {
  WireResponse image;
  image.status = 200;
  image.body = Ppm(256, 192);
  EXPECT_EQ(CheckLegacyImage(image, {256, 192}), "");
  // Negative control: one dimension corrupted in the header.
  image.body[3] = '3';  // "256" -> "356"
  EXPECT_NE(CheckLegacyImage(image, {256, 192}), "");
  image.body = Ppm(256, 191);
  EXPECT_NE(CheckLegacyImage(image, {256, 192}), "");
}

TEST(Checks, LegacyPageKeepsNoGeneratedDivision) {
  const SitePage& page = TestSite().pages[1];  // the goldfish page
  WireResponse response;
  response.status = 200;
  response.mode = "traditional";
  response.body = sww::util::ToBytes(page.html);  // never materialized
  std::vector<std::string> generated, unique;
  EXPECT_NE(CheckLegacyPage(response, page, &generated, &unique), "");
  response.body = sww::util::ToBytes(
      "<html><body><div class=\"media content\"><img src=\"/generated/a.ppm\" "
      "width=\"512\" height=\"512\"/></div></body></html>");
  EXPECT_EQ(CheckLegacyPage(response, page, &generated, &unique), "");
  ASSERT_EQ(generated.size(), 1u);
}

TEST(Checks, RenderAccountsForEveryItem) {
  const Site& site = TestSite();
  const SitePage* landscape = nullptr;
  for (const SitePage& page : site.pages) {
    if (page.path == "/landscape") landscape = &page;
  }
  ASSERT_NE(landscape, nullptr);
  EXPECT_EQ(landscape->digest_items, 49);
  EXPECT_EQ(CheckRender(*landscape, 47, 2, landscape->image_dims), "");
  EXPECT_NE(CheckRender(*landscape, 47, 1, landscape->image_dims), "");
  auto dims = landscape->image_dims;
  dims[5].second += 1;  // one image dimension corrupted
  EXPECT_NE(CheckRender(*landscape, 47, 2, dims), "");
}

TEST(Stats, P99OnlyWithEnoughSamples) {
  std::vector<double> samples(kMinSamplesForP99 - 1, 1.0);
  LatencySummary summary = Summarize(samples);
  EXPECT_EQ(summary.count, kMinSamplesForP99 - 1);
  EXPECT_TRUE(summary.p50.has_value());
  EXPECT_FALSE(summary.p99.has_value());
  samples.push_back(100.0);
  summary = Summarize(samples);
  ASSERT_TRUE(summary.p99.has_value());
  EXPECT_EQ(*summary.p99, 1.0);  // nearest rank 990 of 1000
  EXPECT_FALSE(Summarize({}).p50.has_value());
}

TEST(Stats, NearestRankQuantile) {
  std::vector<double> values = {5, 1, 4, 2, 3};
  EXPECT_EQ(*Quantile(values, 0.5), 3);
  EXPECT_EQ(*Quantile(values, 1.0), 5);
  EXPECT_EQ(*Quantile(values, 0.0), 1);
}

TEST(Stats, MissingSeriesIsAbsentNotZero) {
  sww::tools::MetricsSample scrape;
  scrape.counters["sww_server_requests"] = 42;
  scrape.gauges["sww_gauge"] = 2.5;
  EXPECT_EQ(Series(scrape, "sww_server_requests"), 42.0);
  EXPECT_EQ(Series(scrape, "sww_gauge"), 2.5);
  EXPECT_FALSE(Series(scrape, "sww_net_reactor_settings_timeouts").has_value());
  const sww::tools::MetricsSample empty;
  EXPECT_FALSE(SeriesDelta(empty, scrape, "sww_server_requests").has_value());
  EXPECT_FALSE(Ratio(std::nullopt, 3.0).has_value());
  EXPECT_FALSE(Ratio(1.0, 0.0).has_value());

  MetricSet metrics;
  metrics.Set("net.dropped_connections",
              SeriesDelta(scrape, scrape, "sww_net_reactor_idle_timeouts"),
              "count");
  EXPECT_EQ(metrics.RenderLines("metric "),
            "metric net.dropped_connections absent count\n");
}

TEST(Sequence, SeededWholeRoundsWithHalfSwz) {
  const std::vector<View> a = MakeSequence(7, 0, 3);
  EXPECT_EQ(a.size(), static_cast<std::size_t>(3 * RoundSize()));
  const std::vector<View> b = MakeSequence(7, 0, 3);
  const std::vector<View> c = MakeSequence(8, 0, 3);
  bool same = true, differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same &= a[i].page == b[i].page && a[i].swz == b[i].swz;
    differs |= a[i].page != c[i].page || a[i].swz != c[i].swz;
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(differs);
  for (int round = 0; round < 3; ++round) {
    std::map<std::size_t, int> views, coded;
    for (int i = 0; i < RoundSize(); ++i) {
      const View& view = a[static_cast<std::size_t>(round * RoundSize() + i)];
      ++views[view.page];
      coded[view.page] += view.swz ? 1 : 0;
    }
    for (std::size_t page = 0; page < RoundCounts().size(); ++page) {
      EXPECT_EQ(views[page], RoundCounts()[page]);
      EXPECT_EQ(2 * coded[page], RoundCounts()[page]);
    }
  }
}

TEST(Site, DeterministicAndServable) {
  const Site a = BuildSite();
  const Site b = BuildSite();
  ASSERT_EQ(a.pages.size(), RoundCounts().size());
  for (std::size_t i = 0; i < a.pages.size(); ++i) {
    EXPECT_EQ(a.pages[i].html, b.pages[i].html);
  }
  EXPECT_EQ(a.assets, b.assets);
  sww::core::ContentStore store;
  EXPECT_TRUE(InstallSite(a, store).ok());
}

}  // namespace
}  // namespace lb
