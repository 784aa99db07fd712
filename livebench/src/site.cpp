#include "site.hpp"

#include <algorithm>

#include "core/page_builder.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace lb {

using sww::util::Bytes;

namespace {

// A unique photo: seeded bytes of a typical compressed thumbnail size
// (the paper's ≈28.8 kB per original image), incompressible like a JPEG.
Bytes MakePhoto(std::uint64_t seed, std::size_t size) {
  sww::util::Rng rng(seed);
  Bytes bytes(size);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.NextU64());
  return bytes;
}

SitePage Describe(std::string path, std::string html,
                  std::vector<std::string> unique_assets) {
  SitePage page;
  page.path = std::move(path);
  page.html = std::move(html);
  page.unique_assets = std::move(unique_assets);
  auto document = sww::html::ParseDocument(page.html);
  if (document.ok()) {
    auto extraction = sww::html::ExtractGeneratedContent(*document.value());
    for (const auto& spec : extraction.specs) {
      ++page.items;
      if (spec.metadata.Has("digest")) ++page.digest_items;
      if (spec.type == sww::html::GeneratedContentType::kImage) {
        page.image_dims.emplace_back(spec.width(), spec.height());
      }
    }
  }
  return page;
}

// A travel blog whose unique photos live under `photo_prefix`.
SitePage Blog(Site& site, const std::string& path, std::uint64_t seed,
              const std::string& photo_prefix) {
  sww::core::TravelBlogPage blog = sww::core::MakeTravelBlogPage(3, 2, seed);
  std::string html = blog.html;
  std::vector<std::string> assets;
  for (std::size_t i = 0; i < blog.unique_asset_paths.size(); ++i) {
    const std::string& original = blog.unique_asset_paths[i];
    const std::string renamed =
        photo_prefix + std::to_string(i) + ".jpg";
    for (std::size_t at = html.find(original); at != std::string::npos;
         at = html.find(original, at + renamed.size())) {
      html.replace(at, original.size(), renamed);
    }
    site.assets[renamed] = MakePhoto(seed * 1000 + i, 24'000 + 4'800 * i);
    assets.push_back(renamed);
  }
  return Describe(path, std::move(html), std::move(assets));
}

}  // namespace

Site BuildSite() {
  Site site;
  // Zipf rank order: the blog is the most visited page.
  site.pages.push_back(Blog(site, "/blog", 7, "/assets/blog-photo-"));
  site.pages.push_back(Describe("/", sww::core::MakeGoldfishPage(), {}));
  site.pages.push_back(
      Describe("/menu", sww::core::MakeFoodMenuPage(8, 21).html, {}));
  site.pages.push_back(Describe(
      "/landscape", sww::core::MakeLandscapeSearchPage().html, {}));
  site.pages.push_back(Blog(site, "/blog/2", 8, "/assets/blog2-photo-"));
  site.pages.push_back(
      Describe("/menu/2", sww::core::MakeFoodMenuPage(6, 22).html, {}));
  site.article_html = sww::core::MakeNewsArticleHtml();
  return site;
}

sww::util::Status InstallSite(const Site& site,
                              sww::core::ContentStore& store) {
  for (const SitePage& page : site.pages) {
    if (auto status = store.AddPage(page.path, page.html); !status.ok()) {
      return status;
    }
  }
  if (auto status = store.AddPage(site.article_path, site.article_html);
      !status.ok()) {
    return status;
  }
  for (const auto& [path, bytes] : site.assets) {
    store.AddAsset(path, bytes, "image/jpeg");
  }
  return sww::util::Status::Ok();
}

const std::vector<int>& RoundCounts() {
  static const std::vector<int> kCounts = {24, 12, 8, 6, 4, 4};
  return kCounts;
}

int RoundSize() {
  int total = 0;
  for (int count : RoundCounts()) total += count;
  return total;
}

std::vector<View> MakeSequence(std::uint64_t seed, std::uint64_t stream,
                               int rounds) {
  std::vector<View> sequence;
  sequence.reserve(static_cast<std::size_t>(rounds * RoundSize()));
  sww::util::Rng rng(seed * 0x9E3779B97F4A7C15ull + stream * 7919 + 1);
  for (int round = 0; round < rounds; ++round) {
    std::vector<View> views;
    const std::vector<int>& counts = RoundCounts();
    for (std::size_t page = 0; page < counts.size(); ++page) {
      for (int i = 0; i < counts[page]; ++i) {
        views.push_back(View{page, i < counts[page] / 2});
      }
    }
    // Fisher-Yates with the seeded generator: a seeded order and, since
    // the swz flags travel with the views, a seeded half per page.
    for (std::size_t i = views.size(); i > 1; --i) {
      std::swap(views[i - 1], views[rng.NextBounded(i)]);
    }
    sequence.insert(sequence.end(), views.begin(), views.end());
  }
  return sequence;
}

}  // namespace lb
