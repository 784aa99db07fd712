// site.hpp — the fixed site every workload serves, and the request mix.
//
// The site is built from core/page_builder with constant seeds, so every
// run serves byte-identical pages and assets; `--seed` only chooses the
// order of views and which visits accept swz.  The expected values the
// checks compare against are derived here from what was stored, never from
// what the server sent.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/content_store.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace lb {

struct SitePage {
  std::string path;
  std::string html;                         ///< exactly as stored
  std::vector<std::string> unique_assets;   ///< stored assets it links, in order
  /// Authored width x height of every generated image, in document order.
  std::vector<std::pair<int, int>> image_dims;
  int items = 0;          ///< generated-content divs (images + text)
  int digest_items = 0;   ///< items carrying a §7 semantic digest
};

struct Site {
  /// Prompt pages in Zipf rank order (rank 1 first).
  std::vector<SitePage> pages;
  /// The probe target: the §6.2 news article (plain HTML, ~2.4 kB).
  std::string article_path = "/article";
  std::string article_html;
  std::map<std::string, sww::util::Bytes> assets;

  const SitePage& Page(std::size_t index) const { return pages[index]; }
};

/// Build the site.  Deterministic: identical on every call and every run.
Site BuildSite();

/// Store every page and asset of `site` in `store`.
sww::util::Status InstallSite(const Site& site, sww::core::ContentStore& store);

/// One view in a workload's sequence.
struct View {
  std::size_t page = 0;  ///< index into Site::pages
  bool swz = false;      ///< send accept-encoding: swz
};

/// Views of each page in one round, in rank order: a Zipf(s = 1) mix over
/// the site's pages (24, 12, 8, 6, 4, 4), with every count even so exactly
/// half of each page's visits can accept swz.
const std::vector<int>& RoundCounts();
int RoundSize();

/// `rounds` whole rounds, each a seeded shuffle of RoundCounts(); within a
/// round a seeded half of each page's views has swz set.  The same
/// (seed, stream, rounds) always gives the same sequence.
std::vector<View> MakeSequence(std::uint64_t seed, std::uint64_t stream,
                               int rounds);

}  // namespace lb
