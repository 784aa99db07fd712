#include "checks.hpp"

#include <cstdio>
#include <cstring>

#include "compress/swz.hpp"
#include "html/generated_content.hpp"
#include "html/parser.hpp"
#include "util/strings.hpp"

namespace lb {

using sww::util::Bytes;

WireResponse FromResponse(const sww::core::Response& response) {
  WireResponse wire;
  wire.status = response.status;
  wire.content_encoding = response.Header("content-encoding");
  wire.mode = response.Header(sww::core::kSwwModeHeader);
  wire.body = response.body;
  return wire;
}

std::string DecodeEntity(const WireResponse& response, Bytes* entity) {
  if (!response.content_encoding) {
    *entity = response.body;
    return "";
  }
  if (*response.content_encoding != sww::compress::kContentCoding) {
    return "unexpected content-encoding " + *response.content_encoding;
  }
  auto decoded = sww::compress::SwzDecompress(response.body);
  if (!decoded.ok()) return "swz body does not decode";
  if (response.body.size() >= decoded.value().size()) {
    return "swz body is not smaller than its entity";
  }
  *entity = std::move(decoded).value();
  return "";
}

namespace {

bool SameBytes(const Bytes& bytes, const std::string& text) {
  return bytes.size() == text.size() &&
         std::memcmp(bytes.data(), text.data(), text.size()) == 0;
}

}  // namespace

std::string CheckPromptPage(const WireResponse& response,
                            const std::string& stored, Bytes* entity) {
  if (response.status != 200) {
    return "page status " + std::to_string(response.status);
  }
  if (response.mode.value_or("") != "generative") {
    return "page not served generatively";
  }
  if (std::string why = DecodeEntity(response, entity); !why.empty()) {
    return why;
  }
  if (!SameBytes(*entity, stored)) {
    return "page body differs from the stored html";
  }
  return "";
}

std::string CheckArticle(const WireResponse& response,
                         const std::string& stored) {
  if (response.status != 200) {
    return "probe status " + std::to_string(response.status);
  }
  if (!response.content_encoding) return "probe accepted swz but came uncoded";
  Bytes entity;
  if (std::string why = DecodeEntity(response, &entity); !why.empty()) {
    return why;
  }
  if (!SameBytes(entity, stored)) return "probe body differs from the article";
  return "";
}

std::string CheckAsset(const WireResponse& response, const Bytes& stored) {
  if (response.status != 200) {
    return "asset status " + std::to_string(response.status);
  }
  if (response.content_encoding) return "asset was content-coded";
  if (response.body != stored) return "asset differs from the stored bytes";
  return "";
}

std::optional<std::pair<int, int>> PpmDims(const Bytes& bytes) {
  // "P6\n<w> <h>\n255\n" followed by exactly w*h*3 bytes.
  const std::string head(
      reinterpret_cast<const char*>(bytes.data()),
      std::min<std::size_t>(bytes.size(), 32));
  int width = 0, height = 0, maxval = 0, consumed = 0;
  if (std::sscanf(head.c_str(), "P6 %d %d %d%n", &width, &height, &maxval,
                  &consumed) != 3 ||
      maxval != 255 || width <= 0 || height <= 0 ||
      static_cast<std::size_t>(consumed) >= head.size()) {
    return std::nullopt;
  }
  const std::size_t header = static_cast<std::size_t>(consumed) + 1;
  if (bytes.size() !=
      header + static_cast<std::size_t>(width) * height * 3) {
    return std::nullopt;
  }
  return std::make_pair(width, height);
}

std::string CheckLegacyPage(const WireResponse& response, const SitePage& page,
                            std::vector<std::string>* generated,
                            std::vector<std::string>* unique) {
  generated->clear();
  unique->clear();
  if (response.status != 200) {
    return "page status " + std::to_string(response.status);
  }
  if (response.mode.value_or("") != "traditional") {
    return "legacy page not served traditionally";
  }
  if (response.content_encoding) return "legacy page was content-coded";
  auto document = sww::html::ParseDocument(sww::util::ToString(response.body));
  if (!document.ok()) return "legacy page does not parse";
  for (sww::html::Node* div : document.value()->FindByTag("div")) {
    if (div->GetAttribute("class").value_or("") ==
        sww::html::kGeneratedContentClass) {
      return "legacy page kept a generated-content division";
    }
  }
  for (sww::html::Node* img : document.value()->FindByTag("img")) {
    const std::string src = img->GetAttribute("src").value_or("");
    bool stored = false;
    for (const std::string& asset : page.unique_assets) stored |= asset == src;
    (stored ? unique : generated)->push_back(src);
  }
  if (generated->size() != page.image_dims.size()) {
    return "legacy page has " + std::to_string(generated->size()) +
           " generated images, authored " +
           std::to_string(page.image_dims.size());
  }
  if (*unique != page.unique_assets) {
    return "legacy page links other unique assets than stored";
  }
  return "";
}

std::string CheckLegacyImage(const WireResponse& response,
                             std::pair<int, int> authored) {
  if (response.status != 200) {
    return "image status " + std::to_string(response.status);
  }
  const std::optional<std::pair<int, int>> dims = PpmDims(response.body);
  if (!dims) return "generated image is not a well-formed PPM";
  if (*dims != authored) {
    return "generated image is " + std::to_string(dims->first) + "x" +
           std::to_string(dims->second) + ", authored " +
           std::to_string(authored.first) + "x" +
           std::to_string(authored.second);
  }
  return "";
}

std::string CheckRender(const SitePage& page, std::size_t verified,
                        std::size_t failed,
                        const std::vector<std::pair<int, int>>& image_dims) {
  if (verified + failed != static_cast<std::size_t>(page.digest_items)) {
    return "verified " + std::to_string(verified) + " + failed " +
           std::to_string(failed) + " != " +
           std::to_string(page.digest_items) + " digest items";
  }
  if (image_dims != page.image_dims) {
    return "rendered images differ from the authored sizes";
  }
  return "";
}

}  // namespace lb
