// checks.hpp — output checks against values computed from the stored site,
// apart from the serving path.  Each returns an empty string on success
// and a one-line reason on failure, so a run can say what broke.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/http_semantics.hpp"
#include "site.hpp"
#include "util/bytes.hpp"

namespace lb {

/// A response as the load generator saw it: status, headers, and the body
/// exactly as it crossed the wire (still content-coded).
struct WireResponse {
  int status = 0;
  std::optional<std::string> content_encoding;
  std::optional<std::string> mode;  ///< x-sww-mode
  sww::util::Bytes body;
};

WireResponse FromResponse(const sww::core::Response& response);

/// Decode the body if it is swz-coded, checking the coding shrank it.
/// On success `*entity` holds the decoded entity.
std::string DecodeEntity(const WireResponse& response,
                         sww::util::Bytes* entity);

/// A generative page: 200, generative mode, entity byte-equal to `stored`.
/// On success `*entity` holds the decoded entity.
std::string CheckPromptPage(const WireResponse& response,
                            const std::string& stored,
                            sww::util::Bytes* entity);

/// A probe (it accepts swz): 200, swz-coded and, once decoded, byte-equal
/// to the stored article.
std::string CheckArticle(const WireResponse& response,
                         const std::string& stored);

/// A unique asset: 200 and byte-equal to the stored bytes.
std::string CheckAsset(const WireResponse& response,
                       const sww::util::Bytes& stored);

/// Width and height of a binary PPM (P6, maxval 255) whose size matches
/// its header; nullopt when `bytes` is not one.
std::optional<std::pair<int, int>> PpmDims(const sww::util::Bytes& bytes);

/// A legacy (server-materialized) page: no generated-content division
/// left; its <img> links are the page's generated images followed in
/// document order by its unique assets.  `*generated` receives the
/// generated image paths in document order.
std::string CheckLegacyPage(const WireResponse& response, const SitePage& page,
                            std::vector<std::string>* generated,
                            std::vector<std::string>* unique);

/// A generated image served to a legacy client: a PPM of the authored size.
std::string CheckLegacyImage(const WireResponse& response,
                             std::pair<int, int> authored);

/// An on-device render: every digest-carrying item was either verified or
/// failed, and every generated image has its authored size.
std::string CheckRender(const SitePage& page, std::size_t verified,
                        std::size_t failed,
                        const std::vector<std::pair<int, int>>& image_dims);

}  // namespace lb
