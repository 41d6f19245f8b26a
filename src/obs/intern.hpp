// String interning for the trace and event-graph views: records store a
// 32-bit id instead of a std::string, so recording a long run does not
// allocate per record. Id 0 is the empty string.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace scimpi::obs {

class Interner {
public:
    /// The stable id of `s`, added on first sight.
    std::uint32_t intern(std::string_view s) {
        const auto it = ids_.find(s);
        if (it != ids_.end()) return it->second;
        const auto id = static_cast<std::uint32_t>(names_.size());
        names_.emplace_back(s);
        ids_.emplace(names_.back(), id);
        return id;
    }
    [[nodiscard]] const std::string& name(std::uint32_t id) const { return names_.at(id); }

private:
    // Heterogeneous lookup: intern(string_view) never builds a temporary
    // std::string just to probe the table.
    struct SvHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view s) const {
            return std::hash<std::string_view>{}(s);
        }
    };
    std::vector<std::string> names_{std::string()};
    std::unordered_map<std::string, std::uint32_t, SvHash, std::equal_to<>> ids_{
        {std::string(), 0}};
};

}  // namespace scimpi::obs
