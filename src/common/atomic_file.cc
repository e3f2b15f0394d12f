#include "common/atomic_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/metrics.h"
#include "common/rng.h"

namespace cfconv {

std::string
contentChecksum(const std::string &content)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      hashBytes(content.data(), content.size())));
    return buf;
}

namespace {

bool
writeAndRename(const std::string &path, const std::string &content)
{
    // A fixed temp suffix keeps the write deterministic and idempotent;
    // concurrent writers of the same path are not a supported pattern
    // anywhere in cfconv.
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "could not write %s\n", tmp.c_str());
        return false;
    }
    const size_t n = std::fwrite(content.data(), 1, content.size(), f);
    bool ok = n == content.size();
    ok = std::fflush(f) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::fprintf(stderr, "short write to %s\n", tmp.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr, "could not rename %s -> %s: %s\n", tmp.c_str(),
                     path.c_str(), std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    MetricsRegistry::instance().add("persist.atomic_writes", 1.0);
    return true;
}

} // namespace

bool
atomicWriteFile(const std::string &path, const std::string &content)
{
    return writeAndRename(path, content);
}

bool
atomicWriteFileChecksummed(const std::string &path,
                           const std::string &content)
{
    std::string payload = content;
    payload += kChecksumTrailerPrefix;
    payload += contentChecksum(content);
    payload += '\n';
    return writeAndRename(path, payload);
}

StatusOr<std::string>
readFileVerified(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return notFoundError("no such file: %s", path.c_str());
    std::string content;
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        content.append(buf, n);
    std::fclose(f);

    // Find a trailer on the last line, if any.
    const std::string prefix = kChecksumTrailerPrefix;
    size_t lineStart = content.rfind('\n', content.empty()
                                              ? std::string::npos
                                              : content.size() - 2);
    lineStart = lineStart == std::string::npos ? 0 : lineStart + 1;
    if (content.compare(lineStart, prefix.size(), prefix) != 0)
        return content; // legacy file without a trailer
    std::string line = content.substr(lineStart);
    if (!line.empty() && line.back() == '\n')
        line.pop_back();
    const std::string want = line.substr(prefix.size());
    const std::string body = content.substr(0, lineStart);
    const std::string got = contentChecksum(body);
    if (want != got)
        return dataLossError(
            "checksum mismatch in %s: trailer %s vs content %s (torn write?)",
            path.c_str(), want.c_str(), got.c_str());
    return body;
}

} // namespace cfconv
