#include "imgproc/io.hpp"

#include "imgproc/image_ops.hpp"

#include <fstream>
#include <stdexcept>

namespace inframe::img {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& why)
{
    throw std::runtime_error("pnm: " + path + ": " + why);
}

} // namespace

void write_pnm(const Image8& image, const std::string& path)
{
    util::expects(!image.empty(), "write_pnm: empty image");
    std::ofstream out(path, std::ios::binary);
    if (!out) fail(path, "cannot open for writing");
    out << (image.channels() == 1 ? "P5" : "P6") << "\n"
        << image.width() << " " << image.height() << "\n255\n";
    out.write(reinterpret_cast<const char*>(image.values().data()),
              static_cast<std::streamsize>(image.value_count()));
    if (!out) fail(path, "write failed");
}

void write_pnm(const Imagef& image, const std::string& path)
{
    write_pnm(to_u8(image), path);
}

} // namespace inframe::img
