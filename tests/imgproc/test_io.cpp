#include "imgproc/io.hpp"

#include "imgproc/image_ops.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace {

using namespace inframe::img;
using inframe::util::Prng;

class IoTest : public ::testing::Test {
protected:
    std::string path(const std::string& name)
    {
        const auto dir = std::filesystem::temp_directory_path() / "inframe_io_test";
        std::filesystem::create_directories(dir);
        const auto full = dir / name;
        created_.push_back(full);
        return full.string();
    }

    void TearDown() override
    {
        for (const auto& p : created_) std::filesystem::remove(p);
    }

    std::vector<std::filesystem::path> created_;
};

std::string file_bytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string payload(const Image8& image)
{
    return {reinterpret_cast<const char*>(image.values().data()), image.value_count()};
}

TEST_F(IoTest, PgmRoundTrip)
{
    Prng prng(21);
    Image8 original(33, 17, 1);
    for (auto& v : original.values()) v = static_cast<std::uint8_t>(prng.next_below(256));
    const auto file = path("gray.pgm");
    write_pnm(original, file);
    EXPECT_EQ(file_bytes(file), "P5\n33 17\n255\n" + payload(original));
}

TEST_F(IoTest, PpmRoundTrip)
{
    Prng prng(22);
    Image8 original(8, 6, 3);
    for (auto& v : original.values()) v = static_cast<std::uint8_t>(prng.next_below(256));
    const auto file = path("rgb.ppm");
    write_pnm(original, file);
    EXPECT_EQ(file_bytes(file), "P6\n8 6\n255\n" + payload(original));
}

TEST_F(IoTest, FloatWriteQuantizes)
{
    Imagef image(2, 1);
    image(0, 0) = 300.0f;
    image(1, 0) = -5.0f;
    const auto file = path("clamp.pgm");
    write_pnm(image, file);
    EXPECT_EQ(file_bytes(file), std::string("P5\n2 1\n255\n\xff\x00", 13));
}

TEST_F(IoTest, UnwritablePathThrows)
{
    EXPECT_THROW(write_pnm(Image8(2, 1, 1), "/nonexistent/definitely/missing.pgm"),
                 std::runtime_error);
}

} // namespace
