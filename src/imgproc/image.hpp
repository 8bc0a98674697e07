// Image container used across the whole system.
//
// There is no OpenCV in this reproduction; every raster operation the
// pipeline needs (blur, warp, metrics, I/O) is built on this class.
//
// Conventions:
//  - row-major storage, channels interleaved (x fastest, then channel)
//  - float images carry luminance/RGB in the 8-bit domain [0, 255]; this
//    matches the paper's pixel-value language (amplitude delta = 20 means
//    +-20 of 255) and keeps float<->uint8 conversion a pure round/clamp
//  - (0, 0) is the top-left pixel, like the display scanout order that the
//    rolling-shutter camera model cares about
#pragma once

#include "util/contract.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace inframe::img {

template <typename T>
class Image {
public:
    Image() = default;

    Image(int width, int height, int channels = 1, T fill = T{})
        : width_(width), height_(height), channels_(channels)
    {
        util::expects(width > 0 && height > 0, "Image dimensions must be positive");
        util::expects(channels == 1 || channels == 3, "Image supports 1 or 3 channels");
        data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height)
                         * static_cast<std::size_t>(channels),
                     fill);
    }

    // Adopts recycled storage (Frame_pool): the vector's capacity is reused,
    // its contents are unspecified after the resize.
    Image(int width, int height, int channels, std::vector<T>&& storage)
        : width_(width), height_(height), channels_(channels), data_(std::move(storage))
    {
        util::expects(width > 0 && height > 0, "Image dimensions must be positive");
        util::expects(channels == 1 || channels == 3, "Image supports 1 or 3 channels");
        data_.resize(static_cast<std::size_t>(width) * static_cast<std::size_t>(height)
                     * static_cast<std::size_t>(channels));
    }

    // Surrenders the backing storage (for recycling); the image is empty
    // afterwards.
    std::vector<T> take_storage()
    {
        width_ = 0;
        height_ = 0;
        channels_ = 0;
        return std::move(data_);
    }

    int width() const { return width_; }
    int height() const { return height_; }
    int channels() const { return channels_; }
    bool empty() const { return data_.empty(); }
    std::size_t pixel_count() const
    {
        return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
    }
    std::size_t value_count() const { return data_.size(); }

    bool same_shape(const Image& other) const
    {
        return width_ == other.width_ && height_ == other.height_ && channels_ == other.channels_;
    }

    T& at(int x, int y, int c = 0)
    {
        util::expects(contains(x, y) && c >= 0 && c < channels_, "Image::at out of range");
        return data_[index(x, y, c)];
    }

    T at(int x, int y, int c = 0) const
    {
        util::expects(contains(x, y) && c >= 0 && c < channels_, "Image::at out of range");
        return data_[index(x, y, c)];
    }

    // Unchecked fast path for inner loops.
    T& operator()(int x, int y, int c = 0) { return data_[index(x, y, c)]; }
    T operator()(int x, int y, int c = 0) const { return data_[index(x, y, c)]; }

    // Clamp-to-edge sampling; safe for any coordinates.
    T at_clamped(int x, int y, int c = 0) const
    {
        x = std::clamp(x, 0, width_ - 1);
        y = std::clamp(y, 0, height_ - 1);
        return data_[index(x, y, c)];
    }

    bool contains(int x, int y) const { return x >= 0 && x < width_ && y >= 0 && y < height_; }

    std::span<T> values() { return data_; }
    std::span<const T> values() const { return data_; }
    std::span<T> row(int y)
    {
        util::expects(y >= 0 && y < height_, "Image::row out of range");
        return std::span<T>(data_).subspan(index(0, y, 0),
                                           static_cast<std::size_t>(width_ * channels_));
    }
    std::span<const T> row(int y) const
    {
        util::expects(y >= 0 && y < height_, "Image::row out of range");
        return std::span<const T>(data_).subspan(index(0, y, 0),
                                                 static_cast<std::size_t>(width_ * channels_));
    }

    void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

    // Applies fn(value) to every stored value.
    template <typename Fn>
    void transform(Fn&& fn)
    {
        for (auto& v : data_) v = fn(v);
    }

    // Copies a rectangular region into a new image. The region must lie
    // fully inside this image.
    Image crop(int x0, int y0, int w, int h) const
    {
        util::expects(w > 0 && h > 0, "Image::crop needs a non-empty region");
        util::expects(x0 >= 0 && y0 >= 0 && x0 + w <= width_ && y0 + h <= height_,
                      "Image::crop region out of bounds");
        Image out(w, h, channels_);
        for (int y = 0; y < h; ++y) {
            const auto src = row(y0 + y).subspan(static_cast<std::size_t>(x0 * channels_),
                                                 static_cast<std::size_t>(w * channels_));
            std::copy(src.begin(), src.end(), out.row(y).begin());
        }
        return out;
    }

private:
    std::size_t index(int x, int y, int c) const
    {
        return (static_cast<std::size_t>(y) * static_cast<std::size_t>(width_)
                + static_cast<std::size_t>(x))
                   * static_cast<std::size_t>(channels_)
               + static_cast<std::size_t>(c);
    }

    int width_ = 0;
    int height_ = 0;
    int channels_ = 0;
    std::vector<T> data_;
};

using Imagef = Image<float>;
using Image8 = Image<std::uint8_t>;

// Rounds and clamps a float image (8-bit domain) to uint8 storage.
Image8 to_u8(const Imagef& src);

// Widens an 8-bit image to float.
Imagef to_float(const Image8& src);

// Collapses RGB to luminance with Rec.601 weights; identity for grayscale.
Imagef to_gray(const Imagef& src);

} // namespace inframe::img
