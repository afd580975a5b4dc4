#include "util/send_buffer.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace longlook::util {

void SendBuffer::append(BytesView data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const std::size_t in_block = static_cast<std::size_t>(end_ % kBlockBytes);
    // Uninitialised: a block's pages are touched only as bytes land in it.
    if (in_block == 0 || blocks_.empty()) {
      blocks_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(
          kBlockBytes));
    }
    const std::size_t n = std::min(kBlockBytes - in_block, data.size() - done);
    std::memcpy(blocks_.back().get() + in_block, data.data() + done, n);
    done += n;
    end_ += n;
  }
  peak_ = std::max(peak_, retained());
}

Bytes SendBuffer::read(std::uint64_t offset, std::size_t len) const {
  LL_CHECK(offset >= begin_)
      << "send buffer read at " << offset << " below release point "
      << begin_;
  LL_CHECK(offset + len <= end_)
      << "send buffer read [" << offset << ", " << offset + len
      << ") past end " << end_;
  Bytes out;
  out.reserve(len);
  while (len > 0) {
    const auto block = static_cast<std::size_t>(offset / kBlockBytes -
                                                begin_ / kBlockBytes);
    const std::size_t in_block = static_cast<std::size_t>(offset % kBlockBytes);
    const std::size_t n = std::min(kBlockBytes - in_block, len);
    const std::uint8_t* p = blocks_[block].get() + in_block;
    out.insert(out.end(), p, p + n);
    offset += n;
    len -= n;
  }
  return out;
}

void SendBuffer::release(std::uint64_t offset) {
  LL_CHECK(offset <= end_)
      << "send buffer release at " << offset << " past end " << end_;
  if (offset <= begin_) return;
  const auto freed = offset == end_
                         ? blocks_.size()
                         : static_cast<std::size_t>(offset / kBlockBytes -
                                                    begin_ / kBlockBytes);
  blocks_.erase(blocks_.begin(),
                blocks_.begin() + static_cast<std::ptrdiff_t>(freed));
  begin_ = offset;
}

}  // namespace longlook::util
