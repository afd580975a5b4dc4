// Block-chunked send buffer shared by both transports (quic::QuicStream,
// tcp::TcpConnection).
//
// A sender must keep every byte it may still have to retransmit, and
// nothing more. One growing vector would hold the whole object (the
// paper's bulk runs move 210 MB) and copy all of it on every doubling.
// SendBuffer appends into fixed 64 KiB blocks, never moves a stored byte,
// and frees whole blocks once the owner moves the release point past them.
// The owner picks the release point: the lowest offset any retransmission
// path can still read (DESIGN.md "Send-buffer ownership").
//
// Offsets are stream offsets: [begin(), end()) is readable, where end() is
// the total ever appended and begin() the release point. Reading below
// begin() would return freed bytes, so it fails an LL_CHECK in every build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "util/bytes.h"

namespace longlook::util {

class SendBuffer {
 public:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  void append(BytesView data);
  // Copies [offset, offset + len) out; the range must lie in [begin(), end()).
  Bytes read(std::uint64_t offset, std::size_t len) const;
  // Moves the release point up to `offset` (<= end(); a lower value is a
  // no-op) and frees every block that lies wholly below it, or every block
  // once nothing is left to read.
  void release(std::uint64_t offset);

  std::uint64_t begin() const { return begin_; }
  std::uint64_t end() const { return end_; }
  // Bytes held from the start of the first kept block to end(): 0 when
  // begin() == end(), else less than end() - begin() + kBlockBytes.
  std::size_t retained() const {
    return blocks_.empty() ? 0
                           : static_cast<std::size_t>(
                                 end_ - begin_ + begin_ % kBlockBytes);
  }
  // Highest retained() ever reached.
  std::size_t peak_retained() const { return peak_; }

 private:
  // The blocks holding [begin_, end_): the first starts at the block
  // boundary at or below begin_. Empty when begin_ == end_.
  std::deque<std::unique_ptr<std::uint8_t[]>> blocks_;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace longlook::util
