#include "store/segment.hpp"

#include <fcntl.h>
#include <sys/mman.h>

#include <cerrno>
#include <cstring>

#include "store/codec.hpp"
#include "util/log.hpp"

namespace ig::store {
namespace {

constexpr std::uint64_t kMagic = 0x3130304745534749ULL;  // "IGSEG01" + version tag
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::unique_ptr<Segment> Segment::create(FileOps& fops, const std::string& path,
                                         std::size_t capacity, std::uint64_t sequence,
                                         Lsn first_lsn) {
  if (capacity < kHeaderSize + kFrameOverhead) capacity = kHeaderSize + kFrameOverhead;
  const int fd = fops.open(path, O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return nullptr;
  if (fops.ftruncate(fd, static_cast<off_t>(capacity)) != 0) {
    const int err = errno;  // close() must not clobber the real failure
    fops.close(fd);
    errno = err;
    return nullptr;
  }
  void* map = fops.mmap(fd, capacity);
  const int map_err = errno;
  fops.close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    errno = map_err;
    return nullptr;
  }

  auto segment = std::unique_ptr<Segment>(new Segment());
  segment->fops_ = &fops;
  segment->path_ = path;
  segment->map_ = static_cast<unsigned char*>(map);
  segment->capacity_ = capacity;
  segment->sequence_ = sequence;
  segment->first_lsn_ = first_lsn;
  std::string header;
  Writer writer(header);
  writer.u64(kMagic);
  writer.u32(kVersion);
  writer.u32(0);
  writer.u64(sequence);
  writer.u64(first_lsn);
  writer.u64(capacity);
  std::memcpy(segment->map_, header.data(), kHeaderSize);
  return segment;
}

std::unique_ptr<Segment> Segment::open(FileOps& fops, const std::string& path) {
  const int fd = fops.open(path, O_RDWR, 0);
  if (fd < 0) return nullptr;
  const off_t file_size = fops.size(fd);
  if (file_size < 0 || static_cast<std::size_t>(file_size) < kHeaderSize) {
    fops.close(fd);
    return nullptr;
  }
  // Peek at the header to learn the declared capacity, then grow the file
  // back to it if a crash (or a test harness) truncated it — the restored
  // bytes read as zeros, which the scan below treats as a clean end.
  char header_bytes[kHeaderSize];
  Reader header(std::string_view(header_bytes, kHeaderSize));
  if (fops.pread(fd, header_bytes, kHeaderSize, 0) != static_cast<ssize_t>(kHeaderSize) ||
      header.u64() != kMagic || header.u32() != kVersion) {
    fops.close(fd);
    return nullptr;
  }
  header.u32();  // reserved
  const std::uint64_t sequence = header.u64();
  const Lsn first_lsn = header.u64();
  const std::size_t capacity = header.u64();
  if (capacity < kHeaderSize + kFrameOverhead ||
      (static_cast<std::size_t>(file_size) != capacity &&
       fops.ftruncate(fd, static_cast<off_t>(capacity)) != 0)) {
    const int err = errno;
    fops.close(fd);
    errno = err;
    return nullptr;
  }
  void* map = fops.mmap(fd, capacity);
  const int map_err = errno;
  fops.close(fd);
  if (map == MAP_FAILED) {
    errno = map_err;
    return nullptr;
  }

  auto segment = std::unique_ptr<Segment>(new Segment());
  segment->fops_ = &fops;
  segment->path_ = path;
  segment->map_ = static_cast<unsigned char*>(map);
  segment->capacity_ = capacity;
  segment->sequence_ = sequence;
  segment->first_lsn_ = first_lsn;

  // Scan the record run. Stop cleanly at a zero length (never-written
  // space — a file the crash truncated short was re-extended with zeros
  // above, so a frame the truncation cut lands here too, via either a
  // zeroed length or a CRC mismatch over its zeroed tail); stop *torn* at
  // an implausible length or a CRC mismatch.
  FrameReader frames(std::string_view(reinterpret_cast<const char*>(segment->map_) + kHeaderSize,
                                      capacity - kHeaderSize));
  for (std::string_view payload; frames.next(payload);) segment->records_.push_back(payload);
  segment->torn_ = frames.torn();
  const std::size_t offset = kHeaderSize + frames.offset();
  segment->tail_ = offset;
  if (segment->torn_ && offset < capacity) {
    // Scrub everything after the last intact record: garbage from the torn
    // write must not be joinable into a plausible frame by a later append.
    std::memset(segment->map_ + offset, 0, capacity - offset);
    IG_LOG_DEBUG("store") << "segment " << path << ": torn tail dropped at offset "
                          << offset << " (" << segment->records_.size()
                          << " records recovered)";
  }
  return segment;
}

Segment::~Segment() {
  if (map_ != nullptr) {
    fops_->msync(map_, tail_, /*sync=*/false);  // best-effort; a failure here
    fops_->munmap(map_, capacity_);             // cannot be acted on anyway
  }
}

void Segment::append(std::string_view payload) {
  unsigned char* at = map_ + tail_;
  std::memcpy(at, frame_header(payload).data(), kFrameOverhead);
  std::memcpy(at + kFrameOverhead, payload.data(), payload.size());
  records_.emplace_back(reinterpret_cast<const char*>(at + kFrameOverhead), payload.size());
  tail_ += kFrameOverhead + payload.size();
}

// Only the used prefix needs a barrier: everything at or past tail_ is
// zeros (or a scrubbed torn tail that reopen would reject again anyway),
// and the header lives inside any non-empty prefix.
bool Segment::sync() { return fops_->msync(map_, tail_, /*sync=*/true) == 0; }

}  // namespace ig::store
