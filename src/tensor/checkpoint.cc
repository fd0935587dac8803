#include "tensor/checkpoint.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "common/stringpiece.h"

namespace logcl {
namespace checkpoint {

namespace {

constexpr char kMagic[8] = {'L', 'G', 'C', 'L', 'C', 'K', 'P', 'T'};
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionV2 = 2;
constexpr uint64_t kDataAlign = 64;
// Largest rank a header may declare. Parameters are at most rank 3; the bound
// keeps a corrupt rank field from sizing an allocation.
constexpr uint32_t kMaxRank = 8;
// Smallest v2 per-tensor entry: rank, reserved and data_offset.
constexpr uint64_t kMinV2EntryBytes = 2 * sizeof(uint32_t) + sizeof(uint64_t);

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// Bytes between the read position and the end of the file.
uint64_t RemainingBytes(std::ifstream& in) {
  std::streampos pos = in.tellg();
  in.seekg(0, std::ios::end);
  std::streampos end = in.tellg();
  in.seekg(pos);
  return end > pos ? static_cast<uint64_t>(end - pos) : 0;
}

// Reads the `rank` dims of tensor `index`. A rank above kMaxRank, a dim that
// is negative as int64, or a payload whose byte size overflows int64 is an
// InvalidArgument, so no corrupt header reaches an allocation or Shape.
Status ReadDims(std::ifstream& in, uint32_t rank, uint64_t index,
                std::vector<int64_t>* dims) {
  const auto tensor = static_cast<unsigned long long>(index);
  if (rank > kMaxRank) {
    return Status::InvalidArgument(StrFormat(
        "tensor %llu: rank %u exceeds %u", tensor, rank, kMaxRank));
  }
  dims->assign(rank, 0);
  uint64_t bytes = sizeof(float);
  for (uint32_t d = 0; d < rank; ++d) {
    uint64_t dim = 0;
    if (!ReadPod(in, &dim)) return Status::IoError("truncated dims");
    if (dim > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return Status::InvalidArgument(StrFormat(
          "tensor %llu: negative dim %lld", tensor,
          static_cast<long long>(static_cast<int64_t>(dim))));
    }
    if (__builtin_mul_overflow(bytes, dim, &bytes) ||
        bytes > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
      return Status::InvalidArgument(
          StrFormat("tensor %llu: payload size overflows", tensor));
    }
    (*dims)[d] = static_cast<int64_t>(dim);
  }
  return Status::Ok();
}

Status CheckShapes(const std::vector<Shape>& file_shapes,
                   const std::vector<Tensor>& parameters,
                   const std::string& path) {
  if (file_shapes.size() != parameters.size()) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint %s has %zu tensors, model has %zu", path.c_str(),
        file_shapes.size(), parameters.size()));
  }
  for (size_t i = 0; i < parameters.size(); ++i) {
    if (file_shapes[i] != parameters[i].shape()) {
      return Status::FailedPrecondition(StrFormat(
          "tensor %zu shape mismatch: checkpoint %s vs model %s", i,
          file_shapes[i].ToString().c_str(),
          parameters[i].shape().ToString().c_str()));
    }
  }
  return Status::Ok();
}

}  // namespace

Status Save(const std::vector<Tensor>& parameters, const std::string& path) {
  for (const Tensor& p : parameters) {
    if (!p.defined()) {
      return Status::InvalidArgument("undefined tensor in parameter list");
    }
  }
  // Header size: magic + version + header_bytes + count, then one entry of
  // rank/reserved/dims/data_offset per tensor.
  uint64_t header_bytes = sizeof(kMagic) + 2 * sizeof(uint32_t) +
                          sizeof(uint64_t);
  for (const Tensor& p : parameters) {
    header_bytes += 2 * sizeof(uint32_t);
    header_bytes += p.shape().rank() * sizeof(uint64_t);
    header_bytes += sizeof(uint64_t);
  }
  std::vector<uint64_t> offsets(parameters.size());
  uint64_t cursor = AlignUp(header_bytes, kDataAlign);
  for (size_t i = 0; i < parameters.size(); ++i) {
    offsets[i] = cursor;
    cursor = AlignUp(
        cursor + parameters[i].data().size() * sizeof(float), kDataAlign);
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersionV2);
  WritePod(out, static_cast<uint32_t>(header_bytes));
  WritePod(out, static_cast<uint64_t>(parameters.size()));
  for (size_t i = 0; i < parameters.size(); ++i) {
    const Tensor& p = parameters[i];
    WritePod(out, static_cast<uint32_t>(p.shape().rank()));
    WritePod(out, static_cast<uint32_t>(0));
    for (int64_t dim : p.shape().dims()) {
      WritePod(out, static_cast<uint64_t>(dim));
    }
    WritePod(out, offsets[i]);
  }
  for (size_t i = 0; i < parameters.size(); ++i) {
    // Zero-pad up to the aligned payload offset.
    uint64_t pos = static_cast<uint64_t>(out.tellp());
    for (; pos < offsets[i]; ++pos) out.put('\0');
    const std::vector<float>& data = parameters[i].data();
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size() * sizeof(float)));
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

namespace {

Status LoadV1Body(std::ifstream& in, std::vector<Tensor>* parameters) {
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return Status::IoError("truncated header");
  if (count != parameters->size()) {
    return Status::FailedPrecondition(StrFormat(
        "checkpoint has %llu tensors, model has %zu",
        static_cast<unsigned long long>(count), parameters->size()));
  }
  for (size_t i = 0; i < parameters->size(); ++i) {
    Tensor& p = (*parameters)[i];
    uint32_t rank = 0;
    if (!ReadPod(in, &rank)) return Status::IoError("truncated tensor header");
    std::vector<int64_t> dims;
    LOGCL_RETURN_IF_ERROR(ReadDims(in, rank, i, &dims));
    if (Shape(dims) != p.shape()) {
      return Status::FailedPrecondition(StrFormat(
          "tensor %zu shape mismatch: checkpoint %s vs model %s", i,
          Shape(dims).ToString().c_str(), p.shape().ToString().c_str()));
    }
    std::vector<float>& data = p.mutable_data();
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
    if (!in) return Status::IoError("truncated tensor data");
  }
  return Status::Ok();
}

Status ReadV2Header(std::ifstream& in, std::vector<Shape>* shapes,
                    std::vector<uint64_t>* offsets) {
  uint32_t header_bytes = 0;
  if (!ReadPod(in, &header_bytes)) return Status::IoError("truncated header");
  uint64_t count = 0;
  if (!ReadPod(in, &count)) return Status::IoError("truncated header");
  if (count > RemainingBytes(in) / kMinV2EntryBytes) {
    return Status::InvalidArgument(
        StrFormat("tensor count %llu exceeds the file size",
                  static_cast<unsigned long long>(count)));
  }
  shapes->reserve(count);
  offsets->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t rank = 0;
    uint32_t reserved = 0;
    if (!ReadPod(in, &rank) || !ReadPod(in, &reserved)) {
      return Status::IoError("truncated tensor header");
    }
    std::vector<int64_t> dims;
    LOGCL_RETURN_IF_ERROR(ReadDims(in, rank, i, &dims));
    uint64_t offset = 0;
    if (!ReadPod(in, &offset)) return Status::IoError("truncated offsets");
    if (offset % kDataAlign != 0 || offset < header_bytes) {
      return Status::InvalidArgument(
          StrFormat("bad data offset %llu for tensor %llu",
                    static_cast<unsigned long long>(offset),
                    static_cast<unsigned long long>(i)));
    }
    shapes->emplace_back(dims);
    offsets->push_back(offset);
  }
  return Status::Ok();
}

Status LoadV2Body(std::ifstream& in, const std::string& path,
                  std::vector<Tensor>* parameters) {
  std::vector<Shape> shapes;
  std::vector<uint64_t> offsets;
  LOGCL_RETURN_IF_ERROR(ReadV2Header(in, &shapes, &offsets));
  LOGCL_RETURN_IF_ERROR(CheckShapes(shapes, *parameters, path));
  for (size_t i = 0; i < parameters->size(); ++i) {
    std::vector<float>& data = (*parameters)[i].mutable_data();
    in.seekg(static_cast<std::streamoff>(offsets[i]));
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
    if (!in) return Status::IoError("truncated tensor data");
  }
  return Status::Ok();
}

}  // namespace

Status Load(const std::string& path, std::vector<Tensor>* parameters) {
  if (parameters == nullptr) {
    return Status::InvalidArgument("null parameter list");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a LogCL checkpoint: " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Status::IoError("truncated header");
  if (version == kVersionV1) return LoadV1Body(in, parameters);
  if (version == kVersionV2) return LoadV2Body(in, path, parameters);
  return Status::InvalidArgument(
      StrFormat("unsupported checkpoint version %u", version));
}

// --- MmapCheckpoint --------------------------------------------------------

MmapCheckpoint::~MmapCheckpoint() { Reset(); }

MmapCheckpoint::MmapCheckpoint(MmapCheckpoint&& other) noexcept
    : base_(other.base_),
      length_(other.length_),
      path_(std::move(other.path_)),
      tensors_(std::move(other.tensors_)) {
  other.base_ = nullptr;
  other.length_ = 0;
}

MmapCheckpoint& MmapCheckpoint::operator=(MmapCheckpoint&& other) noexcept {
  if (this != &other) {
    Reset();
    base_ = other.base_;
    length_ = other.length_;
    path_ = std::move(other.path_);
    tensors_ = std::move(other.tensors_);
    other.base_ = nullptr;
    other.length_ = 0;
  }
  return *this;
}

void MmapCheckpoint::Reset() {
  if (base_ != nullptr) {
    ::munmap(base_, length_);
    base_ = nullptr;
    length_ = 0;
  }
  tensors_.clear();
}

const float* MmapCheckpoint::data(size_t i) const {
  LOGCL_CHECK(base_ != nullptr);
  LOGCL_CHECK(i < tensors_.size());
  return reinterpret_cast<const float*>(static_cast<const char*>(base_) +
                                        tensors_[i].offset);
}

Status MmapCheckpoint::Materialize(std::vector<Tensor>* parameters) const {
  if (parameters == nullptr) {
    return Status::InvalidArgument("null parameter list");
  }
  std::vector<Shape> shapes;
  shapes.reserve(tensors_.size());
  for (const Entry& e : tensors_) shapes.push_back(e.shape);
  LOGCL_RETURN_IF_ERROR(CheckShapes(shapes, *parameters, path_));
  for (size_t i = 0; i < parameters->size(); ++i) {
    std::vector<float>& dst = (*parameters)[i].mutable_data();
    std::memcpy(dst.data(), data(i), dst.size() * sizeof(float));
  }
  return Status::Ok();
}

Status MmapCheckpoint::WritebackRows(size_t i, const Tensor& src,
                                     const std::vector<int64_t>& rows) {
  if (i >= tensors_.size()) {
    return Status::InvalidArgument(StrFormat("tensor index %zu out of range", i));
  }
  if (src.shape() != tensors_[i].shape) {
    return Status::FailedPrecondition(StrFormat(
        "writeback shape mismatch: source %s vs checkpoint %s",
        src.shape().ToString().c_str(),
        tensors_[i].shape.ToString().c_str()));
  }
  const Shape& shape = tensors_[i].shape;
  int64_t num_rows = shape.rank() >= 1 ? shape.dims()[0] : 1;
  int64_t row_len = num_rows > 0
                        ? static_cast<int64_t>(src.data().size()) / num_rows
                        : 0;
  float* dst = const_cast<float*>(data(i));
  for (int64_t row : rows) {
    if (row < 0 || row >= num_rows) {
      return Status::InvalidArgument(
          StrFormat("writeback row %lld out of range [0, %lld)",
                    static_cast<long long>(row),
                    static_cast<long long>(num_rows)));
    }
    std::memcpy(dst + row * row_len, src.data().data() + row * row_len,
                static_cast<size_t>(row_len) * sizeof(float));
  }
  return Status::Ok();
}

Status MmapCheckpoint::WritebackAll(size_t i, const Tensor& src) {
  if (i >= tensors_.size()) {
    return Status::InvalidArgument(StrFormat("tensor index %zu out of range", i));
  }
  if (src.shape() != tensors_[i].shape) {
    return Status::FailedPrecondition(StrFormat(
        "writeback shape mismatch: source %s vs checkpoint %s",
        src.shape().ToString().c_str(),
        tensors_[i].shape.ToString().c_str()));
  }
  std::memcpy(const_cast<float*>(data(i)), src.data().data(),
              src.data().size() * sizeof(float));
  return Status::Ok();
}

Status MmapCheckpoint::Flush() {
  if (base_ == nullptr) return Status::Ok();
  if (::msync(base_, length_, MS_SYNC) != 0) {
    return Status::IoError("msync failed: " + path_);
  }
  return Status::Ok();
}

Result<MmapCheckpoint> Open(const std::string& path) {
  // Parse the header with the streamed reader first (simpler error paths),
  // then map the whole file read-write and hold only offsets + shapes.
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a LogCL checkpoint: " + path);
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) return Status::IoError("truncated header");
  if (version != kVersionV2) {
    return Status::InvalidArgument(StrFormat(
        "mmap requires a v2 checkpoint, got version %u (re-save with "
        "checkpoint::Save)",
        version));
  }
  std::vector<Shape> shapes;
  std::vector<uint64_t> offsets;
  LOGCL_RETURN_IF_ERROR(ReadV2Header(in, &shapes, &offsets));
  in.close();

  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return Status::IoError("cannot open for mmap: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat failed: " + path);
  }
  size_t length = static_cast<size_t>(st.st_size);
  for (size_t i = 0; i < shapes.size(); ++i) {
    // ReadDims bounded the payload size, so this product cannot wrap.
    uint64_t bytes =
        static_cast<uint64_t>(shapes[i].num_elements()) * sizeof(float);
    if (bytes > length || offsets[i] > length - bytes) {
      ::close(fd);
      return Status::IoError("truncated tensor data: " + path);
    }
  }
  void* base =
      ::mmap(nullptr, length, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);  // The mapping keeps the file alive.
  if (base == MAP_FAILED) {
    return Status::IoError("mmap failed: " + path);
  }
  MmapCheckpoint view;
  view.base_ = base;
  view.length_ = length;
  view.path_ = path;
  view.tensors_.reserve(shapes.size());
  for (size_t i = 0; i < shapes.size(); ++i) {
    view.tensors_.push_back(MmapCheckpoint::Entry{shapes[i], offsets[i]});
  }
  return view;
}

}  // namespace checkpoint
}  // namespace logcl
