// io_uring receive backend (SCRUBBER_IO_URING=ON), raw syscalls only — no
// liburing dependency, so the build stays self-contained. A fixed set of
// RECVMSG submissions stays armed in the kernel; recv_batch() re-arms the
// slots harvested last call, submits, then waits on the completion ring
// with an EXT_ARG timeout (no timeout SQEs to garbage-collect). Where
// recvmmsg pays one syscall per harvested batch, io_uring pays one per
// *submission* batch and harvests completions from shared memory.
//
// make_uring_receiver() returns nullptr — callers fall back to recvmmsg —
// when the kernel or sandbox refuses io_uring_setup or lacks the features
// this backend relies on (single-mmap rings, EXT_ARG enter; kernel 5.11+).

#include "netio/udp.hpp"

#if SCRUBBER_IO_URING

#include <linux/io_uring.h>
#include <linux/time_types.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace scrubber::netio {
namespace {

int sys_io_uring_setup(unsigned entries, io_uring_params* params) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, params));
}

int sys_io_uring_enter(int ring_fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags, const void* arg, std::size_t arg_size) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, arg, arg_size));
}

std::uint32_t load_acquire(const std::uint32_t* word) noexcept {
  return std::atomic_ref<const std::uint32_t>(*word).load(
      std::memory_order_acquire);
}

void store_release(std::uint32_t* word, std::uint32_t value) noexcept {
  std::atomic_ref<std::uint32_t>(*word).store(value,
                                              std::memory_order_release);
}

class UringReceiver final : public BatchReceiver {
 public:
  UringReceiver(UdpSocket& socket, std::size_t batch_msgs,
                runtime::WireBufferPool* pool)
      : socket_(socket),
        batch_(batch_msgs == 0 ? 1 : batch_msgs),
        slot_bytes_(pool->slot_bytes()),
        pool_(pool),
        storage_(batch_ * slot_bytes_),
        controls_(batch_ * kControlBytes),
        iovecs_(batch_),
        messages_(batch_),
        armed_(batch_),
        needs_arm_(batch_, true) {
    for (std::size_t i = 0; i < batch_; ++i) {
      iovecs_[i].iov_base = storage_.data() + i * slot_bytes_;
      iovecs_[i].iov_len = slot_bytes_;
      messages_[i].msg_iov = &iovecs_[i];
      messages_[i].msg_iovlen = 1;
      messages_[i].msg_control = controls_.data() + i * kControlBytes;
      messages_[i].msg_controllen = kControlBytes;
    }
  }

  ~UringReceiver() override {
    if (sq_ring_ != MAP_FAILED) ::munmap(sq_ring_, ring_bytes_);
    if (sqes_ != MAP_FAILED) ::munmap(sqes_, sqe_bytes_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  /// Sets up the ring; false when io_uring is unavailable here.
  [[nodiscard]] bool init() {
    io_uring_params params{};
    // Power-of-two SQ depth covering the batch.
    unsigned entries = 1;
    while (entries < batch_) entries <<= 1;
    ring_fd_ = sys_io_uring_setup(entries, &params);
    if (ring_fd_ < 0) return false;
    constexpr unsigned kNeeded = IORING_FEAT_SINGLE_MMAP | IORING_FEAT_EXT_ARG;
    if ((params.features & kNeeded) != kNeeded) return false;

    const std::size_t sq_bytes =
        params.sq_off.array + params.sq_entries * sizeof(std::uint32_t);
    const std::size_t cq_bytes =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    ring_bytes_ = std::max(sq_bytes, cq_bytes);
    sq_ring_ = ::mmap(nullptr, ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) return false;
    sqe_bytes_ = params.sq_entries * sizeof(io_uring_sqe);
    sqes_ = ::mmap(nullptr, sqe_bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQES);
    if (sqes_ == MAP_FAILED) return false;

    auto* base = static_cast<std::uint8_t*>(sq_ring_);
    sq_head_ = reinterpret_cast<std::uint32_t*>(base + params.sq_off.head);
    sq_tail_ = reinterpret_cast<std::uint32_t*>(base + params.sq_off.tail);
    sq_mask_ = *reinterpret_cast<std::uint32_t*>(base + params.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<std::uint32_t*>(base + params.sq_off.array);
    cq_head_ = reinterpret_cast<std::uint32_t*>(base + params.cq_off.head);
    cq_tail_ = reinterpret_cast<std::uint32_t*>(base + params.cq_off.tail);
    cq_mask_ = *reinterpret_cast<std::uint32_t*>(base + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<io_uring_cqe*>(base + params.cq_off.cqes);
    return true;
  }

  std::size_t recv_batch(std::span<RecvFrame> frames,
                         int timeout_ms) override {
    // Re-arm every slot harvested (or errored) last call, then submit.
    unsigned to_submit = 0;
    for (std::size_t slot = 0; slot < batch_; ++slot) {
      if (!needs_arm_[slot]) continue;
      arm_slot(slot);
      needs_arm_[slot] = false;
      ++to_submit;
    }
    if (completions_pending() == 0) {
      __kernel_timespec ts{};
      ts.tv_sec = timeout_ms / 1000;
      ts.tv_nsec = static_cast<long long>(timeout_ms % 1000) * 1'000'000;
      io_uring_getevents_arg arg{};
      arg.ts = reinterpret_cast<std::uint64_t>(&ts);
      const int rc = sys_io_uring_enter(
          ring_fd_, to_submit, /*min_complete=*/1,
          IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg, sizeof(arg));
      if (rc < 0 && errno != ETIME && errno != EINTR && errno != EBUSY) {
        throw NetioError(std::string("io_uring_enter: ") +
                         std::strerror(errno));
      }
    } else if (to_submit > 0) {
      // Completions already waiting: submit re-arms without sleeping.
      const int rc = sys_io_uring_enter(ring_fd_, to_submit, 0, 0, nullptr, 0);
      if (rc < 0 && errno != EINTR && errno != EBUSY) {
        throw NetioError(std::string("io_uring_enter(submit): ") +
                         std::strerror(errno));
      }
    }
    // Harvest whatever the completion ring holds, up to the frame window.
    std::size_t got = 0;
    std::uint32_t head = load_acquire(cq_head_);
    const std::uint32_t tail = load_acquire(cq_tail_);
    while (head != tail && got < frames.size()) {
      const io_uring_cqe& cqe = cqes_[head & cq_mask_];
      const auto slot = static_cast<std::size_t>(cqe.user_data);
      if (cqe.res >= 0 && slot < batch_) {
        RecvFrame& frame = frames[got++];
        const auto bytes = static_cast<std::size_t>(cqe.res);
        frame.truncated = bytes > slot_bytes_;
        if (frame.truncated) {
          // The armed slot stays staged for the re-arm.
          frame.data = nullptr;
          frame.size = 0;
          frame.slot.release();
        } else if (armed_[slot]) {
          // The kernel wrote straight into the pooled buffer this slot
          // pinned while armed; hand it off and re-acquire at re-arm.
          armed_[slot].set_size(bytes);
          frame.data = armed_[slot].data();
          frame.size = bytes;
          frame.slot = std::move(armed_[slot]);
        } else {
          frame.data = storage_.data() + slot * slot_bytes_;
          frame.size = bytes;
          frame.slot.release();
        }
        note_drop_counter(messages_[slot]);
      }
      if (slot < batch_) needs_arm_[slot] = true;
      ++head;
      store_release(cq_head_, head);
    }
    return got;
  }

  [[nodiscard]] std::uint64_t kernel_drops() const noexcept override {
    return kernel_drops_;
  }

  [[nodiscard]] const char* backend_name() const noexcept override {
    return "io_uring";
  }

 private:
  static constexpr std::size_t kControlBytes = 64;

  [[nodiscard]] std::uint32_t completions_pending() const noexcept {
    return load_acquire(cq_tail_) - load_acquire(cq_head_);
  }

  void arm_slot(std::size_t slot) noexcept {
    // Reset the lengths RECVMSG completion shrank, and stage a pooled
    // buffer when available — it stays pinned (owned by armed_[slot])
    // until the completion hands it off, so the kernel never writes into
    // a recycled buffer. Dry pool: scratch storage for this arming.
    if (!armed_[slot]) {
      armed_[slot] = pool_->try_acquire();
    }
    if (armed_[slot]) {
      iovecs_[slot].iov_base = armed_[slot].data();
      iovecs_[slot].iov_len = armed_[slot].capacity();
    } else {
      iovecs_[slot].iov_base = storage_.data() + slot * slot_bytes_;
      iovecs_[slot].iov_len = slot_bytes_;
    }
    messages_[slot].msg_iov = &iovecs_[slot];
    messages_[slot].msg_iovlen = 1;
    messages_[slot].msg_controllen = kControlBytes;
    const std::uint32_t tail = load_acquire(sq_tail_);
    const std::uint32_t index = tail & sq_mask_;
    auto* sqe = static_cast<io_uring_sqe*>(sqes_) + index;
    std::memset(sqe, 0, sizeof(*sqe));
    sqe->opcode = IORING_OP_RECVMSG;
    sqe->fd = socket_.fd();
    sqe->addr = reinterpret_cast<std::uint64_t>(&messages_[slot]);
    // The completion then carries the datagram's real length, so one
    // longer than its buffer shows up instead of being silently cut.
    sqe->msg_flags = MSG_TRUNC;
    sqe->user_data = slot;
    sq_array_[index] = index;
    store_release(sq_tail_, tail + 1);
  }

  void note_drop_counter(msghdr& hdr) noexcept {
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&hdr); cmsg != nullptr;
         cmsg = CMSG_NXTHDR(&hdr, cmsg)) {
      if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SO_RXQ_OVFL) {
        std::uint32_t dropped = 0;
        std::memcpy(&dropped, CMSG_DATA(cmsg), sizeof(dropped));
        kernel_drops_ = dropped;
      }
    }
  }

  UdpSocket& socket_;
  std::size_t batch_;
  std::size_t slot_bytes_;
  runtime::WireBufferPool* pool_;
  std::vector<std::uint8_t> storage_;
  std::vector<std::uint8_t> controls_;
  std::vector<iovec> iovecs_;
  std::vector<msghdr> messages_;
  std::vector<runtime::WireSlot> armed_;  ///< buffer pinned while armed
  std::vector<bool> needs_arm_;

  int ring_fd_ = -1;
  void* sq_ring_ = MAP_FAILED;
  void* sqes_ = MAP_FAILED;
  std::size_t ring_bytes_ = 0;
  std::size_t sqe_bytes_ = 0;
  std::uint32_t* sq_head_ = nullptr;
  std::uint32_t* sq_tail_ = nullptr;
  std::uint32_t sq_mask_ = 0;
  std::uint32_t* sq_array_ = nullptr;
  std::uint32_t* cq_head_ = nullptr;
  std::uint32_t* cq_tail_ = nullptr;
  std::uint32_t cq_mask_ = 0;
  io_uring_cqe* cqes_ = nullptr;
  std::uint64_t kernel_drops_ = 0;
};

}  // namespace

std::unique_ptr<BatchReceiver> make_uring_receiver(
    UdpSocket& socket, std::size_t batch_msgs, runtime::WireBufferPool* pool) {
  auto receiver = std::make_unique<UringReceiver>(socket, batch_msgs, pool);
  if (!receiver->init()) return nullptr;
  return receiver;
}

}  // namespace scrubber::netio

#endif  // SCRUBBER_IO_URING
