#include "pm/pool.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

#include "pm/fault.h"
#include "pm/persist.h"
#include "pm/reclaim.h"

namespace fastfair::pm {

namespace {
constexpr std::uint64_t kMagic = 0xfa57fa1243ull;  // "fastfair" pool, v2 layout
constexpr std::size_t kNoSpace = static_cast<std::size_t>(-1);
constexpr std::size_t kArenaChunk = std::size_t{1} << 20;  // 1 MiB
constexpr std::size_t kMinChunk = 4096;  // below this, arenas are off

// Free-list size classes: class c holds blocks of size [2^c, 2^(c+1)).
// Freed blocks are binned by floor(log2(size)); an allocation first looks
// up ceil(log2(size)) — any block there is large enough — and then its own
// floor class, where per-block sizes decide (limbo and the caches carry
// the size; blocks on a global list store it in their second word, except
// the 8-byte class whose blocks are exactly 8 bytes). Without the floor
// probe, a non-power-of-2 size could never be recycled by same-size churn
// (e.g. WORT's 136-byte nodes: freed into [128,256) but requested from
// [256,512)). Blocks smaller than 8 bytes (no room for the next link) or
// larger than 1 MiB are not recycled.
constexpr int kMinClass = 3;   // 8 B (one next-link word)
constexpr int kMaxClass = 20;  // 1 MiB
constexpr int kNumClasses = kMaxClass - kMinClass + 1;
constexpr std::size_t kMinRecycle = std::size_t{1} << kMinClass;

// Free-list heads pack a 16-bit ABA tag above a 48-bit pool offset.
constexpr std::uint64_t kOffsetMask = (std::uint64_t{1} << 48) - 1;

int FloorClass(std::size_t size) {
  return 63 - __builtin_clzll(static_cast<unsigned long long>(size));
}
int CeilClass(std::size_t size) {
  return size <= kMinRecycle
             ? kMinClass
             : 64 - __builtin_clzll(static_cast<unsigned long long>(size - 1));
}

// Process-unique pool ids: an arena slot stamped with a dead pool's id can
// never be revived by a new Pool constructed at the same address.
std::atomic<std::uint64_t> g_next_pool_id{1};

// Thread-local arena cache. A few slots so a thread alternating between
// pools (common in tests and benches that build one index per pool) keeps
// its partially-used chunks instead of abandoning them on every switch.
struct ArenaSlot {
  std::uint64_t pool_id = 0;
  std::uint64_t epoch = 0;
  char* cur = nullptr;
  char* end = nullptr;
};
constexpr int kArenaSlots = 4;
thread_local ArenaSlot t_arenas[kArenaSlots];

char* AlignPtrUp(char* p, std::size_t align) {
  return reinterpret_cast<char*>(
      AlignUp(reinterpret_cast<std::uintptr_t>(p), align));
}

// Transient OS failure during open/reopen: retryable, not a damaged file.
[[noreturn]] void ThrowIo(const char* op, const std::string& path) {
  const int err = errno;
  throw PoolError(PoolError::Kind::kIo,
                  std::string(op) + " failed for pool file '" + path + "': " +
                      std::generic_category().message(err) +
                      " (transient OS error; check path, permissions, and "
                      "free space, then retry)");
}
}  // namespace

// The header occupies the first cache line(s) of the mapping so that the bump
// offset, root pointer, and free-list heads persist with the data they
// describe.
struct Pool::Header {
  std::uint64_t magic;
  std::uint64_t capacity;
  std::atomic<std::uint64_t> used;      // bump offset (includes header)
  std::atomic<std::uint64_t> root;      // application root pointer
  std::atomic<std::uint64_t> freed;     // bytes passed to Free (monotonic)
  std::atomic<std::uint64_t> recycled;  // bytes served from free lists
  // Per-size-class free lists threaded through the blocks themselves:
  // {tag:16 | offset:48} head; each block's first 8 bytes hold the next
  // offset. Persistent in file-backed pools.
  std::atomic<std::uint64_t> free_heads[kNumClasses];

  static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
};

// Thread-local reclamation state for one pool: the limbo list of
// epoch-stamped deferred frees plus per-size-class caches of recyclable
// blocks. All fields are thread-private; only batch spill/refill touches
// the shared per-class lists.
struct Pool::ReclaimSlot {
  static constexpr int kLimboCap = 64;
  static constexpr int kDrainAt = 32;  // attempt a drain past this depth
  static constexpr int kCacheCap = 16;
  static constexpr int kRefillBatch = 8;

  std::uint64_t pool_id = 0;
  std::uint64_t epoch = 0;  // pool reset epoch at claim time

  struct LimboEntry {
    std::uint64_t off;
    std::uint32_t size;
    std::uint64_t stamp;
  };
  LimboEntry limbo[kLimboCap];
  int limbo_n = 0;

  struct CacheEntry {
    std::uint64_t off;
    std::uint32_t size;
  };
  CacheEntry cache[kNumClasses][kCacheCap];
  std::uint8_t cache_n[kNumClasses] = {};

  int total() const {
    int t = limbo_n;
    for (int c = 0; c < kNumClasses; ++c) t += cache_n[c];
    return t;
  }
};

thread_local Pool::ReclaimSlot Pool::t_reclaim[Pool::kReclaimSlots];

Pool::Pool(const Options& opts)
    : capacity_(opts.capacity),
      id_(g_next_pool_id.fetch_add(1, std::memory_order_relaxed)) {
  if (capacity_ < AlignUp(sizeof(Header), kCacheLineSize) + kCacheLineSize) {
    // The header (bump offset, root, free-list heads) plus room for at
    // least one cache line of payload.
    throw std::invalid_argument("pool capacity too small");
  }
  // Arenas make sense only when the pool comfortably fits several chunks;
  // otherwise fall back to the exact direct path (tiny test pools).
  chunk_size_ = kArenaChunk;
  if (chunk_size_ > capacity_ / 8) chunk_size_ = capacity_ / 8;
  chunk_size_ &= ~(kCacheLineSize - 1);
  if (chunk_size_ < kMinChunk) chunk_size_ = 0;
  if (opts.file_path.empty()) {
    base_ = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base_ == MAP_FAILED) ThrowIo("mmap", "<anonymous>");
  } else {
    file_backed_ = true;
    fd_ = ::open(opts.file_path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) ThrowIo("open", opts.file_path);
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      ThrowIo("fstat", opts.file_path);
    }
    // Validate before the ftruncate below mutates the file: a clean pool
    // file is always extended to its full capacity at creation, so any
    // shorter non-empty file was cut down after the fact — and re-extending
    // it would fill the lost tail with zero holes and make the damage
    // undetectable on the next open.
    const auto disk_size = static_cast<std::size_t>(st.st_size);
    const bool existing = disk_size >= sizeof(Header);
    if (st.st_size != 0 && !existing) {
      ::close(fd_);
      throw PoolError(
          PoolError::Kind::kCorrupt,
          "pool file '" + opts.file_path + "' is truncated mid-header (" +
              std::to_string(disk_size) + " bytes, header needs " +
              std::to_string(sizeof(Header)) +
              "); restore it from a backup or delete it to start fresh");
    }
    if (existing) {
      std::uint64_t probe[2] = {0, 0};  // {magic, capacity}
      if (::pread(fd_, probe, sizeof(probe), 0) !=
          static_cast<ssize_t>(sizeof(probe))) {
        ::close(fd_);
        ThrowIo("pread(header)", opts.file_path);
      }
      // A zero magic is a crash before the first header persist: format
      // it. Any other foreign magic is someone else's file — refuse before
      // the ftruncate and header writes below destroy its contents.
      if (probe[0] != 0 && probe[0] != kMagic) {
        ::close(fd_);
        throw PoolError(PoolError::Kind::kCorrupt,
                        "file '" + opts.file_path +
                            "' exists but is not a fastfair pool (bad header "
                            "magic); delete it or choose another path");
      }
      if (probe[0] == kMagic) {
        if (probe[1] != capacity_) {
          ::close(fd_);
          throw PoolError(
              PoolError::Kind::kIncompatible,
              "pool file '" + opts.file_path +
                  "' was created with capacity " + std::to_string(probe[1]) +
                  " but reopened with " + std::to_string(capacity_) +
                  "; reopen with the original capacity");
        }
        if (disk_size < capacity_) {
          ::close(fd_);
          throw PoolError(
              PoolError::Kind::kCorrupt,
              "pool file '" + opts.file_path + "' is truncated (" +
                  std::to_string(disk_size) + " of " +
                  std::to_string(capacity_) +
                  " bytes on disk); restore it from a backup or delete it "
                  "to start fresh");
        }
      }
    }
    if (disk_size < capacity_ &&
        ::ftruncate(fd_, static_cast<off_t>(capacity_)) != 0) {
      ::close(fd_);
      ThrowIo("ftruncate", opts.file_path);
    }
    // Stored pointers require a stable mapping address across restarts.
    base_ = ::mmap(reinterpret_cast<void*>(opts.fixed_base), capacity_,
                   PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED_NOREPLACE,
                   fd_, 0);
    if (base_ == MAP_FAILED) {
      ::close(fd_);
      ThrowIo("mmap(fixed base)", opts.file_path);
    }
    if (existing && header()->magic == kMagic) {
      // Capacity and on-disk size were validated against the header probe
      // above, before the ftruncate could mask anything.
      reopened_ = true;
      // Recovered: keep used/root as persisted. The free lists were
      // flushed in push/pop order, but a crash may still have torn a push:
      // walk each list and truncate at the first entry that cannot be a
      // block.
      SanitizeFreeLists();
      return;
    }
  }
  auto* h = header();
  h->magic = kMagic;
  h->capacity = capacity_;
  h->used.store(AlignUp(sizeof(Header), kCacheLineSize),
                std::memory_order_relaxed);
  h->root.store(0, std::memory_order_relaxed);
  h->freed.store(0, std::memory_order_relaxed);
  h->recycled.store(0, std::memory_order_relaxed);
  for (auto& fh : h->free_heads) fh.store(0, std::memory_order_relaxed);
  Persist(h, sizeof(Header));
}

Pool::~Pool() {
  // Release this thread's cached chunk so the slot does not sit "fresh but
  // dead" and block eviction (id uniqueness already protects correctness;
  // slots cached by *other* threads age out via the eviction guard's
  // half-used threshold or stay as a harmless direct-path fallback).
  for (auto& s : t_arenas) {
    if (s.pool_id == id_) s = ArenaSlot{};
  }
  // Same for this thread's reclaim slot; other threads' slots for this pool
  // die by id mismatch (their parked blocks vanish with the mapping).
  for (auto& s : t_reclaim) {
    if (s.pool_id == id_) s = ReclaimSlot{};
  }
  if (base_ != nullptr && base_ != MAP_FAILED) {
    if (file_backed_) ::msync(base_, capacity_, MS_SYNC);
    ::munmap(base_, capacity_);
  }
  if (fd_ >= 0) ::close(fd_);
}

Pool::Header* Pool::header() const { return static_cast<Header*>(base_); }

std::size_t Pool::ReserveGlobal(std::size_t size, std::size_t align,
                                bool nothrow) {
  auto* h = header();
  std::uint64_t cur = h->used.load(std::memory_order_relaxed);
  std::uint64_t start, next;
  do {
    start = AlignUp(cur, align);
    next = start + size;
    if (next > capacity_) {
      if (nothrow) return kNoSpace;
      throw std::bad_alloc();
    }
  } while (!h->used.compare_exchange_weak(cur, next,
                                          std::memory_order_relaxed));
  if (file_backed_) {
    // Persist the bump offset at reservation granularity: after a crash the
    // allocator resumes past every byte any thread may have handed out.
    Clflush(&h->used);
  }
  return start;
}

void* Pool::ArenaAlloc(std::size_t size, std::size_t align) {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  ArenaSlot* slot = nullptr;
  for (auto& s : t_arenas) {
    if (s.pool_id == id_) {
      slot = &s;
      break;
    }
  }
  if (slot != nullptr && slot->epoch == epoch) {
    char* p = AlignPtrUp(slot->cur, align);
    if (p + size <= slot->end) {
      slot->cur = p + size;
      return p;
    }
  }
  if (slot == nullptr) {
    // Evict the slot wasting the least (fewest bytes left in its chunk;
    // empty slots have zero). If even that victim is mostly unused, this
    // thread is thrashing across more live pools than there are slots —
    // serve the request from the direct path instead of abandoning a
    // nearly-fresh chunk per call, which bounds eviction waste at half a
    // chunk instead of leaving it unbounded.
    slot = &t_arenas[0];
    for (auto& s : t_arenas) {
      if (s.end - s.cur < slot->end - slot->cur) slot = &s;
    }
    if (static_cast<std::size_t>(slot->end - slot->cur) > chunk_size_ / 2) {
      return nullptr;
    }
  }
  // Refill: one CAS on the global offset reserves a whole chunk. On a full
  // pool fall back to the direct path, which can still satisfy requests
  // smaller than a chunk from the remaining tail.
  const std::size_t off = ReserveGlobal(chunk_size_, kCacheLineSize, true);
  if (off == kNoSpace) return nullptr;
  // The abandoned tail of the previous chunk (if any) stays unreferenced;
  // that waste is the price of contention-free allocation.
  slot->pool_id = id_;
  slot->epoch = epoch;
  slot->cur = static_cast<char*>(base_) + off;
  slot->end = slot->cur + chunk_size_;
  Stats().arena_refills += 1;
  char* p = AlignPtrUp(slot->cur, align);  // fits: size + align <= chunk
  slot->cur = p + size;
  return p;
}

// --- free-list reclaimer -----------------------------------------------------

Pool::ReclaimSlot* Pool::ReclaimFor(bool create) {
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  for (auto& s : t_reclaim) {
    if (s.pool_id == id_) {
      if (s.epoch != epoch) s = ReclaimSlot{};  // Reset(): parked blocks died
      if (s.pool_id == 0) {
        s.pool_id = id_;
        s.epoch = epoch;
      }
      return &s;
    }
  }
  if (!create) return nullptr;
  // Evict the emptiest slot. Its parked blocks belong to another pool we
  // cannot reach from here, so they leak — bounded by the slot capacity and
  // only when a thread interleaves frees across more pools than slots.
  ReclaimSlot* victim = &t_reclaim[0];
  for (auto& s : t_reclaim) {
    if (s.total() < victim->total()) victim = &s;
  }
  *victim = ReclaimSlot{};
  victim->pool_id = id_;
  victim->epoch = epoch;
  return victim;
}

void Pool::PushGlobal(int cls, std::uint64_t off, std::uint32_t size) {
  auto& head = header()->free_heads[cls];
  auto* words =
      reinterpret_cast<std::uint64_t*>(static_cast<char*>(base_) + off);
  // Blocks above the 8-byte class carry their exact size in the second
  // word (the 8-byte class is exactly 8 bytes). atomic_ref: a concurrent
  // PopGlobal reads these words while we store them (the ABA tag makes the
  // value it reads irrelevant on a lost race, but the access must still be
  // data-race-free).
  if (cls > 0) {
    std::atomic_ref<std::uint64_t>(words[1]).store(
        size, std::memory_order_relaxed);
  }
  std::uint64_t h = head.load(std::memory_order_acquire);
  for (;;) {
    std::atomic_ref<std::uint64_t>(words[0]).store(h & kOffsetMask,
                                                   std::memory_order_relaxed);
    if (file_backed_) {
      // The next link (and size) must be durable before the head can
      // expose the block: recovery walks head -> next and must never read
      // a torn link as a list entry, nor an unwritten size word as a block
      // size (SanitizeFreeLists still truncates defectively-linked lists
      // defensively). An 8-aligned block at offset 56 mod 64 straddles a
      // line boundary, so flush the size word's line too when it differs.
      Clflush(words);
      if (cls > 0 && reinterpret_cast<std::uintptr_t>(&words[1]) /
                             kCacheLineSize !=
                         reinterpret_cast<std::uintptr_t>(&words[0]) /
                             kCacheLineSize) {
        Clflush(&words[1]);
      }
      Sfence();
    }
    const std::uint64_t tagged = ((h >> 48) + 1) << 48 | off;
    if (head.compare_exchange_weak(h, tagged, std::memory_order_release,
                                   std::memory_order_acquire)) {
      return;
    }
  }
}

std::uint64_t Pool::PopGlobal(int cls, std::uint32_t* size) {
  auto& head = header()->free_heads[cls];
  std::uint64_t h = head.load(std::memory_order_acquire);
  for (;;) {
    const std::uint64_t off = h & kOffsetMask;
    if (off == 0) return 0;
    const auto* words = reinterpret_cast<const std::uint64_t*>(
        static_cast<const char*>(base_) + off);
    const std::uint64_t next =
        std::atomic_ref<const std::uint64_t>(words[0])
            .load(std::memory_order_relaxed);
    // The 16-bit tag makes the CAS fail if another thread popped and
    // re-pushed this block in between (ABA).
    const std::uint64_t tagged = ((h >> 48) + 1) << 48 | (next & kOffsetMask);
    if (head.compare_exchange_weak(h, tagged, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      std::uint64_t s =
          cls == 0 ? kMinRecycle
                   : std::atomic_ref<const std::uint64_t>(words[1])
                         .load(std::memory_order_relaxed);
      // A torn or corrupted size can only shrink the block's usable span:
      // clamp into the class, whose lower bound is always safe.
      const std::size_t lo = std::size_t{1} << (cls + kMinClass);
      if (s < lo || s >= 2 * lo) s = lo;
      *size = static_cast<std::uint32_t>(s);
      return off;
    }
  }
}

void Pool::CachePut(ReclaimSlot* slot, int cls, std::uint64_t off,
                    std::uint32_t size) {
  if (slot->cache_n[cls] == ReclaimSlot::kCacheCap) {
    // Spill the older half to the shared per-class list in one batch.
    Stats().freelist_spills += 1;
    const int keep = ReclaimSlot::kCacheCap / 2;
    for (int i = 0; i < keep; ++i) {
      PushGlobal(cls, slot->cache[cls][i].off, slot->cache[cls][i].size);
    }
    for (int i = keep; i < ReclaimSlot::kCacheCap; ++i) {
      slot->cache[cls][i - keep] = slot->cache[cls][i];
    }
    slot->cache_n[cls] = static_cast<std::uint8_t>(
        ReclaimSlot::kCacheCap - keep);
    if (file_backed_) {
      Clflush(&header()->free_heads[cls]);
      Sfence();
    }
  }
  slot->cache[cls][slot->cache_n[cls]++] = {off, size};
}

void Pool::DrainLimbo(ReclaimSlot* slot) {
  if (slot->limbo_n == 0) return;
  // One scan of the pin slots bounds every entry in this batch.
  const std::uint64_t min_pinned = epoch::MinPinned();
  int kept = 0;
  for (int i = 0; i < slot->limbo_n; ++i) {
    const auto& e = slot->limbo[i];
    if (e.stamp < min_pinned) {
      CachePut(slot, FloorClass(e.size) - kMinClass, e.off, e.size);
    } else {
      slot->limbo[kept++] = slot->limbo[i];
    }
  }
  slot->limbo_n = kept;
}

void Pool::TryDrainOverflow() {
  // Fast path: Alloc misses probe this on pools that may never have had a
  // lagging reader; a relaxed load keeps them off the mutex cache line.
  if (overflow_n_.load(std::memory_order_relaxed) == 0) return;
  std::unique_lock<std::mutex> lk(overflow_mu_, std::try_to_lock);
  if (!lk.owns_lock() || overflow_limbo_.empty()) return;
  const std::uint64_t min_pinned = epoch::MinPinned();
  bool pushed[kNumClasses] = {};
  std::size_t kept = 0;
  for (auto& e : overflow_limbo_) {
    if (e.stamp < min_pinned) {
      const int cls = FloorClass(e.size) - kMinClass;
      PushGlobal(cls, e.off, e.size);
      pushed[cls] = true;
    } else {
      overflow_limbo_[kept++] = e;
    }
  }
  overflow_limbo_.resize(kept);
  overflow_n_.store(kept, std::memory_order_relaxed);
  if (file_backed_) {
    for (int c = 0; c < kNumClasses; ++c) {
      if (pushed[c]) Clflush(&header()->free_heads[c]);
    }
    Sfence();
  }
}

std::size_t Pool::DrainLimboQuantum(std::size_t max_blocks) {
  if (overflow_n_.load(std::memory_order_relaxed) == 0) return 0;
  std::unique_lock<std::mutex> lk(overflow_mu_, std::try_to_lock);
  if (!lk.owns_lock() || overflow_limbo_.empty()) return 0;
  const std::uint64_t min_pinned = epoch::MinPinned();
  bool pushed[kNumClasses] = {};
  std::size_t bytes = 0;
  std::size_t moved = 0;
  std::size_t kept = 0;
  for (auto& e : overflow_limbo_) {
    if (moved < max_blocks && e.stamp < min_pinned) {
      const int cls = FloorClass(e.size) - kMinClass;
      PushGlobal(cls, e.off, e.size);
      pushed[cls] = true;
      bytes += e.size;
      ++moved;
    } else {
      overflow_limbo_[kept++] = e;
    }
  }
  overflow_limbo_.resize(kept);
  overflow_n_.store(kept, std::memory_order_relaxed);
  if (file_backed_) {
    for (int c = 0; c < kNumClasses; ++c) {
      if (pushed[c]) Clflush(&header()->free_heads[c]);
    }
    Sfence();
  }
  return bytes;
}

std::size_t Pool::FlushThreadLimbo() {
  ReclaimSlot* slot = ReclaimFor(false);
  if (slot == nullptr) return 0;
  std::size_t bytes = 0;
  // Spill the per-class caches first: those blocks are already recyclable,
  // they just sit where only this thread's Alloc would find them.
  bool pushed[kNumClasses] = {};
  for (int c = 0; c < kNumClasses; ++c) {
    for (int i = 0; i < slot->cache_n[c]; ++i) {
      PushGlobal(c, slot->cache[c][i].off, slot->cache[c][i].size);
      bytes += slot->cache[c][i].size;
      pushed[c] = true;
    }
    slot->cache_n[c] = 0;
  }
  if (file_backed_) {
    for (int c = 0; c < kNumClasses; ++c) {
      if (pushed[c]) Clflush(&header()->free_heads[c]);
    }
    Sfence();
  }
  // Park the limbo entries — stamps intact, the epoch deferral still
  // applies — in the pool-level overflow list, where DrainLimboQuantum
  // (maintenance) or any foreground allocation miss can finish the job.
  if (slot->limbo_n != 0) {
    try {
      std::lock_guard<std::mutex> lk(overflow_mu_);
      overflow_limbo_.reserve(overflow_limbo_.size() +
                              static_cast<std::size_t>(slot->limbo_n));
      for (int i = 0; i < slot->limbo_n; ++i) {
        overflow_limbo_.push_back(
            {slot->limbo[i].off, slot->limbo[i].size, slot->limbo[i].stamp});
        bytes += slot->limbo[i].size;
      }
      overflow_n_.store(overflow_limbo_.size(), std::memory_order_relaxed);
      slot->limbo_n = 0;
    } catch (...) {
      // DRAM heap failure: the entries stay in the thread-local limbo, the
      // same bounded deferral they were in before the call.
    }
  }
  return bytes;
}

std::size_t Pool::limbo_bytes() const {
  std::lock_guard<std::mutex> lk(overflow_mu_);
  std::size_t bytes = 0;
  for (const auto& e : overflow_limbo_) bytes += e.size;
  return bytes;
}

void* Pool::TryRecycle(std::size_t size, std::size_t align) {
  if (size < kMinRecycle || align > kCacheLineSize) return nullptr;
  const int c_hi = CeilClass(size) - kMinClass;
  if (c_hi >= kNumClasses) return nullptr;
  // Every block in c_hi fits by construction; the request's own floor
  // class may also hold big-enough blocks (non-power-of-2 same-size churn
  // lands there), decided per entry by the carried size.
  const int c_lo = FloorClass(size) - kMinClass;
  ReclaimSlot* slot = ReclaimFor(true);
  auto pick = [&](int cls) -> void* {
    for (int i = slot->cache_n[cls] - 1; i >= 0; --i) {
      const auto& e = slot->cache[cls][i];
      if (e.off % align != 0) continue;  // freed with a smaller alignment
      if (e.size < size) continue;       // floor-class entry too small
      const std::uint64_t off = e.off;
      slot->cache[cls][i] = slot->cache[cls][--slot->cache_n[cls]];
      return static_cast<char*>(base_) + off;
    }
    return nullptr;
  };
  auto refill = [&](int cls) {
    int got = 0;
    for (int i = 0; i < ReclaimSlot::kRefillBatch &&
                    slot->cache_n[cls] < ReclaimSlot::kCacheCap;
         ++i) {
      std::uint32_t bsize = 0;
      const std::uint64_t off = PopGlobal(cls, &bsize);
      if (off == 0) {
        if (got == 0 && i == 0) {
          TryDrainOverflow();
          continue;  // one more attempt after the overflow drain
        }
        break;
      }
      slot->cache[cls][slot->cache_n[cls]++] = {off, bsize};
      ++got;
    }
    if (got != 0) {
      Stats().freelist_refills += 1;
      if (file_backed_) {
        // The pops must be durable before any popped block is handed out:
        // otherwise a crash could leave the head pointing at a block whose
        // new (persisted) contents are already reachable elsewhere.
        Clflush(&header()->free_heads[cls]);
        Sfence();
      }
    }
    return got;
  };
  void* p = pick(c_hi);
  if (p == nullptr && c_lo != c_hi) p = pick(c_lo);
  if (p == nullptr && slot->limbo_n != 0) {
    DrainLimbo(slot);
    p = pick(c_hi);
    if (p == nullptr && c_lo != c_hi) p = pick(c_lo);
  }
  if (p == nullptr && refill(c_hi) != 0) p = pick(c_hi);
  if (p == nullptr && c_lo != c_hi && refill(c_lo) != 0) p = pick(c_lo);
  if (p != nullptr) {
    auto& stats = Stats();
    stats.recycles += 1;
    stats.recycle_bytes += size;
    header()->recycled.fetch_add(size, std::memory_order_relaxed);
  }
  return p;
}

void Pool::SanitizeFreeLists() {
  auto* h = header();
  const std::uint64_t used_now = h->used.load(std::memory_order_relaxed);
  const std::uint64_t lo = AlignUp(sizeof(Header), kCacheLineSize);
  for (int c = 0; c < kNumClasses; ++c) {
    const std::size_t block = std::size_t{1} << (c + kMinClass);
    std::size_t walked = 0;
    std::uint64_t* prev_link = nullptr;  // in-block link of the previous node
    std::uint64_t off = h->free_heads[c].load(std::memory_order_relaxed) &
                        kOffsetMask;
    while (off != 0) {
      const bool valid = off % 8 == 0 && off >= lo &&
                         off + block <= used_now &&
                         ++walked <= capacity_ / kMinRecycle;
      if (!valid) {
        // Torn push (or garbage): truncate the list here.
        if (prev_link == nullptr) {
          h->free_heads[c].store(0, std::memory_order_relaxed);
          Clflush(&h->free_heads[c]);
        } else {
          *prev_link = 0;
          Clflush(prev_link);
        }
        Sfence();
        break;
      }
      prev_link =
          reinterpret_cast<std::uint64_t*>(static_cast<char*>(base_) + off);
      off = *prev_link & kOffsetMask;
    }
  }
}

void Pool::AuditFreeLists(std::vector<std::string>* errors,
                          std::uint64_t* blocks, std::uint64_t* bytes) const {
  const auto* h = header();
  const std::uint64_t used_now = h->used.load(std::memory_order_relaxed);
  const std::uint64_t lo = AlignUp(sizeof(Header), kCacheLineSize);
  for (int c = 0; c < kNumClasses; ++c) {
    const std::size_t block = std::size_t{1} << (c + kMinClass);
    std::size_t walked = 0;
    std::uint64_t off = h->free_heads[c].load(std::memory_order_relaxed) &
                        kOffsetMask;
    while (off != 0) {
      if (off % 8 != 0 || off < lo || off + block > used_now) {
        errors->push_back("free list class " + std::to_string(c + kMinClass) +
                          ": entry at offset " + std::to_string(off) +
                          " is misaligned or outside the allocated region " +
                          "(torn push?)");
        break;
      }
      if (++walked > capacity_ / kMinRecycle) {
        errors->push_back("free list class " + std::to_string(c + kMinClass) +
                          ": cycle detected (walked past every block the "
                          "pool could hold)");
        break;
      }
      const auto* words = reinterpret_cast<const std::uint64_t*>(
          static_cast<const char*>(base_) + off);
      std::uint64_t size = c == 0 ? kMinRecycle : words[1];
      if (c != 0 && (size < block || size >= 2 * block)) {
        errors->push_back(
            "free list class " + std::to_string(c + kMinClass) +
            ": block at offset " + std::to_string(off) + " carries size " +
            std::to_string(size) + " outside [" + std::to_string(block) +
            ", " + std::to_string(2 * block) + ") (torn size word)");
        size = block;  // the clamp PopGlobal would apply
      }
      ++*blocks;
      *bytes += size;
      off = words[0] & kOffsetMask;
    }
  }
}

std::size_t Pool::header_bytes() const {
  return AlignUp(sizeof(Header), kCacheLineSize);
}

// --- public allocation interface ---------------------------------------------

void* Pool::Alloc(std::size_t size, std::size_t align) {
  void* p = TryAlloc(size, align);
  if (FASTFAIR_UNLIKELY(p == nullptr)) throw std::bad_alloc();
  return p;
}

void* Pool::TryAlloc(std::size_t size, std::size_t align) {
  if (align < 8) align = 8;
  // Deterministic fault injection (pm/fault.h): one relaxed load when
  // disarmed. An injected failure is indistinguishable from exhaustion to
  // every caller, which is the point.
  if (FASTFAIR_UNLIKELY(FaultInjector::Armed()) &&
      FaultInjector::Instance().ShouldFailAlloc()) {
    return nullptr;
  }
  // Recycled blocks first: a free-list hit costs no pool-shared writes and
  // keeps used() flat under delete churn.
  void* p = TryRecycle(size, align);
  if (p == nullptr) {
    // Small blocks go through the per-thread arena; large ones (or any block
    // when arenas are disabled) reserve directly from the global offset.
    if (chunk_size_ != 0 && size <= chunk_size_ / 2 &&
        align <= chunk_size_ / 2) {
      p = ArenaAlloc(size, align);
    }
    if (p == nullptr) {
      const std::size_t off = ReserveGlobal(size, align, true);
      if (off == kNoSpace) return nullptr;
      p = static_cast<char*>(base_) + off;
    }
  }
  auto& stats = Stats();
  stats.allocs += 1;
  stats.alloc_bytes += size;
  if (hook_ != nullptr) hook_(hook_ctx_, p, size);
  return p;
}

void Pool::Free(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  // One shared atomic, not an arena-local counter: a block is routinely
  // freed by a thread other than the one whose arena allocated it, and
  // per-thread freed tallies would silently drop those bytes when the
  // freeing thread exits. ThreadStats records the per-thread view.
  header()->freed.fetch_add(size, std::memory_order_relaxed);
  auto& stats = Stats();
  stats.frees += 1;
  stats.free_bytes += size;
  if (free_hook_ != nullptr) free_hook_(free_hook_ctx_, p, size);
  // Reclaim eligibility: enough room for the next link, a known size class,
  // and a sane address. Ineligible blocks are accounted and abandoned (the
  // pre-reclaimer behaviour).
  if (size < kMinRecycle || FloorClass(size) > kMaxClass || !Contains(p) ||
      reinterpret_cast<std::uintptr_t>(p) % 8 != 0) {
    return;
  }
  ReclaimSlot* slot = ReclaimFor(true);
  if (slot->limbo_n == ReclaimSlot::kLimboCap) {
    epoch::TryAdvance();
    DrainLimbo(slot);
  }
  if (slot->limbo_n == ReclaimSlot::kLimboCap) {
    // A lagging reader pins every entry. Park the batch in the pool-level
    // overflow list (cold path, mutexed) so the hot path never drops a
    // block of a live pool. noexcept: if the DRAM heap cannot take the
    // batch, dropping it is a bounded leak, not a crash.
    try {
      std::lock_guard<std::mutex> lk(overflow_mu_);
      overflow_limbo_.reserve(overflow_limbo_.size() +
                              static_cast<std::size_t>(slot->limbo_n));
      for (int i = 0; i < slot->limbo_n; ++i) {
        overflow_limbo_.push_back(
            {slot->limbo[i].off, slot->limbo[i].size, slot->limbo[i].stamp});
      }
      overflow_n_.store(overflow_limbo_.size(), std::memory_order_relaxed);
    } catch (...) {
    }
    slot->limbo_n = 0;
  }
  // StoreLoad order the epoch stamp after the caller's unlink store: the
  // reclamation safety argument (pm/reclaim.h) needs "reader pinned at an
  // epoch > stamp implies it pinned after the unlink was visible", and on
  // x86 a plain store (the unlink) may otherwise be overtaken by this
  // load of the epoch.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const auto off = static_cast<std::uint64_t>(static_cast<char*>(p) -
                                              static_cast<char*>(base_));
  slot->limbo[slot->limbo_n++] = {off, static_cast<std::uint32_t>(size),
                                  epoch::Current()};
  if (slot->limbo_n >= ReclaimSlot::kDrainAt && (slot->limbo_n & 7) == 0) {
    epoch::TryAdvance();
    DrainLimbo(slot);
  }
}

void Pool::SetRoot(const void* p) {
  auto* h = header();
  h->root.store(reinterpret_cast<std::uint64_t>(p),
                std::memory_order_release);
  Persist(&h->root, sizeof(h->root));
}

void* Pool::GetRoot() const {
  return reinterpret_cast<void*>(
      header()->root.load(std::memory_order_acquire));
}

std::size_t Pool::used() const {
  return header()->used.load(std::memory_order_relaxed);
}

std::size_t Pool::freed_bytes() const {
  return header()->freed.load(std::memory_order_relaxed);
}

std::size_t Pool::recycled_bytes() const {
  return header()->recycled.load(std::memory_order_relaxed);
}

void Pool::Reset() {
  auto* h = header();
  // Invalidate every thread's cached chunk and free cache before releasing
  // the space; a stale arena or parked block would otherwise keep handing
  // out memory past the reset offset. (Reset must still not race with
  // in-flight allocation.)
  epoch_.fetch_add(1, std::memory_order_relaxed);
  for (auto& s : t_arenas) {
    if (s.pool_id == id_) s = ArenaSlot{};  // free this thread's slot now
  }
  for (auto& s : t_reclaim) {
    if (s.pool_id == id_) s = ReclaimSlot{};
  }
  {
    std::lock_guard<std::mutex> lk(overflow_mu_);
    overflow_limbo_.clear();
    overflow_n_.store(0, std::memory_order_relaxed);
  }
  h->used.store(AlignUp(sizeof(Header), kCacheLineSize),
                std::memory_order_relaxed);
  h->root.store(0, std::memory_order_relaxed);
  h->freed.store(0, std::memory_order_relaxed);
  h->recycled.store(0, std::memory_order_relaxed);
  for (auto& fh : h->free_heads) fh.store(0, std::memory_order_relaxed);
  Persist(h, sizeof(Header));
}

}  // namespace fastfair::pm
