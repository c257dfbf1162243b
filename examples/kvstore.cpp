// kvstore: a durable key-value store that survives process restarts,
// served through the in-process KV service tier (DESIGN.md §10).
//
// This is the scenario the paper's introduction motivates: applications
// getting durability straight from byte-addressable PM, without a
// filesystem or block layer in the way. The pool is a file mapped at a
// fixed address; the tree's meta block is registered as the pool root, so
// a fresh process finds everything instantly — no log replay, no rebuild.
// On top of that sits a KvService: clients hold Sessions, submit requests
// with completion slots, and worker threads execute them through the
// batched index entry points; shutdown is graceful (Stop drains and
// executes everything admitted before the workers exit).
//
//   $ ./kvstore put alice 31
//   $ ./kvstore put bob 27
//   $ ./kvstore get alice        # -> 31 (from a brand-new process!)
//   $ ./kvstore del alice
//   $ ./kvstore list
//   $ ./kvstore demo             # scripted restart + collision demo
//
// Keys are strings hashed to a 32-bit slot (kept deliberately narrow so
// the demo can *find* a colliding pair by brute force); every slot holds a
// PM-resident chain of entries, so two strings sharing a hash are both
// retrievable — the paper-correct fix for what an earlier version of this
// example waved away as a 2^-64 risk.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/btree.h"
#include "index/index.h"
#include "pm/check.h"
#include "server/service.h"

namespace {

using namespace fastfair;

constexpr const char* kPoolPath = "/tmp/fastfair_kvstore.pm";
constexpr std::size_t kPoolSize = std::size_t{256} << 20;

// A PM record: chain link first (so collision chains survive restarts —
// the pool maps at a fixed address, raw pointers stay valid), then the
// value and the original key string (for listing and exact-match walks).
struct Entry {
  std::uint64_t next;  // Entry* of the next chain node; 0 = end
  std::uint64_t value;
  std::uint32_t key_len;
  char key[];  // flexible: allocated to fit
};

bool KeyMatches(const Entry* e, const std::string& s) {
  return e->key_len == s.size() &&
         std::memcmp(e->key, s.data(), s.size()) == 0;
}

const Entry* AsEntry(Value v) { return reinterpret_cast<const Entry*>(v); }
Entry* AsMutEntry(Value v) { return reinterpret_cast<Entry*>(v); }

Key HashKey(const std::string& s) {
  // FNV-1a folded to 32 bits: collisions are a *feature* here — the chain
  // handling below must cope, and the demo proves it does on a real pair.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return ((h ^ (h >> 32)) & 0xffffffffull) | 1;  // never 0
}

struct Store {
  pm::Pool pool;
  core::BTree* tree = nullptr;
  alignas(8) unsigned char tree_storage[sizeof(core::BTree)];

  Store()
      : pool([] {
          pm::Pool::Options o;
          o.capacity = kPoolSize;
          o.file_path = kPoolPath;  // file-backed: the allocator persists
          return o;
        }()) {
    if (pool.reopened()) {
      // Audit before trusting: the fsck walks the tree and the free lists
      // read-only, so a damaged pool is reported with the evidence intact
      // rather than silently attached (pm/check.h).
      const pm::CheckReport report = pm::CheckPool(&pool);
      std::printf("%s", report.ToString().c_str());
      if (!report.ok()) {
        std::printf("[kvstore] pool failed verification; refusing to "
                    "attach\n");
        throw std::runtime_error("pool verification failed");
      }
      auto* meta = static_cast<core::TreeMeta*>(pool.GetRoot());
      tree = ::new (tree_storage) core::BTree(&pool, meta);
      std::printf("[kvstore] recovered existing store (%zu slots)\n",
                  tree->CountEntries());
    } else {
      tree = ::new (tree_storage) core::BTree(&pool);
      pool.SetRoot(tree->meta());
      std::printf("[kvstore] created new store at %s\n", kPoolPath);
    }
  }
  ~Store() { std::destroy_at(tree); }
};

// The recovered tree exposed through the Index interface the service tier
// consumes: its four batch operations forward to the tree's pipelined ones.
class TreeIndex final : public Index {
 public:
  explicit TreeIndex(core::BTree* tree) : tree_(tree) {}
  void SearchBatch(const Key* keys, std::size_t n, Value* out) const override {
    tree_->SearchBatch(keys, n, out);
  }
  void InsertBatch(const core::Record* ops, std::size_t n,
                   InsertStatus* out) override {
    tree_->InsertBatch(ops, n, out);
  }
  void RemoveBatch(const Key* keys, std::size_t n, bool* out) override {
    for (std::size_t i = 0; i < n; ++i) out[i] = tree_->Remove(keys[i]);
  }
  void ScanBatch(const ScanOp* ops, std::size_t n,
                 std::size_t* out_counts) const override {
    tree_->ScanBatch(ops, n, out_counts);
  }
  std::string_view name() const override { return "kvstore-tree"; }
  bool supports_concurrency() const override { return true; }

 private:
  core::BTree* tree_;
};

// One client's view of the store: a session into the service plus the
// chain handling (the service indexes hash slots; chains live in PM).
class KvClient {
 public:
  KvClient(Store* store, server::Session* session)
      : store_(store), session_(session) {}

  /// Head of the chain for `hash`, or nullptr.
  Value SlotHead(Key hash) const {
    server::Completion c;
    session_->Get(hash, &c);
    return c.Wait() == server::ReqStatus::kOk ? c.value() : kNoValue;
  }

  void Put(const std::string& key, std::uint64_t value) {
    const Key h = HashKey(key);
    const Value head = SlotHead(h);
    for (Entry* e = AsMutEntry(head); e != nullptr;
         e = AsMutEntry(e->next)) {
      if (KeyMatches(e, key)) {  // in-place update, one durable 8-byte store
        e->value = value;
        pm::Persist(&e->value, sizeof(e->value));
        return;
      }
    }
    auto* e = static_cast<Entry*>(
        store_->pool.Alloc(sizeof(Entry) + key.size(), 8));
    e->next = head == kNoValue ? 0 : head;
    e->value = value;
    e->key_len = static_cast<std::uint32_t>(key.size());
    std::memcpy(e->key, key.data(), key.size());
    pm::Persist(e, sizeof(Entry) + key.size());  // record durable first
    server::Completion c;
    session_->Put(h, reinterpret_cast<Value>(e), &c);  // then indexed
    c.Wait();
  }

  bool Get(const std::string& key, std::uint64_t* value) const {
    for (const Entry* e = AsEntry(SlotHead(HashKey(key))); e != nullptr;
         e = AsEntry(e->next)) {
      if (KeyMatches(e, key)) {
        *value = e->value;
        return true;
      }
    }
    return false;
  }

  bool Del(const std::string& key) {
    const Key h = HashKey(key);
    const Value head = SlotHead(h);
    if (head == kNoValue) return false;
    Entry* e = AsMutEntry(head);
    server::Completion c;
    if (KeyMatches(e, key)) {
      // Unlink the head: point the slot at the rest of the chain, or drop
      // the slot when the chain ends.
      if (e->next != 0) {
        session_->Put(h, e->next, &c);
      } else {
        session_->Del(h, &c);
      }
      c.Wait();
      return true;
    }
    for (Entry* prev = e; prev->next != 0; prev = AsMutEntry(prev->next)) {
      Entry* cur = AsMutEntry(prev->next);
      if (KeyMatches(cur, key)) {  // interior unlink: one durable store
        prev->next = cur->next;
        pm::Persist(&prev->next, sizeof(prev->next));
        return true;
      }
    }
    return false;
  }

  void List() const {
    std::vector<core::Record> slots(store_->tree->CountEntries() + 1);
    server::Completion c;
    session_->Scan(0, static_cast<std::uint32_t>(slots.size()),
                   slots.data(), &c);
    c.Wait();
    std::size_t n = 0;
    for (std::uint32_t i = 0; i < c.scan_count(); ++i) {
      for (const Entry* e = AsEntry(slots[i].ptr); e != nullptr;
           e = AsEntry(e->next), ++n) {
        std::printf("  %.*s = %llu\n", static_cast<int>(e->key_len), e->key,
                    static_cast<unsigned long long>(e->value));
      }
    }
    std::printf("[kvstore] %zu entries in %u slots\n", n, c.scan_count());
  }

 private:
  Store* store_;
  server::Session* session_;
};

// Store + index adapter + running service + one default session, the
// assembly every CLI verb uses. The destructor order gives the graceful
// shutdown: the service Stops (drains, executes, joins) before the tree
// and pool go away.
struct ServiceStore {
  Store store;
  TreeIndex index{store.tree};
  server::KvService service{&index, [] {
                              server::ServiceOptions o;
                              o.workers = 2;
                              return o;
                            }()};
  KvClient client{&store, [this] {
                    service.Start();
                    return service.OpenSession();
                  }()};
};

// Brute-force a colliding pair for the 32-bit slot hash (birthday bound:
// ~2^16 tries), asserting the strings differ.
bool FindCollision(std::string* a, std::string* b) {
  std::unordered_map<Key, std::string> seen;
  for (std::uint64_t i = 0;; ++i) {
    std::string s = "user" + std::to_string(i);
    const Key h = HashKey(s);
    auto [it, fresh] = seen.try_emplace(h, s);
    if (!fresh) {
      *a = it->second;
      *b = std::move(s);
      return true;
    }
    if (i > (std::uint64_t{1} << 22)) return false;  // never at 32 bits
  }
}

int Demo() {
  std::remove(kPoolPath);
  {
    ServiceStore s;
    // A second client session: the workers may group these submissions
    // with the first client's — cross-client batch formation in miniature.
    KvClient other(&s.store, s.service.OpenSession());
    s.client.Put("alice", 31);
    other.Put("bob", 27);
    s.client.Put("carol", 45);
    std::printf("[demo] wrote 3 entries, 'crashing' now (no shutdown)\n");
  }  // completions were observed, so the records are durable
  {
    ServiceStore s;  // brand-new "process"
    std::uint64_t v = 0;
    std::printf("[demo] after restart: alice = %llu\n",
                s.client.Get("alice", &v) ? static_cast<unsigned long long>(v)
                                          : 0ull);

    // Hash-collision handling: find two strings in one slot, store both,
    // and prove each survives the other's presence — and removal.
    std::string a, b;
    if (!FindCollision(&a, &b)) {
      std::printf("[demo] no 32-bit collision found?!\n");
      return 1;
    }
    std::printf("[demo] colliding pair: '%s' and '%s' (slot %llx)\n",
                a.c_str(), b.c_str(),
                static_cast<unsigned long long>(HashKey(a)));
    s.client.Put(a, 1001);
    s.client.Put(b, 1002);
    std::uint64_t va = 0, vb = 0;
    if (!s.client.Get(a, &va) || !s.client.Get(b, &vb) || va != 1001 ||
        vb != 1002) {
      std::printf("[demo] collision chain FAILED (a=%llu b=%llu)\n",
                  static_cast<unsigned long long>(va),
                  static_cast<unsigned long long>(vb));
      return 1;
    }
    std::printf("[demo] both colliding keys retrievable (%llu, %llu)\n",
                static_cast<unsigned long long>(va),
                static_cast<unsigned long long>(vb));
    s.client.Del(a);
    if (s.client.Get(a, &va) || !s.client.Get(b, &vb) || vb != 1002) {
      std::printf("[demo] chain unlink FAILED\n");
      return 1;
    }
    std::printf("[demo] deleted '%s'; '%s' still present\n", a.c_str(),
                b.c_str());
    s.client.Del("bob");
    s.client.List();

    // Explicit graceful shutdown (the destructor would do it too): after
    // Stop, new submissions are rejected rather than lost.
    s.service.Stop();
    std::uint64_t dummy = 0;
    std::printf("[demo] post-stop request %s\n",
                s.client.Get("carol", &dummy) ? "served?!" : "rejected");
    std::printf("[demo] service stopped; %llu requests executed in %llu "
                "groups\n",
                static_cast<unsigned long long>(s.service.Stats().executed),
                static_cast<unsigned long long>(s.service.Stats().groups));
  }
  std::remove(kPoolPath);
  return 0;
}

// Parses a whole argument as a decimal unsigned 64-bit value: digits
// only (no sign, no blanks, no trailing text) and no overflow.
bool ParseValue(const char* s, std::uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "demo") return Demo();
  if (argc >= 3 && std::string(argv[1]) == "get") {
    ServiceStore s;
    std::uint64_t v = 0;
    if (!s.client.Get(argv[2], &v)) {
      std::printf("(not found)\n");
      return 1;
    }
    std::printf("%llu\n", static_cast<unsigned long long>(v));
    return 0;
  }
  if (argc >= 4 && std::string(argv[1]) == "put") {
    std::uint64_t v = 0;
    if (ParseValue(argv[3], &v)) {
      ServiceStore s;
      s.client.Put(argv[2], v);
      return 0;
    }
    std::fprintf(stderr, "kvstore: value '%s' is not a decimal integer in "
                 "[0, 2^64)\n", argv[3]);
  }
  if (argc >= 3 && std::string(argv[1]) == "del") {
    ServiceStore s;
    return s.client.Del(argv[2]) ? 0 : 1;
  }
  if (argc >= 2 && std::string(argv[1]) == "list") {
    ServiceStore s;
    s.client.List();
    return 0;
  }
  std::printf("usage: kvstore put <key> <int> | get <key> | del <key> | "
              "list | demo\n");
  return 2;
}
