#include "baselines/wbtree/wbtree.h"

#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

namespace fastfair::baselines {

namespace {
constexpr std::uint64_t kSlotValid = 1ull;
constexpr std::uint64_t EntryBit(int i) { return 1ull << (i + 1); }
}  // namespace

WBTree::WBTree(pm::Pool* pool) : pool_(pool) {
  log_ = static_cast<UndoLog*>(pool->Alloc(sizeof(UndoLog), kCacheLineSize));
  log_->active = 0;
  pm::Persist(&log_->active, sizeof(log_->active));
  root_ = AllocNode(0);
  pm::Persist(root_, sizeof(Node));
}

WBTree::Node* WBTree::AllocNode(std::uint32_t level) {
  auto* n = static_cast<Node*>(pool_->Alloc(sizeof(Node), kCacheLineSize));
  std::memset(n, 0, sizeof(Node));
  n->level = level;
  n->bitmap = kSlotValid;  // empty but valid slot array
  return n;
}

int WBTree::UpperBound(const Node* n, Key key) {
  int lo = 0, hi = n->count();
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (n->KeyAt(mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

WBTree::Node* WBTree::Child(const Node* n, Key key) {
  const int ub = UpperBound(n, key);
  const std::uint64_t p = ub == 0 ? n->leftmost : n->EntryAt(ub - 1).val;
  return reinterpret_cast<Node*>(p);
}

WBTree::Node* WBTree::FindLeaf(Key key, std::vector<Node*>* path) const {
  Node* n = root_;
  // Same LLC model as the core tree: leaf visits pay PM read latency.
  if (n->is_leaf()) pm::AnnotateRead(n);
  while (!n->is_leaf()) {
    if (path != nullptr) path->push_back(n);
    n = Child(n, key);
    if (n->is_leaf()) pm::AnnotateRead(n);
  }
  return n;
}

int WBTree::FindFreeSlot(const Node* n) {
  for (int i = 0; i < kEntries; ++i) {
    if ((n->bitmap & EntryBit(i)) == 0) return i;
  }
  return -1;
}

void WBTree::NodeInsert(Node* n, Key key, std::uint64_t val) {
  const int free = FindFreeSlot(n);
  assert(free >= 0 && "NodeInsert requires a non-full node");
  // 1. Write the entry into the free slot and flush it.
  n->entries[free] = {key, val};
  pm::Persist(&n->entries[free], sizeof(Entry));
  // 2. Invalidate the slot array (readers fall back to a bitmap scan).
  n->bitmap &= ~kSlotValid;
  pm::Persist(&n->bitmap, sizeof(n->bitmap));
  // 3. Rewrite the slot array with the new index in sorted position.
  const int cnt = n->count();
  const int pos = UpperBound(n, key);
  std::memmove(&n->slots[pos + 2], &n->slots[pos + 1],
               static_cast<std::size_t>(cnt - pos));
  n->slots[pos + 1] = static_cast<std::uint8_t>(free);
  n->slots[0] = static_cast<std::uint8_t>(cnt + 1);
  pm::Persist(n->slots, static_cast<std::size_t>(cnt) + 2);
  // 4. One atomic 8-byte bitmap store validates entry + slot array together.
  n->bitmap |= kSlotValid | EntryBit(free);
  pm::Persist(&n->bitmap, sizeof(n->bitmap));
}

bool WBTree::NodeRemove(Node* n, Key key) {
  const int cnt = n->count();
  const int ub = UpperBound(n, key);
  if (ub == 0 || n->KeyAt(ub - 1) != key) return false;
  const int sorted = ub - 1;
  const int slot = n->slots[sorted + 1];
  n->bitmap &= ~kSlotValid;
  pm::Persist(&n->bitmap, sizeof(n->bitmap));
  std::memmove(&n->slots[sorted + 1], &n->slots[sorted + 2],
               static_cast<std::size_t>(cnt - sorted - 1));
  n->slots[0] = static_cast<std::uint8_t>(cnt - 1);
  pm::Persist(n->slots, static_cast<std::size_t>(cnt) + 1);
  n->bitmap = (n->bitmap | kSlotValid) & ~EntryBit(slot);
  pm::Persist(&n->bitmap, sizeof(n->bitmap));
  return true;
}

Value WBTree::Search(Key key) const {
  const Node* n = FindLeaf(key, nullptr);
  const int ub = UpperBound(n, key);
  if (ub > 0 && n->KeyAt(ub - 1) == key) return n->EntryAt(ub - 1).val;
  return kNoValue;
}

void WBTree::Insert(Key key, Value value) {
  assert(value != kNoValue);
  std::vector<Node*> path;
  Node* leaf = FindLeaf(key, &path);
  const int ub = UpperBound(leaf, key);
  if (ub > 0 && leaf->KeyAt(ub - 1) == key) {  // upsert in place
    Entry& e = leaf->EntryAt(ub - 1);
    e.val = value;
    pm::Persist(&e.val, sizeof(e.val));
    return;
  }
  if (leaf->count() < kEntries) {
    NodeInsert(leaf, key, value);
    return;
  }
  SplitAndInsert(leaf, &path, key, value);
}

bool WBTree::Remove(Key key) {
  Node* leaf = FindLeaf(key, nullptr);
  return NodeRemove(leaf, key);  // underfull/empty leaves tolerated
}

void WBTree::LogNode(Node* n) {
  const std::uint64_t idx = log_->active;
  assert(idx < kMaxLoggedNodes && "SplitAndInsert sizes the cascade");
  log_->addrs[idx] = reinterpret_cast<std::uint64_t>(n);
  std::memcpy(log_->images[idx], n, kNodeSize);
  pm::Persist(log_->images[idx], kNodeSize);
  pm::Persist(&log_->addrs[idx], sizeof(std::uint64_t));
  log_->active = idx + 1;
  pm::Persist(&log_->active, sizeof(log_->active));
}

void WBTree::CommitLog() {
  log_->active = 0;
  pm::Persist(&log_->active, sizeof(log_->active));
}

void WBTree::RecoverFromLog() {
  for (std::uint64_t i = log_->active; i > 0; --i) {
    auto* n = reinterpret_cast<Node*>(log_->addrs[i - 1]);
    std::memcpy(n, log_->images[i - 1], kNodeSize);
    pm::Persist(n, kNodeSize);
  }
  CommitLog();
}

void WBTree::SplitAndInsert(Node* leaf, std::vector<Node*>* path, Key key,
                            std::uint64_t val) {
  // The cascade splits the leaf and every full ancestor above it; when all
  // of them are full it also grows a new root. Allocate every node it
  // needs before the first LogNode (FAST+FAIR's sibling-first rule,
  // DESIGN.md §11.1): pool exhaustion then unwinds with the tree and the
  // undo log untouched, instead of leaving the log armed with images a
  // later crash would replay.
  std::size_t splits = 1;
  while (splits <= path->size() &&
         (*path)[path->size() - splits]->count() >= kEntries) {
    ++splits;
  }
  const bool new_root = splits > path->size();
  if (splits + (new_root ? 0 : 1) > kMaxLoggedNodes) {
    throw std::runtime_error("wB+-tree undo log overflow");
  }
  Node* fresh[kMaxLoggedNodes + 1];  // the splits + a new root
  std::size_t allocated = 0;
  try {
    for (; allocated < splits; ++allocated) {
      const Node* split =
          allocated == 0 ? leaf : (*path)[path->size() - allocated];
      fresh[allocated] = AllocNode(split->level);
    }
    if (new_root) fresh[allocated++] = AllocNode(root_->level + 1);
  } catch (const std::bad_alloc&) {
    while (allocated > 0) pool_->Free(fresh[--allocated], sizeof(Node));
    throw;
  }

  // Undo-log every node this structural modification will touch: the leaf
  // and each full ancestor that will cascade (plus the first non-full one).
  LogNode(leaf);
  for (auto it = path->rbegin(); it != path->rend(); ++it) {
    LogNode(*it);
    if ((*it)->count() < kEntries) break;
  }

  Node* n = leaf;
  Key sep = 0;
  std::uint64_t right_u = 0;
  Key pending_key = key;
  std::uint64_t pending_val = val;
  std::size_t next_fresh = 0;

  for (;;) {
    // Split n: move the upper half (by sorted order) to a new node.
    const int cnt = n->count();
    const int median = cnt / 2;
    Node* right = fresh[next_fresh++];
    if (!n->is_leaf()) {
      right->leftmost = n->EntryAt(median).val;
    }
    const int skip = n->is_leaf() ? 0 : 1;  // separator moves up, not right
    int j = 0;
    for (int i = median + skip; i < cnt; ++i, ++j) {
      right->entries[j] = n->EntryAt(i);
      right->slots[j + 1] = static_cast<std::uint8_t>(j);
      right->bitmap |= EntryBit(j);
    }
    right->slots[0] = static_cast<std::uint8_t>(j);
    right->next = n->next;
    sep = n->KeyAt(median);
    pm::Persist(right, sizeof(Node));
    n->next = reinterpret_cast<std::uint64_t>(right);
    pm::Persist(&n->next, sizeof(n->next));
    // Truncate the left node: rewrite bitmap + slot count (logged; ordinary
    // stores are fine inside the undo-logged transaction).
    std::uint64_t bm = kSlotValid;
    for (int i = 0; i < median; ++i) bm |= EntryBit(n->slots[i + 1]);
    n->slots[0] = static_cast<std::uint8_t>(median);
    n->bitmap = bm;
    pm::Persist(&n->bitmap, sizeof(n->bitmap));
    pm::Persist(n->slots, 1);

    // Insert the pending record into the correct half.
    NodeInsert(pending_key < sep ? n : right, pending_key, pending_val);
    right_u = reinterpret_cast<std::uint64_t>(right);

    // Propagate the separator upward.
    if (path->empty()) {
      Node* nr = fresh[next_fresh++];
      nr->leftmost = reinterpret_cast<std::uint64_t>(n);
      NodeInsert(nr, sep, right_u);
      pm::Persist(nr, sizeof(Node));
      root_ = nr;
      break;
    }
    Node* parent = path->back();
    path->pop_back();
    if (parent->count() < kEntries) {
      NodeInsert(parent, sep, right_u);
      break;
    }
    pending_key = sep;
    pending_val = right_u;
    n = parent;
  }
  CommitLog();
}

std::size_t WBTree::Scan(Key min_key, std::size_t max_results,
                         core::Record* out) const {
  const Node* n = FindLeaf(min_key, nullptr);
  std::size_t got = 0;
  int pos = UpperBound(n, min_key);
  if (pos > 0 && n->KeyAt(pos - 1) == min_key) --pos;  // include min_key
  while (n != nullptr && got < max_results) {
    for (int i = pos; i < n->count() && got < max_results; ++i) {
      const Entry& e = n->EntryAt(i);
      if (e.key < min_key) continue;
      out[got++] = {e.key, e.val};
    }
    n = reinterpret_cast<const Node*>(n->next);
    if (n != nullptr) pm::AnnotateRead(n);
    pos = 0;
  }
  return got;
}

int WBTree::Height() const {
  int h = 1;
  for (const Node* n = root_; !n->is_leaf();
       n = reinterpret_cast<const Node*>(n->leftmost)) {
    ++h;
  }
  return h;
}

std::size_t WBTree::CountEntries() const {
  const Node* n = root_;
  while (!n->is_leaf()) n = reinterpret_cast<const Node*>(n->leftmost);
  std::size_t total = 0;
  for (; n != nullptr; n = reinterpret_cast<const Node*>(n->next)) {
    total += static_cast<std::size_t>(n->count());
  }
  return total;
}

}  // namespace fastfair::baselines
