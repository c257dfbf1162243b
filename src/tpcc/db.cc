#include "tpcc/db.h"

#include <memory>
#include <vector>

#include <chrono>

#include "common/rng.h"
#include "index/sharded.h"
#include "maint/tasks.h"

namespace fastfair::tpcc {

namespace {

// One TPC-C table index. TPC-C keys pack warehouse/district/... ids into a
// tiny prefix of the 64-bit key space, so the registry's uniform range
// partition would send every row to shard 0. For a sharded kind the Db
// instead derives explicit boundaries from the table's own key encoding:
// the leading dimension (warehouse id, or item id for ITEM) is cut into
// `shards` groups via `first_key(group_start_id)`. With fewer leading ids
// than shards some shards stay empty — inherent to range sharding.
std::unique_ptr<Index> MakeTable(std::string_view kind, pm::Pool* pool,
                                 std::uint32_t cardinality,
                                 Key (*first_key)(std::uint32_t)) {
  std::string inner;
  const std::size_t shards = TryParseShardedKind(kind, &inner);
  if (shards == 0) return MakeIndex(kind, pool);
  std::vector<Key> bounds;
  bounds.reserve(shards - 1);
  for (std::size_t s = 1; s < shards; ++s) {
    bounds.push_back(first_key(static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(s) * cardinality / shards)));
  }
  return std::make_unique<ShardedIndex>(
      std::string(kind), std::move(bounds),
      [pool, inner](std::size_t) { return MakeIndex(inner, pool); });
}

// Buffers (key, row) pairs and forwards them through InsertBatch in chunks
// of `cap` — the batched population path for the bulk tables. cap <= 1
// degenerates to scalar inserts; the caller flushes the tail. Pool
// exhaustion throws std::bad_alloc out of Add or Flush, like Insert.
class Batcher {
 public:
  Batcher(Index* idx, std::size_t cap) : idx_(idx), cap_(cap) {
    if (cap_ > 1) buf_.reserve(cap_);
  }

  void Add(Key key, Value value) {
    if (cap_ <= 1) {
      idx_->Insert(key, value);
      return;
    }
    buf_.push_back({key, value});
    if (buf_.size() == cap_) Flush();
  }

  void Flush() {
    if (!buf_.empty()) {
      idx_->InsertBatch(buf_.data(), buf_.size(), nullptr);
      buf_.clear();
    }
  }

 private:
  Index* idx_;
  std::size_t cap_;
  std::vector<core::Record> buf_;
};

}  // namespace

Db::~Db() { StopMaintenance(); }

void Db::StartMaintenance(const maint::TaskOptions& opts,
                          std::uint64_t interval_us) {
  if (maint_ != nullptr) return;
  maint_ = maint::MakeMaintenanceThread(
      pool_, tables(), opts, std::chrono::microseconds(interval_us));
  maint_->Start();
}

void Db::StopMaintenance() {
  if (maint_ == nullptr) return;
  maint_->Stop();
  maint_.reset();
}

std::vector<Index*> Db::tables() const {
  return {warehouse_.get(), district_.get(),  customer_.get(),
          item_.get(),      stock_.get(),     order_.get(),
          neworder_.get(),  orderline_.get(), customer_order_.get()};
}

bool Db::supports_concurrency() const {
  for (const Index* t : tables()) {
    if (!t->supports_concurrency()) return false;
  }
  return true;
}

Db::Db(std::string_view kind, const Config& cfg, pm::Pool* pool)
    : cfg_(cfg), pool_(pool) {
  const std::uint32_t W = cfg.warehouses;
  warehouse_ = MakeTable(kind, pool, W,
                         [](std::uint32_t w) { return WarehouseKey(w); });
  district_ = MakeTable(kind, pool, W,
                        [](std::uint32_t w) { return DistrictKey(w, 0); });
  customer_ = MakeTable(kind, pool, W,
                        [](std::uint32_t w) { return CustomerKey(w, 0, 0); });
  item_ = MakeTable(kind, pool, cfg.items,
                    [](std::uint32_t i) { return ItemKey(i); });
  stock_ = MakeTable(kind, pool, W,
                     [](std::uint32_t w) { return StockKey(w, 0); });
  order_ = MakeTable(kind, pool, W,
                     [](std::uint32_t w) { return OrderKey(w, 0, 0); });
  neworder_ = MakeTable(kind, pool, W,
                        [](std::uint32_t w) { return NewOrderKey(w, 0, 0); });
  orderline_ = MakeTable(
      kind, pool, W, [](std::uint32_t w) { return OrderLineKey(w, 0, 0, 0); });
  customer_order_ = MakeTable(kind, pool, W, [](std::uint32_t w) {
    return CustomerOrderKey(w, 0, 0, 0);
  });
  Populate();
}

void Db::Populate() {
  Rng rng(0xc0ffee);
  // The bulk tables batch through the pipelined InsertBatch path when
  // Config::populate_batch says so; each row is still persisted (NewRow)
  // before its index entry ever becomes visible, batched or not.
  Batcher item_b(item_.get(), cfg_.populate_batch);
  Batcher stock_b(stock_.get(), cfg_.populate_batch);
  Batcher orderline_b(orderline_.get(), cfg_.populate_batch);
  for (std::uint32_t i = 0; i < cfg_.items; ++i) {
    item_b.Add(ItemKey(i),
               reinterpret_cast<Value>(NewRow<ItemRow>(
                   {1.0 + static_cast<double>(rng.NextBounded(9900)) /
                              100.0})));
  }
  item_b.Flush();
  for (std::uint32_t w = 0; w < cfg_.warehouses; ++w) {
    warehouse_->Insert(
        WarehouseKey(w),
        reinterpret_cast<Value>(NewRow<WarehouseRow>(
            {static_cast<double>(rng.NextBounded(2000)) / 10000.0, 0.0})));
    for (std::uint32_t i = 0; i < cfg_.items; ++i) {
      stock_b.Add(StockKey(w, i),
                  reinterpret_cast<Value>(NewRow<StockRow>(
                      {static_cast<std::int32_t>(
                           10 + rng.NextBounded(91)),
                       0, 0, 0})));
    }
    stock_b.Flush();
    for (std::uint32_t d = 0; d < cfg_.districts_per_wh; ++d) {
      auto* drow = NewRow<DistrictRow>(
          {static_cast<double>(rng.NextBounded(2000)) / 10000.0, 0.0,
           cfg_.initial_orders_per_district});
      district_->Insert(DistrictKey(w, d), reinterpret_cast<Value>(drow));
      for (std::uint32_t c = 0; c < cfg_.customers_per_district; ++c) {
        customer_->Insert(CustomerKey(w, d, c),
                          reinterpret_cast<Value>(NewRow<CustomerRow>(
                              {-10.0, 10.0, 1, 0})));
      }
      // Initial order history: one order per o_id, each with 5-15 lines;
      // the most recent ~30% still undelivered (rows in NEW-ORDER).
      for (std::uint32_t o = 0; o < cfg_.initial_orders_per_district; ++o) {
        const std::uint32_t c = static_cast<std::uint32_t>(
            rng.NextBounded(cfg_.customers_per_district));
        const std::uint32_t ol_cnt =
            5 + static_cast<std::uint32_t>(rng.NextBounded(11));
        const bool delivered =
            o < cfg_.initial_orders_per_district * 7 / 10;
        auto* orow = NewRow<OrderRow>(
            {c, ol_cnt,
             delivered ? 1 + static_cast<std::uint32_t>(rng.NextBounded(10))
                       : 0,
             o});
        order_->Insert(OrderKey(w, d, o), reinterpret_cast<Value>(orow));
        customer_order_->Insert(CustomerOrderKey(w, d, c, o),
                                reinterpret_cast<Value>(orow));
        if (!delivered) {
          neworder_->Insert(NewOrderKey(w, d, o),
                            reinterpret_cast<Value>(
                                NewRow<NewOrderRow>({w, d})));
        }
        for (std::uint32_t l = 0; l < ol_cnt; ++l) {
          orderline_b.Add(
              OrderLineKey(w, d, o, l),
              reinterpret_cast<Value>(NewRow<OrderLineRow>(
                  {static_cast<std::uint32_t>(rng.NextBounded(cfg_.items)),
                   5, static_cast<double>(rng.NextBounded(9999)) / 100.0,
                   delivered ? o + 1ull : 0ull})));
        }
      }
    }
  }
  orderline_b.Flush();
}

}  // namespace fastfair::tpcc
