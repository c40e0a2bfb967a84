#include "rdma/remote_memory_pool.h"

#include <algorithm>
#include <utility>

namespace polarcxl::rdma {

RemoteMemoryPool::RemoteMemoryPool(RdmaNetwork* network, NodeId server_node,
                                   uint64_t capacity_pages)
    : network_(network),
      server_node_(server_node),
      capacity_pages_(capacity_pages) {
  // The pool fills to capacity during a load, so size the table up front:
  // incremental rehashes of a hundred-thousand-entry map are pure waste.
  // Capped so a huge nominal capacity doesn't burn memory on empty buckets.
  st_.pages.reserve(std::min<uint64_t>(capacity_pages_, 1u << 20));
  network_->RegisterHost(server_node);
}

Status RemoteMemoryPool::WritePage(sim::ExecContext& ctx, NodeId client,
                                   NodeId tenant, PageId page_id,
                                   PageImageRef image) {
  POLAR_RETURN_IF_ERROR(network_->Precheck(ctx, client, server_node_));
  PageImageRef old;  // released outside the lock
  {
    std::lock_guard<std::mutex> lk(mu_);
    const PoolPageKey key{tenant, page_id};
    auto it = st_.pages.find(key);
    if (it == st_.pages.end()) {
      if (st_.pages.size() >= capacity_pages_) {
        return Status::OutOfMemory("remote memory pool full");
      }
      st_.pages.emplace(key, std::move(image));
    } else {
      // The old image stays intact for whoever still holds it (a snapshot,
      // a client frame).
      old = std::exchange(it->second, std::move(image));
    }
  }
  network_->Write(ctx, client, server_node_, kPageSize);
  return Status::OK();
}

Result<PageImageRef> RemoteMemoryPool::ReadPage(sim::ExecContext& ctx,
                                                NodeId client, NodeId tenant,
                                                PageId page_id) {
  POLAR_RETURN_IF_ERROR(network_->Precheck(ctx, client, server_node_));
  PageImageRef image = Peek(tenant, page_id);
  if (image == nullptr) return Status::NotFound("page not in pool");
  network_->Read(ctx, client, server_node_, kPageSize);
  return image;
}

PageImageRef RemoteMemoryPool::Peek(NodeId tenant, PageId page_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = st_.pages.find(PoolPageKey{tenant, page_id});
  return it == st_.pages.end() ? nullptr : it->second;
}

void RemoteMemoryPool::Drop(NodeId tenant, PageId page_id) {
  std::lock_guard<std::mutex> lk(mu_);
  st_.pages.erase(PoolPageKey{tenant, page_id});
}

void RemoteMemoryPool::DropTenant(NodeId tenant) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = st_.pages.begin(); it != st_.pages.end();) {
    if (it->first.tenant == tenant) it = st_.pages.erase(it);
    else ++it;
  }
}

bool RemoteMemoryPool::Contains(NodeId tenant, PageId page_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return st_.pages.count(PoolPageKey{tenant, page_id}) > 0;
}

}  // namespace polarcxl::rdma
