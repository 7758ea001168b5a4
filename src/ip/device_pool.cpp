#include "ip/device_pool.h"

#include <utility>

#include "util/error.h"

namespace dnnv::ip {

DevicePool::DevicePool(Factory factory) : factory_(std::move(factory)) {
  DNNV_CHECK(factory_ != nullptr, "DevicePool needs a device factory");
}

DevicePool::Lease::Lease(Lease&& other) noexcept
    : pool_(other.pool_),
      device_(std::move(other.device_)),
      generation_(other.generation_) {
  other.pool_ = nullptr;
}

DevicePool::Lease& DevicePool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ && device_) pool_->release(std::move(device_), generation_);
    pool_ = other.pool_;
    device_ = std::move(other.device_);
    generation_ = other.generation_;
    other.pool_ = nullptr;
  }
  return *this;
}

DevicePool::Lease::~Lease() {
  if (pool_ && device_) pool_->release(std::move(device_), generation_);
}

DevicePool::Lease DevicePool::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!idle_.empty()) {
    std::unique_ptr<BlackBoxIp> device = std::move(idle_.back());
    idle_.pop_back();
    return Lease(this, std::move(device), generation_);
  }
  // The factory can be expensive (device reconstruction); run it unlocked.
  ++created_;
  const std::size_t generation = generation_;
  lock.unlock();
  std::unique_ptr<BlackBoxIp> device = factory_();
  if (device == nullptr) return Lease();
  return Lease(this, std::move(device), generation);
}

void DevicePool::release(std::unique_ptr<BlackBoxIp> device,
                         std::size_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A stale replica from before an invalidate() is dropped.
  if (generation == generation_) idle_.push_back(std::move(device));
}

void DevicePool::invalidate() {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.clear();
  ++generation_;
}

std::size_t DevicePool::created() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return created_;
}

std::size_t DevicePool::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idle_.size();
}

}  // namespace dnnv::ip
