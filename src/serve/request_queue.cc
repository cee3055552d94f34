#include "serve/request_queue.hh"

#include <algorithm>

namespace ptolemy::serve
{

RequestQueue::RequestQueue(std::size_t depth)
    : ring(std::max<std::size_t>(depth, 1), nullptr)
{
}

bool
RequestQueue::tryPush(ServeRequest *r)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        if (isClosed || count == ring.size())
            return false;
        ring[(head + count) % ring.size()] = r;
        ++count;
    }
    cv.notify_one();
    return true;
}

ServeRequest *
RequestQueue::popLocked()
{
    ServeRequest *r = ring[head];
    ring[head] = nullptr;
    head = (head + 1) % ring.size();
    --count;
    return r;
}

std::size_t
RequestQueue::collectBatch(std::vector<ServeRequest *> &out,
                           std::size_t max_batch)
{
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return count > 0 || isClosed; });
    const std::size_t n =
        std::min(count, std::max<std::size_t>(max_batch, 1));
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(popLocked());
    return n; // 0 only when closed and drained: consumer exits
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        isClosed = true;
    }
    cv.notify_all();
}

std::size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lk(mu);
    return count;
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lk(mu);
    return isClosed;
}

} // namespace ptolemy::serve
