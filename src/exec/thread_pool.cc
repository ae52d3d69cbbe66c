/**
 * @file
 * ThreadPool implementation.
 */

#include "exec/thread_pool.hh"

#include <stdexcept>

namespace ahq::exec
{

namespace
{

thread_local bool t_on_pool_thread = false;

} // namespace

ThreadPool::ThreadPool(int threads)
{
    const int n = threads < 1 ? 1 : threads;
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

void
ThreadPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        if (stopping_) // idempotent: workers already joined below
            return;
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_) {
        if (w.joinable())
            w.join();
    }
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(m_);
        // Same lock as the stopping_ flip in shutdown(): a racing
        // post() either enqueues before the drain (and runs) or
        // lands here — never in a queue no worker will ever read.
        if (stopping_) {
            throw std::runtime_error(
                "ThreadPool::post: pool is shut down");
        }
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

bool
ThreadPool::onPoolThread()
{
    return t_on_pool_thread;
}

void
ThreadPool::workerLoop()
{
    t_on_pool_thread = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(m_);
            cv_.wait(lk, [&] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping and fully drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace ahq::exec
