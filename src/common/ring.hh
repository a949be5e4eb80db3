/**
 * @file
 * A first-in first-out queue of fixed capacity over one allocation,
 * made when the ring is built: for bounded hardware queues whose bound
 * is a run-time parameter (a core's instruction window and store
 * buffer), where std::deque would allocate a map and grow node by node.
 * Slots are not initialized; each is written by push_back() before it
 * is read.
 */

#ifndef DBPSIM_COMMON_RING_HH
#define DBPSIM_COMMON_RING_HH

#include <cstddef>
#include <memory>

#include "common/log.hh"

namespace dbpsim {

/**
 * FIFO of at most the capacity it was built with. Iteration runs from
 * the oldest element to the newest.
 */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity)
        : slots_(std::make_unique_for_overwrite<T[]>(capacity)),
          capacity_(capacity)
    {
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &front() { return slots_[head_]; }

    /** Forward iterator from the oldest element to the newest. */
    class iterator
    {
      public:
        iterator(T *at, T *first, T *last, std::size_t left)
            : at_(at), first_(first), last_(last), left_(left)
        {
        }
        T &operator*() const { return *at_; }
        iterator &operator++()
        {
            if (++at_ == last_)
                at_ = first_;
            --left_;
            return *this;
        }
        bool operator!=(const iterator &other) const
        {
            return left_ != other.left_;
        }

      private:
        T *at_;
        T *first_;
        T *last_;
        std::size_t left_; ///< elements still ahead; 0 at end().
    };

    iterator begin()
    {
        T *first = slots_.get();
        return iterator(first + head_, first, first + capacity_, size_);
    }
    iterator end() { return iterator(nullptr, nullptr, nullptr, 0); }

    /** Append; overflowing the capacity is a simulator bug. */
    void push_back(const T &value)
    {
        DBP_ASSERT(size_ < capacity_, "ring of " << capacity_
                                                 << " overflowed");
        std::size_t at = head_ + size_;
        slots_[at < capacity_ ? at : at - capacity_] = value;
        ++size_;
    }

    /** Drop the oldest element; the ring must not be empty. */
    void pop_front()
    {
        head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
        --size_;
    }

  private:
    std::unique_ptr<T[]> slots_;
    std::size_t capacity_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace dbpsim

#endif // DBPSIM_COMMON_RING_HH
