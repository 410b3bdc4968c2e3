package session

import "sync"

// Budget is a shared byte allowance. The cache charges resident graphs
// against it, so one number bounds the process's dominant memory
// consumer. Reservations are all-or-nothing — TryReserve never
// oversubscribes and never blocks, leaving the policy of what to do about a
// refusal (evict, shed) to the caller.
type Budget struct {
	mu    sync.Mutex
	total int64 // 0 = unlimited
	used  int64
}

// NewBudget returns a budget of total bytes; total <= 0 means unlimited.
func NewBudget(total int64) *Budget {
	if total < 0 {
		total = 0
	}
	return &Budget{total: total}
}

// TryReserve atomically charges n bytes if they fit, reporting success.
func (b *Budget) TryReserve(n int64) bool {
	if n < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.total > 0 && b.used+n > b.total {
		return false
	}
	b.used += n
	return true
}

// Release returns n reserved bytes. Releasing more than is reserved is a
// bug in the caller's accounting and panics rather than silently
// unbalancing the budget.
func (b *Budget) Release(n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n < 0 || n > b.used {
		panic("session: Budget.Release without matching reservation")
	}
	b.used -= n
}

// Used returns the bytes currently reserved.
func (b *Budget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Total returns the configured allowance; 0 means unlimited.
func (b *Budget) Total() int64 { return b.total }
