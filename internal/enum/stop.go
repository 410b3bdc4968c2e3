package enum

import (
	"fmt"
	"time"
)

// StopReason classifies why an enumeration ended before exhausting the
// search space. The values are ordered by precedence: when several causes
// coincide across parallel workers, the aggregated Stats report the
// highest-valued one (an internal error outranks cancellation, which
// outranks the deadline, and so on down to a voluntary visitor stop).
type StopReason uint8

const (
	// StopNone: the enumeration ran to completion.
	StopNone StopReason = iota
	// StopVisitor: the visitor returned false.
	StopVisitor
	// StopBudget: the cut budget Options.MaxCuts was reached. The stats
	// are exact for the emitted prefix.
	StopBudget
	// StopCheckpoint: Options.CheckpointStop was closed; the run wrote a
	// final snapshot (when Options.CheckpointPath is set) and stopped
	// cleanly at its next quiescent point. A StopCheckpoint run is the
	// designed prefix of a ResumeEnumerate continuation.
	StopCheckpoint
	// StopDeadline: the wall clock passed Options.Deadline.
	StopDeadline
	// StopCanceled: Options.Context was canceled.
	StopCanceled
	// StopError: a worker, the visitor or a snapshot write failed — a
	// contained panic, a failed write or a steal-handoff stall. Stats.Err
	// carries the first error, with the captured stack when it was a panic.
	StopError
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopVisitor:
		return "visitor-stop"
	case StopBudget:
		return "budget"
	case StopCheckpoint:
		return "checkpoint-stop"
	case StopDeadline:
		return "deadline"
	case StopCanceled:
		return "canceled"
	case StopError:
		return "worker-error"
	}
	return fmt.Sprintf("stop(%d)", uint8(r))
}

// RecordStop merges reason r into the stats, keeping the highest-precedence
// reason.
func (s *Stats) RecordStop(r StopReason) {
	if r > s.StopReason {
		s.StopReason = r
	}
}

// PanicError is the first-error a contained panic is converted to: the
// recovered value together with the stack of the panicking goroutine,
// captured at the recovery boundary (a work unit, the serial search loop,
// the visit point around the visitor, or the snapshot writer).
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("enum: panic in enumeration: %v", e.Value)
}

// StallError reports a steal handoff that never completed: a donor claimed
// a hungry worker and published a task, but no thief accepted it within the
// watchdog timeout. Under the handoff protocol this cannot happen unless a
// liveness invariant is broken, so it is surfaced as a diagnosable error —
// the donor reabsorbs the donated range and the run stops cleanly — instead
// of deadlocking the merge.
type StallError struct {
	Timeout time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("enum: steal handoff not accepted within %v (liveness invariant broken)", e.Timeout)
}

// stopPollMask samples the expensive stop sources (wall clock, context
// channel) once every 4096 polls; the overrun past a deadline or
// cancellation is a few thousand search steps.
const stopPollMask = 0x0fff

// Stopper polls the run-abort sources an Options carries — context
// cancellation and the wall-clock deadline — on a sampled tick, so the
// check stays affordable inside search hot loops. It is the one stop
// primitive shared by the incremental enumeration, EnumerateBasic and the
// baseline searches (internal/baseline), which keeps cancellation semantics
// identical between poly and oracle runs. One Stopper serves one worker;
// it is not safe for concurrent use (the cross-worker stop flag of the
// parallel enumeration is separate).
type Stopper struct {
	done     <-chan struct{} // Context.Done(), nil when no context
	ckpt     <-chan struct{} // Options.CheckpointStop, nil when unset
	deadline time.Time
	tick     uint32
}

// NewStopper builds a Stopper from the options' Context, Deadline and
// CheckpointStop channel.
func NewStopper(opt Options) Stopper {
	s := Stopper{deadline: opt.Deadline, ckpt: opt.CheckpointStop}
	if opt.Context != nil {
		s.done = opt.Context.Done()
	}
	return s
}

// Poll reports why the run must stop, or StopNone. Only every 4096th call
// samples the clock and channels; with no source configured it is two
// loads.
func (s *Stopper) Poll() StopReason {
	if s.done == nil && s.ckpt == nil && s.deadline.IsZero() {
		return StopNone
	}
	s.tick++
	if s.tick&stopPollMask != 0 {
		return StopNone
	}
	return s.Now()
}

// Now checks the stop sources immediately, without tick sampling.
// Cancellation outranks the deadline, which outranks a checkpoint-stop
// request, matching StopReason precedence.
func (s *Stopper) Now() StopReason {
	if s.done != nil {
		select {
		case <-s.done:
			return StopCanceled
		default:
		}
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		return StopDeadline
	}
	if s.ckpt != nil {
		select {
		case <-s.ckpt:
			return StopCheckpoint
		default:
		}
	}
	return StopNone
}
