package results

import (
	"context"
	"errors"
	"syscall"
)

// Backend is the storage substrate under the Store: a flat keyed blob
// space with no knowledge of result encoding, envelopes or caching
// policy. The disk store is the first implementation; ROADMAP item 1's
// remote object-store backend plugs in here. Implementations must be
// safe for concurrent use.
//
// Keys are store-controlled: either bare content hashes or
// slash-separated relative names (the quarantine area). A Get for an
// absent key returns an error satisfying errors.Is(err, ErrNotFound);
// Delete of an absent key is not an error.
type Backend interface {
	Get(ctx context.Context, key string) ([]byte, error)
	Put(ctx context.Context, key string, data []byte) error
	Delete(ctx context.Context, key string) error
}

// Unwrapper is implemented by decorating backends (retry, fault
// injection) to expose the backend they wrap, so callers can walk a
// decorator chain down to the concrete store (e.g. for its directory).
type Unwrapper interface {
	Unwrap() Backend
}

// AttemptStats is implemented by backends that retry: total operation
// attempts and how many of those were retries of a failed attempt.
type AttemptStats interface {
	Attempts() int64
	Retries() int64
}

// ErrNotFound marks a Get for a key the backend does not hold. It is a
// normal miss, never a fault: retry decorators do not retry it and the
// health tracker does not count it against the backend.
var ErrNotFound = errors.New("results: not found")

// ErrTransient is the classification marker for backend errors that a
// retry can plausibly cure (flaky IO, contention, interrupted
// syscalls). Wrap an error with MarkTransient to tag it; test with
// IsTransient, which also recognises the usual transient errnos.
var ErrTransient = errors.New("results: transient backend error")

type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Is makes errors.Is(err, ErrTransient) true for marked errors without
// ErrTransient appearing in the message chain.
func (e *transientError) Is(target error) bool { return target == ErrTransient }

// MarkTransient tags err as transient for retry classification. A nil
// err stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is worth retrying: explicitly marked
// transient, or one of the errnos that signal a momentary condition.
// Context errors are never transient — retrying cannot revive a dead
// context — and neither is ErrNotFound or a permanent condition like
// ENOSPC/EROFS/EACCES.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrTransient) {
		return true
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.EAGAIN, syscall.EINTR, syscall.EBUSY, syscall.ETIMEDOUT, syscall.EIO:
			return true
		}
	}
	return false
}
