package harden

import (
	"context"
	"math/rand"
	"time"
)

// Backoff is a capped exponential backoff schedule with full jitter: the
// delay before retry n is drawn from (0, d], d = backoffBase·backoffFactor^n
// capped at backoffMax, which decorrelates clients that were shed by the
// same overload event. The uud load client retries through it. The zero
// value tries once.
type Backoff struct {
	// Attempts is the total number of tries (the first call plus
	// Attempts-1 retries). Zero or negative means one try, no retries.
	Attempts int
	// Rand supplies the jitter randomness. Nil uses a time-seeded source;
	// tests and deterministic clients inject a seeded *rand.Rand.
	Rand *rand.Rand
	// Sleep replaces time.Sleep in tests. Nil sleeps for real (honoring
	// ctx cancellation).
	Sleep func(time.Duration)
}

// The schedule: 50ms doubling to a 2s cap.
const (
	backoffBase   = 50 * time.Millisecond
	backoffMax    = 2 * time.Second
	backoffFactor = 2
)

// nominal is the schedule's delay before retry attempt n, before jitter.
func nominal(n int) time.Duration {
	d := backoffBase
	for i := 0; i < n && d < backoffMax; i++ {
		d *= backoffFactor
	}
	return min(d, backoffMax)
}

// Delay returns the jittered delay before retry attempt n (0-based: the
// delay between the first failure and the second try is Delay(0)).
func (b Backoff) Delay(n int) time.Duration {
	var u float64
	if b.Rand != nil {
		u = b.Rand.Float64()
	} else {
		u = rand.Float64()
	}
	// Full jitter over (0, d]: never a zero sleep (that would turn a retry
	// loop into a busy spin), never more than the schedule.
	d := float64(nominal(n)) * (1 - u)
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Retry runs fn up to b.Attempts times, sleeping the schedule's delay
// between failures. It returns nil on the first success; after the last
// attempt (or when ctx is done first) it returns the most recent error.
// fn's error is inspected through retryable when non-nil: a false return
// stops immediately (the failure is permanent and backing off cannot
// help).
func (b Backoff) Retry(ctx context.Context, retryable func(error) bool, fn func() error) error {
	attempts := b.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for n := 0; n < attempts; n++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return err
			}
			return cerr
		}
		if err = fn(); err == nil {
			return nil
		}
		if retryable != nil && !retryable(err) {
			return err
		}
		if n == attempts-1 {
			break
		}
		d := b.Delay(n)
		if b.Sleep != nil {
			b.Sleep(d)
			continue
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
	return err
}
