package harden

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// TestBackoffDelayDeterministic pins the jittered schedule for a fixed
// seed: the exact delays matter less than that they are reproducible,
// capped, exponential, and never zero.
func TestBackoffDelayDeterministic(t *testing.T) {
	mk := func() Backoff {
		return Backoff{Rand: rand.New(rand.NewSource(42))}
	}
	a, b := mk(), mk()
	for n := 0; n < 8; n++ {
		da, db := a.Delay(n), b.Delay(n)
		if da != db {
			t.Fatalf("attempt %d: same seed gave %v vs %v", n, da, db)
		}
		if da <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", n, da)
		}
		if da > backoffMax {
			t.Fatalf("attempt %d: delay %v above cap %v", n, da, backoffMax)
		}
	}
}

// TestBackoffDelayUnjittered checks the raw exponential-with-cap shape the
// jitter draws under.
func TestBackoffDelayUnjittered(t *testing.T) {
	want := []time.Duration{
		50 * time.Millisecond,
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		1600 * time.Millisecond,
		2 * time.Second,
		2 * time.Second,
	}
	for n, w := range want {
		if got := nominal(n); got != w {
			t.Fatalf("nominal(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestRetrySucceedsAfterFailures(t *testing.T) {
	b := Backoff{Attempts: 5, Rand: rand.New(rand.NewSource(7))}
	var slept []time.Duration
	b.Sleep = func(d time.Duration) { slept = append(slept, d) }
	calls := 0
	err := b.Retry(context.Background(), nil, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v, want nil", err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times, want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2 (between the 3 attempts)", len(slept))
	}
	for i, d := range slept {
		if d <= 0 {
			t.Fatalf("sleep %d: non-positive %v", i, d)
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	b := Backoff{Attempts: 4}
	b.Sleep = func(time.Duration) {}
	calls := 0
	wantErr := errors.New("still down")
	err := b.Retry(context.Background(), nil, func() error { calls++; return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Retry = %v, want %v", err, wantErr)
	}
	if calls != 4 {
		t.Fatalf("fn called %d times, want 4", calls)
	}
}

func TestRetryPermanentErrorStops(t *testing.T) {
	b := Backoff{Attempts: 5, Sleep: func(time.Duration) {}}
	permanent := errors.New("bad request")
	calls := 0
	err := b.Retry(context.Background(), func(err error) bool { return !errors.Is(err, permanent) },
		func() error { calls++; return permanent })
	if !errors.Is(err, permanent) {
		t.Fatalf("Retry = %v, want %v", err, permanent)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1 (permanent error must not retry)", calls)
	}
}

func TestRetryCanceledContext(t *testing.T) {
	b := Backoff{Attempts: 3}
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	wantErr := errors.New("down")
	// Cancel during the first attempt, so Retry is told while it sleeps
	// before the second.
	err := b.Retry(ctx, nil, func() error { calls++; cancel(); return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Retry = %v, want the last attempt error %v", err, wantErr)
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1 (cancellation must stop the loop)", calls)
	}
}
