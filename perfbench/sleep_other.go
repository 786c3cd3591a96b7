//go:build !linux

package main

import "time"

// sleeper falls back to time.Sleep off Linux; expect timer oversleep to
// show up in gen.lag_* there.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (*sleeper) until(deadline time.Time) error {
	time.Sleep(time.Until(deadline))
	return nil
}

func (*sleeper) close() {}
