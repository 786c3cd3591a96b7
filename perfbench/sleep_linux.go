//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// sleeper waits for a deadline on a timerfd registered with the Go
// netpoller. time.Sleep is the wrong tool for an open-loop generator: when
// the process is idle, the runtime rounds a sub-millisecond timer up to
// the next 1 ms poll tick, so a 50 µs sleep overshoots by about a
// millisecond. A timerfd fires at the kernel's high-resolution timer and
// wakes the poller at once, and the waiting goroutine is parked, not
// spinning, so the generator leaves the cores to the daemon.
type sleeper struct {
	f  *os.File
	fd int
}

// itimerspec mirrors struct itimerspec on 64-bit Linux.
type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	// A non-blocking descriptor makes os.NewFile hand it to the poller.
	return &sleeper{f: os.NewFile(fd, "timerfd"), fd: int(fd)}, nil
}

// until blocks until the deadline has passed.
func (s *sleeper) until(deadline time.Time) error {
	d := time.Until(deadline)
	if d <= 0 {
		return nil
	}
	its := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&its)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var buf [8]byte
	if _, err := s.f.Read(buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (s *sleeper) close() { s.f.Close() }
