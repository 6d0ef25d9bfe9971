package main

import (
	"syscall"
	"time"
)

// waitUntil blocks until t. The runtime rounds a short time.Sleep up to a
// whole millisecond when the process is idle, which would add about half
// a millisecond to every open-loop latency; nanosleep does not.
func waitUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}
