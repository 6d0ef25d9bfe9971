//go:build !linux

package main

import "time"

// waitUntil blocks until t.
func waitUntil(t time.Time) { time.Sleep(time.Until(t)) }
