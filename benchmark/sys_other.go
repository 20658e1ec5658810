//go:build !linux

package main

import (
	"errors"
	"time"
)

func disableTHP() string          { return "not supported on this OS" }
func idleSpin(int) error          { return errors.New("not supported on this OS") }
func keepAwake() (func(), string) { return func() {}, "not supported on this OS" }
func sleepUntil(t time.Time)      { time.Sleep(time.Until(t)) }
func cpuTime() time.Duration      { return 0 }
func kernelVersion() string       { return "unknown" }
func thpSetting() string          { return "n/a" }
