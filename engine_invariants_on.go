//go:build invariants

package temporalir

import "sync"

// This file is the engine half of the `-tags invariants` runtime
// assertion layer: it checks the "callers hold the lock" contract of the
// engine's *Locked helpers on every call, where -race sees a missing
// lock only when a test interleaves a writer with that call.

// engineInvariantsEnabled reports whether the engine's runtime assertion
// layer is compiled in.
const engineInvariantsEnabled = true

// assertEngineLocked panics if mu is not held (read or write) by anyone.
// It exploits TryLock: acquiring the exclusive lock succeeds only when no
// reader or writer holds mu, so success proves the caller violated the
// "must hold the lock" contract (today the dictionary lock e.dmu). On
// failure somebody holds the lock — by the contract, the caller — and
// the probe cost is a single atomic.
func assertEngineLocked(mu *sync.RWMutex, site string) {
	if mu.TryLock() {
		mu.Unlock()
		// invariants-build assertion, compiled out of normal builds
		panic("temporalir: " + site + " called without holding the required lock (invariant violation)")
	}
}
