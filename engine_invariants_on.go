//go:build invariants

package temporalir

import "sync"

// This file is the engine half of the `-tags invariants` runtime
// assertion layer: the dynamic counterpart of the static lock-guard
// analyzer in internal/tools/irlint. The linter proves the lock is taken
// on every textual path; these assertions catch the cases it cannot see
// (callers of lock-holding helpers reached through new code paths).

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
		// lint:panic-ok invariants-build assertion, compiled out of normal builds
		panic("temporalir: " + site + " called without holding the required lock (invariant violation)")
	}
}
