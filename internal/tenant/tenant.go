// Package tenant is the multi-tenant serving layer: a registry of
// per-tenant engines created lazily on first use and evicted (with a
// spill to disk) when cold, per-tenant limits and quotas, and one
// admission controller that applies each tenant's rate and in-flight
// caps, the node's capacity and weighted fair shares of it.
//
// The package is deliberately engine-agnostic: the registry is generic
// over a small Engine interface (Save + Epoch) and is handed
// constructor closures, so it knows nothing about index methods or
// options. The server layer owns that wiring.
package tenant

import "fmt"

// Header is the HTTP header carrying the tenant identity, following
// the X-Scope-OrgID convention of Cortex/Loki/Pyroscope-style
// multi-tenant stores.
const Header = "X-Scope-OrgID"

// DefaultID is the tenant used when no identity is supplied and the
// operator has not overridden the default. Single-tenant deployments
// never need to send the header.
const DefaultID = "default"

// MaxIDLen bounds tenant-id length: ids become metric label values and
// spill-file names, so they must stay short and filesystem-safe.
const MaxIDLen = 64

// ValidateID checks that a tenant id is usable as a metric label value
// and a spill-file stem: non-empty, at most MaxIDLen bytes, and
// restricted to [A-Za-z0-9._-] with no leading dot (so ids can never
// traverse paths or hide as dotfiles).
func ValidateID(id string) error {
	if id == "" {
		return fmt.Errorf("tenant: empty tenant id")
	}
	if len(id) > MaxIDLen {
		return fmt.Errorf("tenant: id longer than %d bytes", MaxIDLen)
	}
	if id[0] == '.' {
		return fmt.Errorf("tenant: id must not start with a dot")
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant: id contains invalid byte %q", c)
		}
	}
	return nil
}
