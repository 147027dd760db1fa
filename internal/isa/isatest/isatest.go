// Package isatest runs a test once per kernel tier. Only tests import it.
package isatest

import (
	"testing"

	"efficsense/internal/isa"
)

// ForEachTier runs fn as one subtest per kernel tier, widest first, with
// the kernels lowered to it; tiers the host lacks are skipped with a
// message, and the tiers that ran are logged. The tier in force before
// the call is restored on return.
func ForEachTier(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	var ran []string
	for _, tr := range []isa.Tier{isa.AVX512, isa.AVX, isa.Go} {
		t.Run(tr.String(), func(t *testing.T) {
			if tr > isa.Host {
				t.Skipf("host lacks the %s kernels", tr)
			}
			defer isa.Lower(tr)()
			fn(t)
			ran = append(ran, tr.String())
		})
	}
	t.Logf("kernel tiers run: %v", ran)
}
