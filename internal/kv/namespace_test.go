package kv

import (
	"strconv"
	"strings"
	"testing"
)

func TestNamespaceKeyRoundTrip(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		tenant int
		key    string
	}{
		{0, "user42"},
		{17, ""},
		{3, "a/b/c"}, // keys may contain separators of their own
	} {
		nk := NamespaceKey(tc.tenant, tc.key)
		key, ok := strings.CutPrefix(nk, "t"+strconv.Itoa(tc.tenant)+"/")
		if !ok || key != tc.key {
			t.Fatalf("NamespaceKey(%d, %q) = %q, want the key after \"t%d/\"", tc.tenant, tc.key, nk, tc.tenant)
		}
	}
}
