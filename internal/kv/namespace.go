package kv

import "strconv"

// NamespaceKey prefixes key with a tenant namespace, producing the flat
// key the store (and the cluster router) actually sees. Namespaced keys
// keep tenants disjoint inside a shared store while staying ordinary
// string keys — Scan over "t3/" iterates exactly tenant 3's records.
func NamespaceKey(tenant int, key string) string {
	return "t" + strconv.Itoa(tenant) + "/" + key
}
