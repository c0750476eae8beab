package analysis

import (
	"encoding/json"
	"fmt"
)

// Facts are how analyzers see across package boundaries: while analyzing
// package P, an analyzer may export a fact about one of P's objects
// (keyed by ObjKey), and when a dependent package is analyzed later it
// imports it. ioflow exports "this function performs I/O" facts
// bottom-up through the dependency order for lockio and ctxfirst.
//
// A fact is stored as JSON and decoded into the importer's value, so an
// importer never shares memory with the exporting pass.

// factStore holds every exported fact of a run, keyed by namespace +
// "\x00" + object key.
type factStore map[string]json.RawMessage

func newFactStore() factStore { return make(factStore) }

func (fs factStore) export(ns, key string, fact any) error {
	raw, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("analysis: marshal %s fact for %s: %v", ns, key, err)
	}
	fs[ns+"\x00"+key] = raw
	return nil
}

func (fs factStore) importFact(ns, key string, out any) bool {
	raw, ok := fs[ns+"\x00"+key]
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// ExportNamespacedFact and ImportNamespacedFact are the shared-namespace
// variants: helper fact engines used by more than one analyzer (the
// ioflow I/O call-graph facts) publish under their own namespace so
// whichever analyzer runs first computes them and the rest reuse them.
func (p *Pass) ExportNamespacedFact(ns, key string, fact any) error {
	if key == "" {
		return fmt.Errorf("analysis: empty fact key")
	}
	return p.facts.export(ns, key, fact)
}

// ImportNamespacedFact loads a fact from a shared namespace.
func (p *Pass) ImportNamespacedFact(ns, key string, out any) bool {
	if key == "" {
		return false
	}
	return p.facts.importFact(ns, key, out)
}
