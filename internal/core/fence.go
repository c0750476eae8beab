package core

// The routing fence: every node holds the routing record of the cluster it
// serves, and serves a routed call only at the record's generation. A
// membership change raises the generation one node at a time (see
// Cluster.handOff), so a call routed on a table a change has replaced is
// refused by the node before it can read or write an arc the node gave up —
// whichever front sent it.

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"shhc/internal/fingerprint"
	"shhc/internal/ring"
)

// Routing is the routing record: the membership a consistent-hash table is
// built from, and the generation that names it. Routed generations start
// at 1; a node holding the zero record was never given one.
type Routing struct {
	Gen      uint64
	VNodes   int // virtual nodes per member; 0 selects ring.DefaultVirtualNodes
	Replicas int
	Members  []ring.NodeID
}

// RoutingHolder is implemented by backends that keep a routing record and
// fence the calls routed to them on it: *Node directly, *rpc.Client over
// the routing verb. JoinNode and DrainNode hand the record out through it.
type RoutingHolder interface {
	// Routing adopts rec when its generation is above the node's, returning
	// only once every call the node admitted at its older generation has
	// finished, and answers with the record the node then holds. An offer
	// with generation 0 only reads.
	Routing(ctx context.Context, rec Routing) (Routing, error)
}

// StaleRouteError refuses a call routed on a generation older than the
// node's. Gen is the node's generation; the node did nothing for the call.
type StaleRouteError struct{ Gen uint64 }

func (e *StaleRouteError) Error() string {
	return fmt.Sprintf("core: stale route: the node is at routing generation %d", e.Gen)
}

// ErrUnknownMember fails a call routed to a member that the record in force
// names and this cluster has no backend for.
var ErrUnknownMember = errors.New("core: the routing record names a member this cluster has no backend for")

type routeGenKey struct{}

// WithRouteGen returns ctx carrying the routing generation a call was
// routed on; the rpc client puts it in the frame header, and the server
// puts it back.
func WithRouteGen(ctx context.Context, gen uint64) context.Context {
	return context.WithValue(ctx, routeGenKey{}, gen)
}

// RouteGen is the routing generation ctx carries, 0 for an unrouted call.
func RouteGen(ctx context.Context) uint64 {
	gen, _ := ctx.Value(routeGenKey{}).(uint64)
	return gen
}

// epoch is the generation a node serves: its record, and a channel closed
// when a newer record replaces it.
type epoch struct {
	rec  Routing
	next chan struct{}
}

// admit lets a call in at the generation ctx carries, or refuses it. A call
// routed on a newer generation waits, under ctx, until the node reaches it;
// an unrouted call, and every call to a node that was never given a record,
// is served at once. An admitted routed call (ok) holds n.fence for reading
// until the caller releases it, so a raise waits it out.
func (n *Node) admit(ctx context.Context) (ok bool, err error) {
	gen := RouteGen(ctx)
	if gen == 0 {
		return false, nil
	}
	for {
		n.fence.RLock()
		e := n.epoch
		if e.rec.Gen == 0 || gen == e.rec.Gen {
			return true, nil
		}
		n.fence.RUnlock()
		if gen < e.rec.Gen {
			return false, &StaleRouteError{Gen: e.rec.Gen}
		}
		select {
		case <-e.next:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

// Routing adopts rec when it is newer than the node's record (see
// RoutingHolder): taking the fence for writing waits out every call the
// node admitted at its older generation.
func (n *Node) Routing(ctx context.Context, rec Routing) (Routing, error) {
	n.fence.RLock()
	cur := n.epoch.rec
	n.fence.RUnlock()
	if rec.Gen <= cur.Gen {
		return cur, nil
	}
	n.fence.Lock()
	defer n.fence.Unlock()
	if rec.Gen > n.epoch.rec.Gen {
		rec.Members = slices.Clone(rec.Members)
		close(n.epoch.next)
		n.epoch = &epoch{rec: rec, next: make(chan struct{})}
	}
	return n.epoch.rec, nil
}

var _ RoutingHolder = (*Node)(nil)

// absent stands in for a member the record in force names and the cluster
// has no backend for: every call to it fails with ErrUnknownMember.
type absent ring.NodeID

func (a absent) err() error      { return fmt.Errorf("%w: %s", ErrUnknownMember, string(a)) }
func (a absent) ID() ring.NodeID { return ring.NodeID(a) }
func (a absent) Close() error    { return nil }
func (a absent) Lookup(context.Context, fingerprint.Fingerprint) (LookupResult, error) {
	return LookupResult{}, a.err()
}
func (a absent) LookupOrInsert(context.Context, fingerprint.Fingerprint, Value) (LookupResult, error) {
	return LookupResult{}, a.err()
}
func (a absent) BatchLookupOrInsert(context.Context, []Pair) ([]LookupResult, error) {
	return nil, a.err()
}
func (a absent) Insert(context.Context, fingerprint.Fingerprint, Value) error { return a.err() }
func (a absent) Stats(context.Context) (NodeStats, error)                     { return NodeStats{}, a.err() }

// refusal is a node's STALE_ROUTE answer, kept with the backend that gave
// it: the cluster reads the record that node holds.
type refusal struct {
	from Backend
	gen  uint64
}

func (r *refusal) Error() string {
	return fmt.Sprintf("core: %s refused a stale-routed call: it is at routing generation %d", r.from.ID(), r.gen)
}

// refusedBy is b's refusal in err, or nil when err is none.
func refusedBy(b Backend, err error) *refusal {
	var s *StaleRouteError
	if errors.As(err, &s) {
		return &refusal{from: b, gen: s.Gen}
	}
	return nil
}
