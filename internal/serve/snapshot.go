package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rwskit/internal/browser"
	"rwskit/internal/core"
)

// policyID indexes the vendor policies the serve layer knows about.
type policyID int

// The vendor policies, in table order.
const (
	policyRWS policyID = iota
	policyStrict
	policyPrompt
	policyLegacy
	numPolicies
)

// policyFor maps the policy query parameter to a table index. The
// prompt-based policies are modelled with a declining user: the verdict
// reports what happens with no user opt-in, which is the privacy-relevant
// default the paper compares vendors on.
//
//rws:hotpath
func policyFor(name string) (policyID, error) {
	switch name {
	case "", "rws", "chrome":
		return policyRWS, nil
	case "strict", "brave":
		return policyStrict, nil
	case "prompt", "firefox", "safari":
		return policyPrompt, nil
	case "legacy", "unpartitioned":
		return policyLegacy, nil
	default:
		// Unknown-policy requests leave the hot path: a 400 may allocate.
		return 0, fmt.Errorf("unknown policy %q (want rws, strict, prompt, or legacy)", name) //rws:coldpath
	}
}

// policyInfo is the precomputed per-policy metadata plus the live policy
// value used when a query falls off the precomputed plane.
type policyInfo struct {
	name               string
	partitionByDefault bool
	live               browser.Policy
}

// verdict is one precomputed partition outcome. filled distinguishes a
// computed cell from a role combination the list never produces.
type verdict struct {
	decision browser.Decision
	granted  bool
	filled   bool
}

// hostEntry is the precomputed membership record for one canonical host.
// setIdx indexes the snapshot's set-order tables (members).
type hostEntry struct {
	set    *core.Set
	setIdx int32
	role   core.Role
}

// numRoles sizes the verdict table's role axes (primary, associated,
// service, cctld).
const numRoles = 4

// SnapshotOptions configures BuildSnapshot. The zero value reproduces
// NewSnapshot: parallel construction across GOMAXPROCS shards with no
// memory budget.
type SnapshotOptions struct {
	// Shards is the number of construction workers, and the number of
	// shards the host index is split into. 0 means GOMAXPROCS.
	Shards int
	// MemoryBudget caps the estimated bytes of the snapshot's derived
	// tables. 0 means unlimited. The query tables (host index, /v1/set
	// member table) must fit or BuildSnapshot errors; the
	// /v1/list export body is kept only if it fits too, and otherwise
	// /v1/list encodes the list per request (same bytes). The decision is
	// recorded in BuildInfo and surfaced by /v1/metrics.
	MemoryBudget int64
}

// BuildInfo records how a snapshot was constructed — the shard count, the
// wall-clock build time, the memory estimate, and whether the memory
// budget dropped the /v1/list export body. Exposed via /v1/metrics.
type BuildInfo struct {
	// Shards is the worker/shard count actually used.
	Shards int `json:"shards"`
	// BuildNanos is the wall-clock construction time in nanoseconds.
	BuildNanos int64 `json:"build_nanos"`
	// EstimatedBytes is the estimated footprint of the derived tables
	// after any degradation.
	EstimatedBytes int64 `json:"estimated_bytes"`
	// MemoryBudget echoes the configured budget (0 = unlimited).
	MemoryBudget int64 `json:"memory_budget,omitempty"`
	// Tier is "full", or "list-dropped" when the budget left no room for
	// the /v1/list export body.
	Tier string `json:"tier"`
}

// Snapshot is the precomputed, immutable query plane the server answers
// from. BuildSnapshot derives everything the hot path needs from a
// *core.List once:
//
//   - a normalized host index (every member keyed by canonical host),
//     sharded so construction parallelises and lookups touch one shard,
//   - the /v1/set member table (one member slice per set),
//   - composition statistics,
//   - a per-policy partition-verdict table over (topRole, embRole,
//     sameSet), so /v1/partition for list members is a table lookup
//     instead of a browser build + visit + embed per request,
//   - the list's content hash and, budget permitting, its /v1/list
//     export body.
//
// A Snapshot's query plane is never mutated after construction returns,
// so any number of request goroutines may read it without locks; the
// Store installs a fresh one atomically. The one mutable field is
// the atomic requests counter, which feeds the per-version hit metrics.
type Snapshot struct {
	list *core.List
	hash string

	// etag is the strong HTTP validator derived from the content hash
	// (`"<hash>"`), and etagHeader is the same value pre-wrapped as a
	// one-element header slice so the hot path installs it with a single
	// map assignment (w.Header()["Etag"] = snap.etagHeader) — no
	// per-request slice allocation.
	etag       string
	etagHeader []string

	// requests counts the queries resolved to this snapshot under any
	// version spelling (current, version=, as_of=, diff/churn endpoints).
	// Metrics-only; incremented lock-free on the request path.
	requests atomic.Uint64

	// sets is list.Sets(), the set-index space hostEntry.setIdx and
	// members are keyed by.
	sets       []*core.Set
	hostShards []map[string]hostEntry
	// members holds the /v1/set member slice per set index: Set answers
	// with a row of it, so the response needs no allocation (core.Set's
	// Members allocates and sorts).
	members [][]SetMember

	stats    core.CompositionStats
	numSites int

	// respList is the canonical compact list JSON (/v1/list's body, the
	// replication export followers poll), encoded once so the leader
	// serves its own list without re-marshalling per fetch; nil when a
	// memory budget left no room for it.
	respList []byte

	info BuildInfo

	policies [numPolicies]policyInfo
	// sameSet holds the verdicts for same-set pairs, indexed by
	// [policy][topRole][embRole]; cross holds the (role-independent)
	// verdict for pairs that are not in the same set. Policies only
	// consult roles inside their same-set branch, which is why one cross
	// cell per policy suffices; TestPartitionTableMatchesLive holds the
	// tables to the live simulation.
	sameSet [numPolicies][numRoles][numRoles]verdict
	cross   [numPolicies]verdict
}

// NewSnapshot precomputes the query plane for list with default options.
func NewSnapshot(list *core.List) *Snapshot {
	s, err := BuildSnapshot(list, SnapshotOptions{})
	if err != nil {
		// Unreachable: construction can only fail under a MemoryBudget.
		panic("serve: NewSnapshot: " + err.Error())
	}
	return s
}

// BuildSnapshot precomputes the query plane for list under opts.
func BuildSnapshot(list *core.List, opts SnapshotOptions) (*Snapshot, error) {
	start := time.Now()
	s := newSnapshot(list, opts.Shards)
	s.info.MemoryBudget = opts.MemoryBudget
	hostBytes, memberBytes := s.buildParallel(s.info.Shards)

	// The estimate covers the big derived tables: the sharded host index
	// (key bytes + entry/bucket overhead) and the member table (string
	// bytes + struct + slice headers). Queries cannot be answered without
	// them, so they must fit; the /v1/list export body is kept only if it
	// fits too, since /v1/list can encode the list per request instead.
	estimated := hostBytes + memberBytes
	if opts.MemoryBudget > 0 && estimated > opts.MemoryBudget {
		return nil, fmt.Errorf("serve: snapshot query tables need an estimated %d bytes; memory budget is %d", estimated, opts.MemoryBudget)
	}
	s.info.Tier = "full"
	body, err := list.MarshalJSON()
	if err == nil && (opts.MemoryBudget <= 0 || estimated+int64(len(body))+1 <= opts.MemoryBudget) {
		s.respList = append(body, '\n')
		estimated += int64(len(s.respList))
	} else {
		s.info.Tier = "list-dropped"
	}
	s.info.EstimatedBytes = estimated
	s.info.BuildNanos = time.Since(start).Nanoseconds()
	return s, nil
}

// newSnapshot allocates a snapshot for list with empty query tables split
// into the given number of shards (0 means GOMAXPROCS, clamped to
// [1, sets]) and the per-policy metadata filled in.
func newSnapshot(list *core.List, shards int) *Snapshot {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if n := list.NumSets(); shards > n && n > 0 {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	hash := list.Hash()
	s := &Snapshot{
		list:       list,
		hash:       hash,
		etag:       `"` + hash + `"`,
		sets:       list.Sets(),
		hostShards: make([]map[string]hostEntry, shards),
		members:    make([][]SetMember, list.NumSets()),
		stats:      list.Stats(),
		numSites:   list.NumSites(),
		info:       BuildInfo{Shards: shards},
	}
	s.etagHeader = []string{s.etag}
	s.policies = [numPolicies]policyInfo{
		policyRWS:    {live: browser.RWSPolicy{List: list}},
		policyStrict: {live: browser.StrictPolicy{}},
		policyPrompt: {live: browser.PromptPolicy{}},
		policyLegacy: {live: browser.LegacyPolicy{}},
	}
	for pid := range s.policies {
		info := &s.policies[pid]
		info.name = info.live.Name()
		info.partitionByDefault = info.live.PartitionByDefault()
	}
	return s
}

// memberSliceBytes estimates the heap footprint of one member slice:
// string bytes plus ~48 per SetMember struct and 24 for the slice header.
func memberSliceBytes(pre []SetMember) int64 {
	b := int64(24)
	for _, m := range pre {
		b += int64(len(m.Site)+len(m.Role)+len(m.AliasOf)) + 48
	}
	return b
}

// shardOf maps a canonical host to its shard with inline FNV-1a; cheap
// enough that lookups pay one short hash before the map access.
//
//rws:hotpath
//rws:allocfree
func shardOf(host string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(host); i++ {
		h ^= uint32(host[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// lookup resolves a canonical host against the sharded index.
//
//rws:hotpath
//rws:allocfree
func (s *Snapshot) lookup(host string) (hostEntry, bool) {
	e, ok := s.hostShards[shardOf(host, len(s.hostShards))][host]
	return e, ok
}

// shardKV is one host-index entry routed to a shard during phase A.
type shardKV struct {
	host string
	e    hostEntry
}

// repPair is a worker's first member pair exhibiting a (topRole, embRole)
// combination: the candidate representative for that verdict cell.
type repPair struct {
	setIdx   int32
	top, emb string
	filled   bool
}

// workerOut is everything one phase-A worker produces from its
// contiguous set range, merged deterministically in phase B.
type workerOut struct {
	perShard    [][]shardKV
	reps        [numRoles][numRoles]repPair
	hostBytes   int64
	memberBytes int64
}

// buildParallel partitions the sets across `shards` workers. Each worker
// owns a contiguous set range: it builds member slices (written to
// disjoint indices of s.members, race-free), routes host-index entries to
// per-(worker,shard) buffers, and records its first member pair per
// (topRole, embRole) combination. Phase B then merges: per-shard maps are
// built in parallel with workers applied in order, and verdict
// representatives are merged by taking the first worker's pair —
// worker ranges are ordered, so that is exactly the globally-first pair
// the serial path would have evaluated. Each verdict cell then gets one
// fresh-profile evaluation per policy, identical to the serial result
// (TestParallelSnapshotMatchesSerial holds it to a single-threaded
// reference build).
func (s *Snapshot) buildParallel(shards int) (hostBytes, memberBytes int64) {
	outs := make([]*workerOut, shards)
	var wg sync.WaitGroup
	for w := 0; w < shards; w++ {
		lo := w * len(s.sets) / shards
		hi := (w + 1) * len(s.sets) / shards
		out := &workerOut{perShard: make([][]shardKV, shards)}
		outs[w] = out
		wg.Add(1)
		go func(lo, hi int, out *workerOut) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				set := s.sets[i]
				ms := set.Members()
				pre := make([]SetMember, len(ms))
				var present [numRoles]bool
				for j, m := range ms {
					pre[j] = SetMember{Site: m.Site, Role: m.Role.String(), AliasOf: m.AliasOf}
					sh := shardOf(m.Site, shards)
					out.perShard[sh] = append(out.perShard[sh], shardKV{m.Site, hostEntry{set: set, setIdx: int32(i), role: m.Role}})
					out.hostBytes += int64(len(m.Site)) + 64
					present[m.Role] = true
				}
				s.members[i] = pre
				out.memberBytes += memberSliceBytes(pre)

				// Representative scan, skipped when this set's role
				// combinations are all already represented locally — after a
				// handful of sets this prunes the O(members²) pass entirely.
				novel := false
				for r1 := 0; r1 < numRoles && !novel; r1++ {
					for r2 := 0; r2 < numRoles; r2++ {
						if present[r1] && present[r2] && !out.reps[r1][r2].filled {
							novel = true
							break
						}
					}
				}
				if !novel {
					continue
				}
				for _, top := range ms {
					for _, emb := range ms {
						if top.Site == emb.Site {
							continue
						}
						r := &out.reps[top.Role][emb.Role]
						if !r.filled {
							*r = repPair{setIdx: int32(i), top: top.Site, emb: emb.Site, filled: true}
						}
					}
				}
			}
		}(lo, hi, out)
	}
	wg.Wait()

	// Phase B: per-shard host maps, built in parallel, workers applied in
	// order (entries are unique across sets anyway — NewList guarantees
	// disjoint sets — so order only matters for determinism of iteration
	// internals, not contents).
	wg.Add(shards)
	for sh := 0; sh < shards; sh++ {
		go func(sh int) {
			defer wg.Done()
			n := 0
			for _, out := range outs {
				n += len(out.perShard[sh])
			}
			m := make(map[string]hostEntry, n)
			for _, out := range outs {
				for _, kv := range out.perShard[sh] {
					m[kv.host] = kv.e
				}
			}
			s.hostShards[sh] = m
		}(sh)
	}
	wg.Wait()

	for _, out := range outs {
		hostBytes += out.hostBytes
		memberBytes += out.memberBytes
	}

	// Merge verdict representatives: the first worker (in range order)
	// holding a cell holds the globally-first pair for it.
	var reps [numRoles][numRoles]repPair
	for _, out := range outs {
		for r1 := 0; r1 < numRoles; r1++ {
			for r2 := 0; r2 < numRoles; r2++ {
				if !reps[r1][r2].filled && out.reps[r1][r2].filled {
					reps[r1][r2] = out.reps[r1][r2]
				}
			}
		}
	}
	for pid := range s.policies {
		live := s.policies[pid].live
		// Cross-set cell: any pair of hosts that are not in the same set —
		// including off-list hosts — takes this verdict, because every
		// policy decides such requests without consulting the list or the
		// roles. The .invalid TLD is reserved (RFC 2606), so these hosts
		// can never be list members.
		v := browser.EvaluateFresh(live, "cross-top.invalid", "cross-embedded.invalid")
		s.cross[pid] = verdict{decision: v.Decision, granted: v.Granted, filled: true}
		for r1 := 0; r1 < numRoles; r1++ {
			for r2 := 0; r2 < numRoles; r2++ {
				if rep := reps[r1][r2]; rep.filled {
					ev := browser.EvaluateFresh(live, rep.top, rep.emb)
					s.sameSet[pid][r1][r2] = verdict{decision: ev.Decision, granted: ev.Granted, filled: true}
				}
			}
		}
	}
	return hostBytes, memberBytes
}

// List returns the list the snapshot was derived from.
func (s *Snapshot) List() *core.List { return s.list }

// Hash returns the content hash of the underlying list.
func (s *Snapshot) Hash() string { return s.hash }

// NumSets returns the number of sets in the snapshot.
func (s *Snapshot) NumSets() int { return s.list.NumSets() }

// NumSites returns the number of member sites in the snapshot.
func (s *Snapshot) NumSites() int { return s.numSites }

// BuildInfo reports how the snapshot was constructed.
func (s *Snapshot) BuildInfo() BuildInfo { return s.info }

// SameSet answers a relatedness query against the precomputed host index.
// Inputs may be any legitimate host spelling (scheme, port, trailing dot,
// mixed case); the response echoes them as given.
//
//rws:hotpath
func (s *Snapshot) SameSet(a, b string) SameSetResponse {
	resp := SameSetResponse{A: a, B: b}
	ea, aok := s.lookup(core.CanonicalHost(a))
	eb, bok := s.lookup(core.CanonicalHost(b))
	if aok && bok && ea.set == eb.set {
		resp.SameSet = true
		resp.Primary = ea.set.Primary
	}
	return resp
}

// Set answers a set-lookup query; Members is the set's row of the member
// table, shared, so callers must not mutate it.
func (s *Snapshot) Set(site string) SetResponse {
	resp := SetResponse{Site: site}
	if e, ok := s.lookup(core.CanonicalHost(site)); ok {
		resp.Found = true
		resp.Role = e.role.String()
		resp.Primary = e.set.Primary
		resp.Members = s.members[e.setIdx]
	}
	return resp
}

// Partition answers a storage-partitioning query. For pairs of list
// members the verdict comes from the precomputed table; a same-host pair
// is trivially granted (same-site embedding never reaches the policy); any
// query involving an off-list host falls back to the live fresh-profile
// evaluation on the normalized hosts.
//
//rws:hotpath
func (s *Snapshot) Partition(policyName, top, embedded string) (PartitionResponse, error) {
	pid, err := policyFor(policyName)
	if err != nil {
		return PartitionResponse{}, err
	}
	info := &s.policies[pid]
	ct, ce := core.CanonicalHost(top), core.CanonicalHost(embedded)
	te, tok := s.lookup(ct)
	ee, eok := s.lookup(ce)
	sameSet := tok && eok && te.set == ee.set

	var v verdict
	switch {
	case ct == ce:
		v = verdict{decision: browser.GrantedAuto, granted: true, filled: true}
	case sameSet:
		v = s.sameSet[pid][te.role][ee.role]
	case tok && eok:
		v = s.cross[pid]
	}
	if !v.filled {
		// Off-list pairs fall off the precomputed plane to the live
		// simulator; that exit is the audited slow path.
		ev := browser.EvaluateFresh(info.live, ct, ce) //rws:coldpath
		v = verdict{decision: ev.Decision, granted: ev.Granted, filled: true}
	}
	return PartitionResponse{
		Policy:               info.name,
		Top:                  top,
		Embedded:             embedded,
		SameSet:              sameSet,
		PartitionedByDefault: info.partitionByDefault,
		Decision:             v.decision.String(),
		Granted:              v.granted,
	}, nil
}
