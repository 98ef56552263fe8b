// Package rwskit is a Go implementation and measurement toolkit for
// Google's Related Website Sets (RWS) proposal, built as a full
// reproduction of "A First Look at Related Website Sets" (McQuistin,
// Snyder, Haddadi, Tyson — IMC 2024).
//
// The package is the public facade over the internal implementation. It
// provides:
//
//   - the RWS list model in the upstream related_website_sets.JSON schema,
//     with canonicalisation, relatedness queries, and snapshot diffing;
//   - a Public Suffix List engine and eTLD+1 (site) semantics;
//   - the full set-submission validator (the GitHub bot's checks,
//     including live ".well-known/related-website-set.json" verification);
//   - a browser storage-partitioning simulator with per-vendor policies
//     (strict, prompt-based, Chrome+RWS, legacy unpartitioned);
//   - the paper's measurement pipelines: the §3 relatedness user study,
//     SLD edit-distance and HTML-similarity analyses, list composition
//     and category timelines, and the GitHub governance analysis;
//   - a parallel experiment runner that regenerates every table and figure
//     in the paper's evaluation (see EXPERIMENTS.md), sharing one build of
//     each expensive intermediate across experiments; and
//   - an HTTP query service (rws-serve) answering relatedness, set, and
//     storage-partitioning queries against a hot-swappable list snapshot.
//
// # Quick start
//
//	list, err := rwskit.Snapshot() // embedded 26 Mar 2024 reconstruction
//	if err != nil { ... }
//	related := list.SameSet("bild.de", "autobild.de") // true
//
//	arts, err := rwskit.RunExperiments(context.Background(), 1)
//	for _, a := range arts {
//		fmt.Println(a.Rendered)
//	}
//
// Determinism: every stochastic component takes an explicit seed; the
// same seed reproduces every artifact bit-for-bit.
package rwskit

import (
	"context"
	"sort"
	"strings"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/analysis"
	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/disconnect"
	"rwskit/internal/domain"
	"rwskit/internal/psl"
	"rwskit/internal/serve"
	"rwskit/internal/source"
	"rwskit/internal/validate"
	"rwskit/internal/wellknown"
)

// List is a Related Website Sets list: a collection of disjoint sets with
// an index for relatedness queries.
type List = core.List

// Set is one Related Website Set.
type Set = core.Set

// Member is a site's membership record within a set.
type Member = core.Member

// Role identifies how a site participates in a set.
type Role = core.Role

// Roles, mirroring the upstream schema's subsets.
const (
	RolePrimary    = core.RolePrimary
	RoleAssociated = core.RoleAssociated
	RoleService    = core.RoleService
	RoleCCTLD      = core.RoleCCTLD
)

// ParseList parses a list in the upstream related_website_sets.JSON
// schema.
func ParseList(data []byte) (*List, error) { return core.ParseJSON(data) }

// ParseSet parses a single set object (the payload of an RWS pull
// request).
func ParseSet(data []byte) (*Set, error) { return core.ParseSetJSON(data) }

// Snapshot returns the embedded reconstruction of the RWS list as of 26
// March 2024 — the snapshot analysed throughout the paper.
func Snapshot() (*List, error) { return dataset.List() }

// Diff describes how a list changed between two snapshots.
type Diff = core.Diff

// DiffLists compares two list snapshots by set primary.
func DiffLists(old, new *List) Diff { return core.DiffLists(old, new) }

// ComposeDiffs combines the diffs old→mid and mid→new into old→new,
// cancelling changes that were undone across the span. See
// core.ComposeDiffs for the one caveat (a set removed and re-added).
func ComposeDiffs(a, b Diff) Diff { return core.ComposeDiffs(a, b) }

// ChurnReport digests a chronological chain of list snapshots: per-step
// and cumulative add/remove/mutate counts, per-set lifecycles (born,
// died, renamed), and a volatility ranking. rws-serve's /v1/churn
// endpoint serves the same digest over its retained version chain.
type ChurnReport = core.ChurnReport

// ChurnStep is one transition of a ChurnReport.
type ChurnStep = core.ChurnStep

// SetLifecycle tracks one set primary across a churn window.
type SetLifecycle = core.SetLifecycle

// Churn builds a ChurnReport over a chronological snapshot chain.
// adjacent, when non-nil, must hold DiffLists(lists[i], lists[i+1]) at
// index i (callers with precomputed diffs pass them; nil recomputes).
func Churn(lists []*List, adjacent []Diff) (ChurnReport, error) {
	return core.Churn(lists, adjacent)
}

// Version identifies one list revision held by a version store: content
// hash plus provenance (source, observed-at, as-of time).
type Version = core.Version

// CanonicalHost normalizes a site spelling to the canonical bare-host
// form list lookups use: lowercased, scheme prefix, ":port" suffix,
// trailing slash, and trailing root-label dot stripped. All of
// "example.com", "HTTPS://EXAMPLE.COM:443/", and "example.com." answer
// the same in SameSet, FindSet, and every rws-serve endpoint.
func CanonicalHost(s string) string { return core.CanonicalHost(s) }

// SuffixList is a compiled Public Suffix List.
type SuffixList = psl.List

// DefaultSuffixList returns the embedded Public Suffix List snapshot.
func DefaultSuffixList() *SuffixList { return psl.Default() }

// ETLDPlusOne returns the registrable domain (eTLD+1) of host under the
// default suffix list — the Web's site-as-privacy-boundary unit.
func ETLDPlusOne(host string) (string, error) {
	norm, err := domain.Normalize(host)
	if err != nil {
		return "", err
	}
	return psl.Default().ETLDPlusOne(norm)
}

// SLD returns the second-level domain label of host ("poalim" for
// "poalim.xyz"), the unit compared in the paper's Figure 3.
func SLD(host string) (string, error) {
	return domain.SLD(psl.Default(), host)
}

// ValidationReport is the outcome of validating a proposed set.
type ValidationReport = validate.Report

// ValidationIssue is a single bot-comment-style validation failure.
type ValidationIssue = validate.Issue

// ValidationCode is a bot comment category (the Table 3 labels).
type ValidationCode = validate.Code

// Validator runs the RWS submission checks.
type Validator = validate.Validator

// NewValidator returns a validator using the default suffix list. fetch
// may be nil for structural-only validation; existing may be nil to skip
// the disjointness check. See rwskit/internal/wellknown.HTTPFetcher for
// wiring a live fetcher.
func NewValidator(fetch wellknown.Fetcher, existing *List) *Validator {
	return validate.New(psl.Default(), fetch, existing)
}

// ValidateSetOffline runs the structural (non-network) submission checks
// against a proposed set.
func ValidateSetOffline(ctx context.Context, s *Set) ValidationReport {
	return validate.New(psl.Default(), nil, nil).ValidateSet(ctx, s)
}

// WellKnownPath is the path every set member must serve its RWS membership
// document on.
const WellKnownPath = wellknown.Path

// Browser is a simulated browsing profile with partitioned storage.
type Browser = browser.Browser

// Policy decides storage semantics for a vendor configuration.
type Policy = browser.Policy

// NewStrictBrowser returns a profile that always partitions third-party
// storage and never grants access (Brave-like).
func NewStrictBrowser() *Browser { return browser.New(browser.StrictPolicy{}) }

// NewPromptBrowser returns a profile that partitions by default and defers
// storage-access requests to the prompt function (Firefox/Safari-like).
func NewPromptBrowser(prompt browser.PromptFunc) *Browser {
	return browser.New(browser.PromptPolicy{Prompt: prompt})
}

// NewRWSBrowser returns a Chrome-like profile that auto-grants storage
// access between members of the same Related Website Set.
func NewRWSBrowser(list *List) *Browser {
	return browser.New(browser.RWSPolicy{List: list})
}

// NewLegacyBrowser returns a profile with no partitioning at all (the
// third-party-cookie world).
func NewLegacyBrowser() *Browser { return browser.New(browser.LegacyPolicy{}) }

// EntitiesList is a Disconnect-style entities list: domains grouped by
// owning organisation, the ownership-based analogue of the RWS list that
// §5 of the paper compares against.
type EntitiesList = disconnect.List

// OwnershipComparison quantifies the RWS "associated sites" relaxation
// against an ownership-based entities list.
type OwnershipComparison = disconnect.Comparison

// ParseEntitiesList parses the upstream Disconnect entities JSON format.
func ParseEntitiesList(data []byte) (*EntitiesList, error) {
	return disconnect.ParseJSON(data)
}

// CompareOwnership measures how much of the RWS relatedness relation is
// backed by common ownership per the entities list — the paper's §5
// "crucial difference".
func CompareOwnership(entities *EntitiesList, rws *List) OwnershipComparison {
	return disconnect.CompareWithRWS(entities, rws)
}

// GrantNotice is a user-visible indication that a privacy boundary was
// relaxed — the browser-UI mechanism the paper's conclusion proposes.
type GrantNotice = browser.Notice

// IndicatingPolicy wraps a policy and records a GrantNotice for every
// grant it issues.
type IndicatingPolicy = browser.IndicatingPolicy

// NewIndicatingRWSBrowser returns a Chrome-like RWS browser whose grants
// are surfaced as user-visible notices, plus the policy wrapper holding
// them.
func NewIndicatingRWSBrowser(list *List) (*Browser, *IndicatingPolicy) {
	p := &browser.IndicatingPolicy{Inner: browser.RWSPolicy{List: list}}
	return browser.New(p), p
}

// Server answers RWS queries over HTTP (sameset incl. batch pairs, set,
// partition incl. POST batch, stats, metrics, and the /v1/list
// replication export other Servers can follow) against a hot-swappable
// precomputed snapshot. See rwskit/internal/serve for the endpoint
// contract and cmd/rws-serve for the standalone binary.
type Server = serve.Server

// NewServer returns an http.Handler serving RWS queries against list,
// precomputing the query plane (host index, per-role tables, partition
// verdict table) once up front. Server.Swap hot-swaps it under traffic.
func NewServer(list *List) *Server { return serve.New(list) }

// ServerSnapshot is the immutable precomputed query plane a Server
// answers from: normalized host index, per-role membership tables, and
// the per-policy partition-verdict table.
type ServerSnapshot = serve.Snapshot

// NewServerSnapshot precomputes the query plane for list without
// installing it in a server; Server.SwapSnapshot installs a prebuilt one,
// keeping the precompute off the serving path.
func NewServerSnapshot(list *List) *ServerSnapshot { return serve.NewSnapshot(list) }

// SnapshotOptions configures BuildServerSnapshot: the construction shard
// count and a memory budget. The budget must hold the query tables; the
// /v1/list export body is kept only if it fits as well.
type SnapshotOptions = serve.SnapshotOptions

// SnapshotBuildInfo reports how a snapshot was constructed (shards,
// build time, estimated footprint, and the budget tier: "full" or
// "list-dropped"); also surfaced by /v1/metrics as snapshot_build.
type SnapshotBuildInfo = serve.BuildInfo

// BuildServerSnapshot is NewServerSnapshot with explicit construction
// options. It errors only when a MemoryBudget is set and the list's
// query tables (host index, member table, role tables) cannot fit it.
func BuildServerSnapshot(list *List, opts SnapshotOptions) (*ServerSnapshot, error) {
	return serve.BuildSnapshot(list, opts)
}

// ServerStore is a bounded version store of precomputed snapshots: the
// current version serves the lock-free fast path, superseded versions
// stay queryable by hash or as-of time, and diffs between any two
// retained versions are exact DiffLists results.
type ServerStore = serve.Store

// ServerVersionInfo describes one retained version in a store listing.
type ServerVersionInfo = serve.VersionInfo

// NewServerStore returns an empty version store retaining up to capacity
// versions (capacity < 1 selects serve.DefaultRetain). Add at least one
// version before serving from it.
func NewServerStore(capacity int) *ServerStore { return serve.NewStore(capacity) }

// NewServerStoreWith is NewServerStore with explicit snapshot
// construction options applied to every list the store precomputes.
func NewServerStoreWith(capacity int, opts SnapshotOptions) *ServerStore {
	return serve.NewStoreWith(capacity, opts)
}

// AmplifyConfig configures AmplifyList: the set count, the seed, and an
// optional composition profile (nil samples the embedded snapshot's
// empirical distributions).
type AmplifyConfig = amplify.Config

// AmplifyProfile holds the empirical per-set fan-out distributions an
// amplified list is sampled from; derive one from any list with
// amplify.ProfileOf.
type AmplifyProfile = amplify.Profile

// AmplifyList generates a deterministic synthetic RWS list at the
// configured scale (10⁴–10⁶ sets), shaped like the real list: every set
// passes the structural submission checks and aggregate composition
// matches the embedded snapshot's distributions within sampling noise.
// The same config reproduces the same list bit-for-bit.
func AmplifyList(cfg AmplifyConfig) (*List, error) { return amplify.Generate(cfg) }

// NewServerFromStore returns a Server answering queries from st, which
// must already hold a current version. Use it to preload history (e.g.
// the monthly study-window snapshots) before taking traffic.
func NewServerFromStore(st *ServerStore) *Server { return serve.NewFromStore(st) }

// ServerReplicationMetrics is the replication block a follower Server
// advertises in /v1/metrics: the upstream /v1/list URL it tracks, the
// last-synced version hash, swap-propagation lag, and the
// consecutive-304 idle streak. Server.Replication returns it (nil on
// non-followers); wire Server.RecordReplicationPoll to
// SourceWatcher.OnPoll and call Server.RecordReplicationSwap on each
// delivered swap to keep it current. See the README's "Replication &
// edge tiering" section for the full follower topology.
type ServerReplicationMetrics = serve.ReplicationMetrics

// ListSource produces list revisions with change detection: Fetch returns
// ErrListNotModified when the list is unchanged since the previous
// successful Fetch. File and HTTP implementations ship today; see
// OpenSource.
type ListSource = source.Source

// SourceMeta records the provenance of a fetched list revision (content
// hash plus file stat or HTTP validators).
type SourceMeta = source.Meta

// SourceSwap is one list change delivered by a SourceWatcher: the new
// list, its provenance, and a diff against the previous revision.
type SourceSwap = source.Swap

// SourceWatcher polls a ListSource on a ticker and delivers SourceSwaps;
// Refresh forces an unconditional re-read (the SIGHUP path).
type SourceWatcher = source.Watcher

// ErrListNotModified is returned by ListSource.Fetch when the source's
// content has not changed. It is the common case on a poll tick, not a
// failure.
var ErrListNotModified = source.ErrNotModified

// OpenSource returns the ListSource for a list specifier: an http:// or
// https:// URL polls upstream with conditional GETs (ETag /
// If-Modified-Since), anything else reads a local file gated on
// mtime/size. Both also gate on the list content hash.
func OpenSource(spec string) ListSource { return source.Open(spec) }

// NewSourceWatcher returns a SourceWatcher polling src every interval
// (0: only Refresh triggers fetches), diffing the first swap against
// initial. logf, if non-nil, receives fetch-failure log lines.
func NewSourceWatcher(src ListSource, interval time.Duration, initial *List, logf func(format string, args ...any)) *SourceWatcher {
	return source.NewWatcher(src, interval, initial, logf)
}

// Artifact is one regenerated table or figure.
type Artifact = analysis.Artifact

// Experiment is one runnable table/figure reproduction.
type Experiment = analysis.Experiment

// Experiments returns every reproduction experiment in paper order.
func Experiments() []Experiment { return analysis.All() }

// RunExperiments regenerates every table and figure with the given seed.
func RunExperiments(ctx context.Context, seed int64) ([]*Artifact, error) {
	return analysis.RunAll(ctx, analysis.NewSession(analysis.Config{Seed: seed}))
}

// RunExperiment runs a single experiment by ID ("table1" ... "figure9").
func RunExperiment(ctx context.Context, seed int64, id string) (*Artifact, error) {
	s := analysis.NewSession(analysis.Config{Seed: seed})
	valid := make([]string, 0, len(analysis.All()))
	for _, e := range analysis.All() {
		if e.ID == id {
			return e.Run(ctx, s)
		}
		valid = append(valid, e.ID)
	}
	sort.Strings(valid)
	return nil, &UnknownExperimentError{ID: id, Valid: valid}
}

// UnknownExperimentError reports a RunExperiment call with an ID that does
// not match any experiment.
type UnknownExperimentError struct {
	ID string
	// Valid lists every known experiment ID, sorted, so the message is
	// self-diagnosing (`rws-analyze -only figure10` tells the caller what
	// it could have asked for).
	Valid []string
}

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	if len(e.Valid) == 0 {
		return "rwskit: unknown experiment " + e.ID
	}
	return "rwskit: unknown experiment " + e.ID + " (valid: " + strings.Join(e.Valid, ", ") + ")"
}
